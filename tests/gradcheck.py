"""Finite-difference oracles shared by the unit and acceptance suites."""

from __future__ import annotations

import numpy as np

from pcil import autodiff as ad


def finite_difference(f, arrays, h=1e-5):
    """Central-difference gradient of scalar ``f(arrays)`` w.r.t. each array."""
    grads = []
    for x in arrays:
        g = np.zeros_like(x)
        flat = x.ravel()
        gf = g.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fp = f(arrays)
            flat[j] = orig - h
            fm = f(arrays)
            flat[j] = orig
            gf[j] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(analytic, numeric):
    """Max-abs deviation normalised by the largest numeric-gradient entry."""
    worst_dev = 0.0
    worst_ref = 0.0
    for a, n in zip(analytic, numeric):
        worst_dev = max(worst_dev, float(np.max(np.abs(a - n))) if a.size else 0.0)
        worst_ref = max(worst_ref, float(np.max(np.abs(n))) if n.size else 0.0)
    return worst_dev / max(worst_ref, 1e-6)


def check_gradients(build, arrays, h=1e-5, tol=1e-4):
    """Compare tape gradients of ``build(tape, leaves) -> scalar node`` to FD.

    Returns the relative error; asserts it is within ``tol``.
    """
    tape = ad.Tape()
    leaves = [tape.leaf(x.copy()) for x in arrays]
    out = build(tape, leaves)
    analytic = tape.gradient(out, leaves)

    def evaluate(xs):
        t = ad.Tape()
        ls = [t.leaf(x, requires_grad=False) for x in xs]
        return float(build(t, ls).data)

    numeric = finite_difference(evaluate, [x.copy() for x in arrays], h=h)
    err = relative_error(analytic, numeric)
    assert err < tol, f"gradient mismatch: relative error {err:.3e} >= {tol}"
    return err


def scalarize(tape, node, weights):
    """Reduce an arbitrary-shaped node to a scalar via a fixed weighting."""
    return ad.tsum(ad.mul(node, tape.constant(weights)))


def primitive_cases(rng):
    """One random gradient-check instance per differentiable primitive.

    Inputs are sampled away from kinks (relu at 0, sphere_normalize near the
    epsilon cutoff) and domain edges (log, sqrt) so central differences are
    valid; each case returns (name, build, arrays).
    """
    cases = []

    def rand(*shape, lo=-2.0, hi=2.0):
        return rng.uniform(lo, hi, size=shape)

    w23 = rand(2, 3)
    w3 = rand(3)
    w22 = rand(2, 2)

    a, b = rand(2, 3), rand(2, 3)
    cases.append(("add", lambda t, ls: scalarize(t, ad.add(ls[0], ls[1]), w23), [a, b]))
    a, b = rand(2, 3), rand(2, 3)
    cases.append(("sub", lambda t, ls: scalarize(t, ad.sub(ls[0], ls[1]), w23), [a, b]))
    a, b = rand(2, 3), rand(3)
    cases.append(("mul", lambda t, ls: scalarize(t, ad.mul(ls[0], ls[1]), w23), [a, b]))
    c = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    cases.append(("scale", lambda t, ls: scalarize(t, ad.scale(ls[0], c), w23), [rand(2, 3)]))
    cases.append(("div_scalar", lambda t, ls: scalarize(t, ad.div_scalar(ls[0], c), w23), [rand(2, 3)]))
    a, b = rand(2, 3), rand(3, 2)
    cases.append(("matmul", lambda t, ls: scalarize(t, ad.matmul(ls[0], ls[1]), w22), [a, b]))
    a, b = rand(3), rand(3)
    cases.append(("dot", lambda t, ls: ad.dot(ls[0], ls[1]), [a, b]))
    cases.append(("tanh", lambda t, ls: scalarize(t, ad.tanh(ls[0]), w23), [rand(2, 3)]))
    x = rand(2, 3)
    x = np.where(np.abs(x) < 0.05, 0.3, x)  # keep clear of the relu kink
    cases.append(("relu", lambda t, ls: scalarize(t, ad.relu(ls[0]), w23), [x]))
    cases.append(("sigmoid", lambda t, ls: scalarize(t, ad.sigmoid(ls[0]), w23), [rand(2, 3)]))
    cases.append(("softplus", lambda t, ls: scalarize(t, ad.softplus(ls[0]), w23), [rand(2, 3)]))
    cases.append(("exp", lambda t, ls: scalarize(t, ad.exp(ls[0]), w23), [rand(2, 3)]))
    cases.append(("log", lambda t, ls: scalarize(t, ad.log(ls[0]), w23), [rand(2, 3, lo=0.5, hi=2.5)]))
    cases.append(("sqrt", lambda t, ls: scalarize(t, ad.sqrt(ls[0]), w23), [rand(2, 3, lo=0.5, hi=2.5)]))
    w2 = rand(2)
    cases.append(("sum", lambda t, ls: scalarize(t, ad.tsum(ls[0], axis=1), w2), [rand(2, 3)]))
    cases.append(("mean", lambda t, ls: scalarize(t, ad.tmean(ls[0], axis=0), w3), [rand(2, 3)]))
    w2b = rand(2)
    cases.append(("logsumexp", lambda t, ls: scalarize(t, ad.logsumexp(ls[0], axis=1), w2b), [rand(2, 3)]))
    w2c = rand(2)
    cases.append(("sqnorm", lambda t, ls: scalarize(t, ad.sqnorm(ls[0], axis=1), w2c), [rand(2, 3)]))
    sn = rand(2, 3)
    sn += np.sign(sn.sum(axis=1, keepdims=True)) * 0.5  # norms well above the cutoff
    cases.append(("sphere_normalize", lambda t, ls: scalarize(t, ad.sphere_normalize(ls[0]), w23), [sn]))
    a, b = rand(2, 3), rand(1, 3)
    w33 = rand(3, 3)
    cases.append((
        "concat",
        lambda t, ls: scalarize(t, ad.concat([ls[0], ls[1]], axis=0), w33),
        [a, b],
    ))
    w32 = rand(3, 2)
    cases.append(("reshape", lambda t, ls: scalarize(t, ad.reshape(ls[0], (3, 2)), w32), [rand(2, 3)]))
    w32b = rand(3, 2)
    cases.append(("transpose", lambda t, ls: scalarize(t, ad.transpose(ls[0]), w32b), [rand(2, 3)]))
    # denominators kept well away from zero
    a, b = rand(2, 3), rand(2, 1, lo=0.5, hi=2.5) * rng.choice([-1.0, 1.0])
    cases.append(("div", lambda t, ls: scalarize(t, ad.div(ls[0], ls[1]), w23), [a, b]))
    return cases
