"""Numerical verification of the divergence the contrastive objective induces.

On a finite support, the inner apprenticeship-learning maximisation over
sphere-valued encoders reduces to maximising

    value(g) = |<g, p>| * <g, p - q>,    g in [-1, 1]^n

where p and q are the expert and agent occupancy distributions. This module
computes total variation, evaluates that box-constrained objective, builds
the constructive witness behind the lower bound, finds the exact box maximum
by an O(n log n) walk around the zonotope the box maps onto, and checks

    0.25 * TV(p, q) <= max value <= 2.0 * TV(p, q).

The maximum is evaluated at a box point that attains it, so both sides of the
sandwich check test the bound itself.

Each public function validates its own arguments once, with
``validate_distribution`` for p and q and the box check for g, and then hands
the float64 arrays, with d = p - q computed once, to the private kernels
``_box_maximiser`` and ``_value``. The kernels trust their arguments and check
nothing, so only a public function may be called with caller data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import real_float64

_DIST_TOL = 1e-9


def validate_distribution(p) -> np.ndarray:
    """p as a float64 vector, or a ValueError saying why it is no distribution."""
    p = real_float64(p, "a distribution")
    if p.ndim != 1 or p.size < 1:
        raise ValueError("a distribution must be a non-empty 1-D vector")
    total = p.sum()
    if not abs(total - 1.0) <= _DIST_TOL:  # written so that a NaN sum fails
        what = "holds NaN or Inf" if not np.all(np.isfinite(p)) else f"sums to {total!r}, not 1"
        raise ValueError(f"distribution {what}")
    if p.min() < -_DIST_TOL:
        raise ValueError("distribution entries must be non-negative")
    return p


def _validate_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p, q = validate_distribution(p), validate_distribution(q)
    if p.shape != q.shape:
        raise ValueError(f"mismatched supports: {p.shape} vs {q.shape}")
    return p, q


def tv_distance(p, q) -> float:
    """Total variation: half the L1 distance between two distributions."""
    p, q = _validate_pair(p, q)
    return 0.5 * float(np.abs(p - q).sum())


def _value(g, p, d) -> float:
    return float(abs(g @ p) * (g @ d))


def inner_objective(g, p, q) -> float:
    """|<g, p>| * <g, p - q> for a box-feasible reward direction g."""
    g = real_float64(g, "g")
    if not np.all(np.abs(g) <= 1.0 + 1e-12):  # written so that NaN fails
        raise ValueError("g must lie in the box [-1, 1]^n and hold no NaN or Inf")
    p, q = _validate_pair(p, q)
    if g.shape != p.shape:
        raise ValueError(f"g has shape {g.shape}, the distributions {p.shape}")
    return _value(g, p, p - q)


@dataclass
class RewardWitness:
    """A constructive g certifying part of the lower bound."""

    g: np.ndarray
    alpha: float
    value: float


def constructive_witness(p, q) -> RewardWitness:
    """The proof's two-level reward on S = {p >= q}.

    When the expert mass of S is at least half, g is +1 on S and -0.5 off
    it; otherwise +0.5 on S and -1 off it (the proof's beta is 0.5). The
    witness value is at least 0.25 * TV(p, q) in both cases.
    """
    p, q = _validate_pair(p, q)
    s_mask = p >= q
    mu_s = float(p[s_mask].sum())
    if mu_s >= 1.0 - mu_s:
        g = np.where(s_mask, 1.0, -0.5)
    else:
        g = np.where(s_mask, 0.5, -1.0)
    return RewardWitness(g=g, alpha=abs(float(g @ p)), value=_value(g, p, p - q))


def _box_maximiser(p, d) -> np.ndarray:
    """A g in [-1, 1]^n at which |<g, p>| * <g, d> attains its maximum, for a
    distribution p and d = p - q.

    g -> (a, b) = (<g, p>, <g, p - q>) maps the box onto a 2-D zonotope with
    generators (p_i, p_i - q_i). f = |a| * b has no interior maximum, so it
    peaks on one of the 2n edges. p >= 0 keeps every generator in the
    half-plane a >= 0, so the angles span half a turn: in order of generator
    angle, n edges lead from -sum to +sum, and the other n are their mirror
    images. An edge's best point is a vertex or its stationary point: the
    a = 0 kink has value 0, which a vertex reaches as f(-z) = -f(z). By the
    same symmetry, scoring the candidates of the first n edges by |a * b|
    scores the mirrored ones too; a winner with b < 0 stands for its mirror
    image -g. The sort makes the walk O(n log n).
    """
    n = p.size
    order = np.arctan2(d, p).argsort()
    # column k + 1 holds the walk's k-th step; column 0 stays 0, so the cumsum
    # gives every vertex of the half-walk, with the total 2 * sum last
    steps = np.zeros((2, n + 1))
    steps[0, 1:] = p[order]
    steps[1, 1:] = d[order]
    steps *= 2.0
    corners = steps.cumsum(axis=1)
    corners -= 0.5 * corners[:, n:]  # start at -sum
    (a0, b0), (u, v) = corners[:, :n], steps[:, 1:]
    # a linear edge (u or v zero) has no stationary point: t = 0. One inside
    # the edge gains at most |u * v| over its vertex, so the edges with
    # |u * v| <= 1e-300 are taken as linear too, and the division cannot
    # overflow on a subnormal atom
    uv = u * v
    t = np.zeros((2, n))  # row 0: the edge's first vertex; row 1: its stationary point
    np.divide(a0 * v + b0 * u, -2.0 * uv, out=t[1], where=np.abs(uv) > 1e-300)
    t[1].clip(0.0, 1.0, out=t[1])
    score = np.abs((a0 + t * u) * (b0 + t * v))  # |f| covers the mirrored half too
    row, j = divmod(int(score.argmax()), n)
    t_j = t[row, j]
    g = np.full(n, -1.0)
    g[order[:j]] = 1.0
    g[order[j]] = -1.0 + 2.0 * t_j
    return -g if b0[j] + t_j * v[j] < 0.0 else g


def d_cont_estimate(p, q) -> float:
    """The exact box maximum of the inner objective, evaluated at its maximiser."""
    p, q = _validate_pair(p, q)
    d = p - q
    g = _box_maximiser(p, d)
    if not np.abs(g).max() <= 1.0 + 1e-12:  # written so that NaN fails
        raise ValueError("the maximiser left the box [-1, 1]^n or holds NaN or Inf")
    return _value(g, p, d)


@dataclass
class SandwichReport:
    tv: float
    d_cont_est: float
    lower_ok: bool
    upper_ok: bool


def sandwich_check(p, q) -> SandwichReport:
    """Check 0.25 * TV <= max value <= 2 * TV, with 1e-9 tolerance.

    The maximum is exact, so both checks test the analytic bounds
    themselves. ``tv_distance`` and ``d_cont_estimate`` each validate p and q
    once; the O(n log n) walk behind ``d_cont_estimate`` trusts the arrays it
    is handed and checks nothing again.
    """
    tv = tv_distance(p, q)
    est = d_cont_estimate(p, q)
    return SandwichReport(
        tv=tv,
        d_cont_est=est,
        lower_ok=est >= 0.25 * tv - 1e-9,
        upper_ok=est <= 2.0 * tv + 1e-9,
    )
