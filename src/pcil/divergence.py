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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DIST_TOL = 1e-9


def validate_distribution(p) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("a distribution must be a non-empty 1-D vector")
    total = p.sum()
    if not abs(total - 1.0) <= _DIST_TOL:  # written so that a NaN sum fails
        what = "holds NaN or Inf" if not np.all(np.isfinite(p)) else f"sums to {total!r}, not 1"
        raise ValueError(f"distribution {what}")
    if np.any(p < -_DIST_TOL):
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


def inner_objective(g, p, q) -> float:
    """|<g, p>| * <g, p - q> for a box-feasible reward direction g."""
    g = np.asarray(g, dtype=np.float64)
    if not np.all(np.abs(g) <= 1.0 + 1e-12):  # written so that NaN fails
        raise ValueError("g must lie in the box [-1, 1]^n and hold no NaN or Inf")
    p, q = _validate_pair(p, q)
    if g.shape != p.shape:
        raise ValueError(f"g has shape {g.shape}, the distributions {p.shape}")
    return float(abs(g @ p) * (g @ (p - q)))


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
    alpha = abs(float(g @ p))
    value = alpha * float(g @ (p - q))
    return RewardWitness(g=g, alpha=alpha, value=value)


def box_maximiser(p, q) -> np.ndarray:
    """A g in [-1, 1]^n at which |<g, p>| * <g, p - q> attains its maximum.

    g -> (a, b) = (<g, p>, <g, p - q>) maps the box onto a 2-D zonotope with
    generators (p_i, p_i - q_i). |a| * b has no interior maximum, so it peaks
    on one of the 2n edges, walked from -sum in order of generator angle and
    back; p >= 0 keeps every generator in the half-plane a >= 0, so the angles
    span half a turn. An edge's best point is a vertex or its stationary
    point: the a = 0 kink has value 0, which a vertex reaches as f(-z) = -f(z).
    """
    p, q = _validate_pair(p, q)
    n = p.size
    gen = np.stack([p, p - q], axis=1)
    order = np.argsort(np.arctan2(gen[:, 1], gen[:, 0]))
    steps = 2.0 * np.concatenate([gen[order], -gen[order]])
    a0, b0 = (np.cumsum(steps, axis=0) - steps - gen.sum(axis=0)).T
    u, v = steps.T
    uv = u * v  # a linear edge (u or v zero) has no stationary point: t_star = 0
    t_star = np.clip(-(a0 * v + b0 * u) / np.where(uv != 0.0, 2.0 * uv, np.inf), 0.0, 1.0)
    t = np.stack([np.zeros_like(t_star), t_star])
    vals = np.abs(a0 + t * u) * (b0 + t * v)
    row, edge = np.unravel_index(np.argmax(vals), vals.shape)
    j = edge % n  # edges j and n + j move the same generator, in opposite directions
    g = np.where(np.argsort(order) < j, 1.0, -1.0)
    g[order[j]] = -1.0 + 2.0 * t[row, edge]
    return g if edge < n else -g


def d_cont_estimate(p, q) -> float:
    """The exact box maximum of the inner objective, evaluated at its maximiser."""
    return inner_objective(box_maximiser(p, q), p, q)


@dataclass
class SandwichReport:
    tv: float
    d_cont_est: float
    lower_ok: bool
    upper_ok: bool


def sandwich_check(p, q) -> SandwichReport:
    """Check 0.25 * TV <= max value <= 2 * TV, with 1e-9 tolerance.

    The maximum is exact, so both checks test the analytic bounds
    themselves.
    """
    tv = tv_distance(p, q)
    est = d_cont_estimate(p, q)
    return SandwichReport(
        tv=tv,
        d_cont_est=est,
        lower_ok=est >= 0.25 * tv - 1e-9,
        upper_ok=est <= 2.0 * tv + 1e-9,
    )
