import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcil import autodiff as ad
from pcil.divergence import (
    _box_maximiser,
    _validate_pair,
    constructive_witness,
    d_cont_estimate,
    inner_objective,
    sandwich_check,
    tv_distance,
)

# every public function, called with (p, q); the kernels behind them check
# nothing, so each must reject malformed input on its own
ENTRY_POINTS = {
    "tv_distance": tv_distance,
    "inner_objective": lambda p, q: inner_objective(np.zeros(np.shape(p)), p, q),
    "d_cont_estimate": d_cont_estimate,
    "constructive_witness": constructive_witness,
    "sandwich_check": sandwich_check,
}

# d_cont_estimate of seeded Dirichlet pairs on the benchmark's large supports,
# recorded with the solver's earlier walk over all 2n edges
LARGE_SUPPORT_SEED = 20261019
LARGE_SUPPORT_VALUES = [
    (29, 0.4153110637454612),
    (24, 0.6976169182769034),
    (29, 0.47530991694929653),
    (64, 0.6347530549140982),
    (40, 0.6223090333748409),
    (62, 0.6975353485884236),
    (28, 0.692254275933813),
    (19, 0.3908848577654497),
    (57, 0.6242118692332964),
    (36, 0.7092967523043779),
    (36, 0.5295362064925203),
    (41, 0.8707131227808513),
    (62, 0.6413148870164673),
    (13, 0.5438604834888232),
    (48, 0.7335496527740364),
    (43, 0.5702125457570675),
    (27, 0.6546300616560745),
    (31, 1.0332730400776329),
    (53, 0.6949443381715628),
    (30, 0.6389970658069577),
]


def random_pair(rng, n):
    return rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))


def maximiser(p, q) -> np.ndarray:
    """The g at which ``d_cont_estimate`` evaluates the box maximum: the
    solver's kernel on the validated pair."""
    p, q = _validate_pair(p, q)
    return _box_maximiser(p, p - q)


def edge_oracle(p, q) -> float:
    """Box maximum of |<g, p>| * <g, p - q> by brute force over every box edge.

    The maximum of the objective over a face lies on the face's boundary, so
    it lies on one of the n * 2^(n-1) edges. Along edge i (coordinate i free
    in [-1, 1], the rest fixed at -1 or +1) the objective is piecewise
    quadratic with pieces split at a = 0: the candidates are the two ends,
    the stationary point and the a = 0 crossing.
    """
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    n, d = p.size, p - q
    corners = np.array(list(itertools.product([-1.0, 1.0], repeat=n - 1)))
    corners = corners.reshape(2 ** (n - 1), n - 1)
    best = 0.0
    for i in range(n):
        rest = np.delete(np.arange(n), i)
        a_fix, b_fix = corners @ p[rest], corners @ d[rest]
        ts = [np.full_like(a_fix, -1.0), np.full_like(a_fix, 1.0)]
        if p[i] * d[i] != 0.0:
            ts.append(-(a_fix * d[i] + b_fix * p[i]) / (2.0 * p[i] * d[i]))
        if p[i] != 0.0:
            ts.append(-a_fix / p[i])
        for t in ts:
            t = np.clip(t, -1.0, 1.0)
            best = max(best, float(np.max(np.abs(a_fix + t * p[i]) * (b_fix + t * d[i]))))
    return best


def table_encoder_gap(embeddings: np.ndarray, p, q) -> float:
    """Expert-minus-agent mean reward for a one-unit-vector-per-point encoder.

    The reference is the raw p-weighted mean embedding (no renormalisation):
    that is the form whose gap provably never exceeds the box maximum. The
    renormalised variant can exceed it, so it is the wrong bridge here; see
    tests for a two-point counterexample.
    """
    p, q = _validate_pair(p, q)
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.shape[0] != p.size:
        raise ValueError("need one embedding per support point")
    norms = np.linalg.norm(emb, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("table encoder embeddings must be unit vectors")
    reference = emb.T @ p
    rewards = emb @ reference
    return float(rewards @ (p - q))


def taylor_check(tau: float, trials: int, seed: int = 0) -> float:
    """Max deviation between the exact loss gradient and its linear surrogate.

    At equal positive/negative similarities the gradient of the exact
    single-negative contrastive loss equals 1/(2*tau) times the gradient of
    (s_n - s_p); the deviation away from equality is generally nonzero. The
    exact gradient is computed through the autodiff tape, so this also
    exercises the machinery the training losses run on.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        s = float(rng.uniform(-1.0, 1.0))
        tape = ad.Tape()
        s_p = tape.leaf(np.array(s))
        s_n = tape.leaf(np.array(s))
        scaled_p = ad.mul(s_p, 1.0 / tau)
        scaled_n = ad.mul(s_n, 1.0 / tau)
        logits = ad.concat([ad.reshape(scaled_p, (1,)), ad.reshape(scaled_n, (1,))], axis=0)
        loss = ad.sub(ad.logsumexp(logits), scaled_p)
        tape.backward(loss)
        surrogate = np.array([-1.0, 1.0]) / (2.0 * tau)
        deviation = max(
            abs(float(s_p.grad) - surrogate[0]), abs(float(s_n.grad) - surrogate[1])
        )
        worst = max(worst, deviation)
    return worst


def exact_pair_loss_gradient(s_p: float, s_n: float, tau: float) -> np.ndarray:
    """Closed-form gradient of the single-negative loss, for cross-checks."""
    sig = 1.0 / (1.0 + np.exp(-(s_n - s_p) / tau))
    return np.array([-sig / tau, sig / tau])


def assert_exact(p, q):
    """The solver matches the edge oracle and its value is attained by its g."""
    g = maximiser(p, q)
    value = d_cont_estimate(p, q)
    assert np.all(np.abs(g) <= 1.0)
    assert value == inner_objective(g, p, q)
    assert value == pytest.approx(edge_oracle(p, q), abs=1e-12)
    return value


class TestTvDistance:
    def test_identical(self):
        p = np.array([0.25, 0.75])
        assert tv_distance(p, p) == 0.0

    def test_disjoint(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_hand_value(self):
        assert tv_distance([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2, abs=1e-15)

    def test_mismatched_support_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            tv_distance([1.0], [0.5, 0.5])

    @pytest.mark.parametrize("p", [[[0.5, 0.5]], [], 1.0], ids=["2-D", "empty", "0-d"])
    def test_distribution_of_another_shape_rejected(self, p):
        with pytest.raises(ValueError, match="non-empty 1-D vector"):
            tv_distance(p, [0.5, 0.5])

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError, match="sums to"):
            tv_distance([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValueError, match="non-negative"):
            tv_distance([1.5, -0.5], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_distribution_rejected(self, bad):
        for p, q in (([bad, 1.0], [0.5, 0.5]), ([0.5, 0.5], [bad, 1.0])):
            for check in ENTRY_POINTS.values():
                with pytest.raises(ValueError, match="NaN or Inf"):
                    check(p, q)

    @pytest.mark.parametrize(
        "bad, match",
        [
            pytest.param([1.0 + 2e-9, -2e-9], "non-negative", id="atom_below_tol"),
            pytest.param([0.5, 0.6], "sums to", id="bad_sum"),
            pytest.param([[0.5, 0.5]], "non-empty 1-D vector", id="wrong_rank"),
            pytest.param([], "non-empty 1-D vector", id="empty"),
            pytest.param([1.0], "mismatched", id="mismatched_support"),
        ],
    )
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_malformed_distribution_rejected_everywhere(self, entry, bad, match):
        for p, q in ((bad, [0.5, 0.5]), ([0.5, 0.5], bad)):
            with pytest.raises(ValueError, match=match):
                ENTRY_POINTS[entry](p, q)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
    def test_range_and_symmetry(self, n, seed):
        rng = np.random.default_rng(seed)
        p, q = random_pair(rng, n)
        tv = tv_distance(p, q)
        assert 0.0 <= tv <= 1.0
        assert tv == pytest.approx(tv_distance(q, p), abs=1e-15)


class TestInnerObjective:
    def test_zero_g(self):
        assert inner_objective([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert inner_objective([1.0, -1.0], [1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)

    def test_sign_flip_negates(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p, q = random_pair(rng, 4)
            g = rng.uniform(-1, 1, size=4)
            assert inner_objective(-g, p, q) == pytest.approx(-inner_objective(g, p, q), abs=1e-12)

    def test_outside_box_rejected(self):
        with pytest.raises(ValueError, match="box"):
            inner_objective([1.5, 0.0], [1.0, 0.0], [0.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"g has shape \(1,\)"):
            inner_objective([0.5], [0.5, 0.5], [0.5, 0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["g", "p", "q"])
    def test_non_finite_input_rejected(self, where, bad):
        args = {"g": [0.5, 0.5], "p": [0.5, 0.5], "q": [0.5, 0.5]}
        args[where] = [bad, 1.0] if where != "g" else [bad, 0.5]
        with pytest.raises(ValueError, match="NaN or Inf"):
            inner_objective(args["g"], args["p"], args["q"])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
    def test_never_exceeds_twice_tv(self, n, seed):
        rng = np.random.default_rng(seed)
        p, q = random_pair(rng, n)
        g = rng.uniform(-1, 1, size=n)
        assert inner_objective(g, p, q) <= 2.0 * tv_distance(p, q) + 1e-12


class TestConstructiveWitness:
    def test_hand_case(self):
        w = constructive_witness([1.0, 0.0], [0.0, 1.0])
        np.testing.assert_array_equal(w.g, [1.0, -0.5])
        assert w.alpha == pytest.approx(1.0)
        assert w.value == pytest.approx(1.5)

    def test_equal_distributions_vacuous(self):
        p = np.array([0.3, 0.7])
        w = constructive_witness(p, p)
        assert w.value == pytest.approx(0.0, abs=1e-15)

    def test_alpha_consistent_with_g(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p, q = random_pair(rng, int(rng.integers(2, 9)))
            w = constructive_witness(p, q)
            assert w.alpha == pytest.approx(abs(w.g @ p), abs=1e-12)

    def test_lower_bound_500_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            p, q = random_pair(rng, n)
            w = constructive_witness(p, q)
            assert w.value >= 0.25 * tv_distance(p, q) - 1e-12

    def test_case_two_branch(self):
        # most expert mass sits where the agent dominates, forcing the
        # +0.5 / -1 form of the witness
        p = np.array([0.9, 0.1])
        q = np.array([0.95, 0.05])
        w = constructive_witness(p, q)
        np.testing.assert_array_equal(w.g, [-1.0, 0.5])
        assert w.value >= 0.25 * tv_distance(p, q) - 1e-12


class TestDContEstimate:
    def test_tight_upper_case(self):
        assert assert_exact([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0, abs=1e-12)

    def test_equal_distributions(self):
        p = [0.4, 0.6]
        assert assert_exact(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_dominates_witness(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p, q = random_pair(rng, int(rng.integers(2, 9)))
            est = d_cont_estimate(p, q)
            assert est >= constructive_witness(p, q).value - 1e-12

    def test_interior_edge_point_beats_every_vertex(self):
        # the best vertex g = (-1, 1) gives 0.24; the maximum 0.25 sits inside
        # an edge, at g = (-2/3, 1)
        p, q = [0.3, 0.7], [0.6, 0.4]
        assert assert_exact(p, q) == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(maximiser(p, q), [-2.0 / 3.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize(
        "p, q, expected",
        [
            pytest.param([1.0], [1.0], 0.0, id="one_point"),
            pytest.param([0.9, 0.1], [0.1, 0.9], 1.28, id="two_point"),
            pytest.param([0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5], 2.0, id="disjoint"),
            pytest.param([0.5, 0.5, 0.0], [0.2, 0.3, 0.5], None, id="zero_mass_expert_atom"),
            pytest.param([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], None, id="q_reversed_p"),
            pytest.param([0.5, 0.0, 0.5], [0.5, 0.0, 0.5], 0.0, id="equal_with_unvisited_atom"),
            pytest.param([0.2, 0.2, 0.6], [0.1, 0.1, 0.8], None, id="equal_generators"),
            pytest.param([0.2, 0.4, 0.4], [0.1, 0.2, 0.7], None, id="parallel_generators"),
            pytest.param([0.25, 0.25, 0.5], [0.35, 0.15, 0.5], None, id="generator_on_a_axis"),
            pytest.param([-5e-10, 0.5 + 5e-10, 0.5], [0.3, 0.3, 0.4], None, id="negative_atom_in_tol"),
        ],
    )
    def test_degenerate_cases(self, p, q, expected):
        value = assert_exact(p, q)
        if expected is not None:
            assert value == pytest.approx(expected, abs=1e-12)

    def test_subnormal_atom(self):
        # u * v = 2 p_0 * 2 (p_0 - q_0) is subnormal, not 0, and dividing by it
        # would overflow; the atom counts as unvisited
        p, q = [5e-324, 0.5, 0.5], [0.3, 0.2, 0.5]
        assert d_cont_estimate(p, q) == pytest.approx(assert_exact([0.0, 0.5, 0.5], q), abs=1e-12)

    def test_large_supports_pinned(self):
        rng = np.random.default_rng(LARGE_SUPPORT_SEED)
        for n, expected in LARGE_SUPPORT_VALUES:
            assert int(rng.integers(11, 65)) == n
            p, q = random_pair(rng, n)
            value = d_cont_estimate(p, q)
            assert value == pytest.approx(expected, abs=1e-12)
            assert value == inner_objective(maximiser(p, q), p, q)
            assert constructive_witness(p, q).value <= value <= 2.0 * tv_distance(p, q)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
    )
    def test_property_matches_edge_oracle(self, p_weights, q_weights):
        # small integer weights hit ties, zero atoms and parallel generators
        n = min(len(p_weights), len(q_weights))
        p, q = np.array(p_weights[:n], float), np.array(q_weights[:n], float)
        assume(p.sum() > 0 and q.sum() > 0)
        assert_exact(p / p.sum(), q / q.sum())


class TestSandwich:
    def test_thousand_random_pairs(self):
        rng = np.random.default_rng(5)
        half_count, min_ratio = 0, np.inf
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            p, q = random_pair(rng, n)
            rep = sandwich_check(p, q)
            assert rep.lower_ok and rep.upper_ok
            assert rep.d_cont_est == pytest.approx(edge_oracle(p, q), abs=1e-12)
            half_count += rep.d_cont_est >= 0.5 * rep.tv - 1e-9
            min_ratio = min(min_ratio, rep.d_cont_est / rep.tv)
        # the stronger 0.5*TV lower bound is reported, not asserted
        print(f"maximum cleared 0.5*TV on {half_count}/1000 pairs, min ratio {min_ratio:.3f}")

    def test_tight_case(self):
        rep = sandwich_check([1.0, 0.0], [0.0, 1.0])
        assert rep.tv == pytest.approx(1.0)
        assert rep.d_cont_est == pytest.approx(2.0, abs=1e-9)
        assert rep.lower_ok and rep.upper_ok

    def test_vacuous_case(self):
        p = [0.5, 0.5]
        rep = sandwich_check(p, p)
        assert rep.tv == 0.0 and rep.d_cont_est == pytest.approx(0.0, abs=1e-12)
        assert rep.lower_ok and rep.upper_ok


class TestTableEncoderGap:
    def test_gap_never_exceeds_estimate(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p, q = random_pair(rng, n)
            dim = int(rng.integers(2, 6))
            emb = rng.normal(size=(n, dim))
            emb /= np.linalg.norm(emb, axis=1, keepdims=True)
            gap = table_encoder_gap(emb, p, q)
            assert gap <= d_cont_estimate(p, q) + 1e-9

    def test_renormalized_reference_breaks_the_bound(self):
        # two-point counterexample: with a renormalised mean reference the gap
        # reaches 2*TV = 1.6 while the box maximum is only 1.28
        p = np.array([0.9, 0.1])
        q = np.array([0.1, 0.9])
        emb = np.array([[1.0, 0.0], [-1.0, 0.0]])
        est = d_cont_estimate(p, q)
        assert est == pytest.approx(1.28, abs=1e-9)
        raw_gap = table_encoder_gap(emb, p, q)
        assert raw_gap <= est + 1e-9
        mean = emb.T @ p
        renorm_gap = float((emb @ (mean / np.linalg.norm(mean))) @ (p - q))
        assert renorm_gap == pytest.approx(1.6, abs=1e-12)
        assert renorm_gap > est + 0.3

    def test_non_unit_embeddings_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            table_encoder_gap(np.array([[2.0, 0.0], [0.0, 1.0]]), [0.5, 0.5], [0.5, 0.5])


class TestTaylorCheck:
    @pytest.mark.parametrize("tau", [0.07, 0.5, 1.0])
    def test_equal_similarity_gradients_coincide(self, tau):
        assert taylor_check(tau, trials=100) < 1e-9

    def test_away_from_equality_deviation_nonzero(self):
        tau = 0.5
        grad = exact_pair_loss_gradient(0.8, -0.2, tau)
        surrogate = np.array([-1.0, 1.0]) / (2.0 * tau)
        assert np.max(np.abs(grad - surrogate)) > 1e-3

    def test_closed_form_matches_tape(self):
        tau = 0.07
        grad = exact_pair_loss_gradient(0.3, 0.3, tau)
        np.testing.assert_allclose(grad, np.array([-1.0, 1.0]) / (2 * tau), atol=1e-12)

    def test_invalid_tau(self):
        with pytest.raises(ValueError, match="tau"):
            taylor_check(0.0, trials=1)
