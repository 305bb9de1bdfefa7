import numpy as np
import pytest

from pcil import autodiff as ad
from pcil.contrastive import (
    ContrastiveBatch,
    Encoder,
    al_gap,
    contrastive_loss_graph,
    encoder_update,
    gradient_penalty,
    infonce_loss,
    input_gradient_graph,
    interpolate_pairs,
    make_expert_reference,
    penalty_graph,
    similarity_reward,
)
from gradcheck import check_gradients


def small_encoder(seed=0, state_dim=3, hidden=8, embed=4, **kw):
    return Encoder(
        np.random.default_rng(seed),
        state_dim=state_dim,
        hidden_dim=hidden,
        embed_dim=embed,
        **kw,
    )


def trunk_encoder(seed=0, state_dim=3, hidden=8, embed=4, trunk_width=6):
    rng = np.random.default_rng(seed)
    trunk = ad.mlp_params(rng, [state_dim, trunk_width, trunk_width])
    return Encoder(
        rng, state_dim=state_dim, hidden_dim=hidden, embed_dim=embed,
        trunk=trunk, trunk_out_dim=trunk_width,
    )


def reward_input_gradients(encoder, x_hat, reference):
    """Reference oracle: per-row gradient of the similarity reward w.r.t. its
    input, by one reverse pass down to the inputs."""
    tape = ad.Tape()
    x = tape.leaf(np.asarray(x_hat, dtype=np.float64))
    emb = encoder.embed_graph(tape, x)
    tape.backward(ad.tsum(ad.matmul(emb, tape.constant(np.asarray(reference)[:, None]))))
    return x.grad


def random_rotation(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q


def loss_value(expert_emb, agent_emb, temperature, inside_log=False):
    tape = ad.Tape()
    return float(
        contrastive_loss_graph(
            tape.constant(expert_emb), tape.constant(agent_emb), temperature, inside_log
        ).data
    )


class TestEmbed:
    def test_unit_norm(self):
        enc = small_encoder()
        rng = np.random.default_rng(1)
        emb = enc.embed(rng.uniform(-5, 5, size=(64, 3)))
        assert np.all(np.abs(np.linalg.norm(emb, axis=1) - 1.0) <= 1e-9)
        assert enc.norm_violations == 0

    def test_deterministic(self):
        enc = small_encoder()
        x = np.array([[0.2, -0.4, 1.0]])
        np.testing.assert_array_equal(enc.embed(x), enc.embed(x))

    def test_non_finite_rejected(self):
        enc = small_encoder()
        with pytest.raises(ad.NonFiniteError):
            enc.embed(np.array([[np.nan, 0.0, 0.0]]))

    def test_input_gradient_matches_finite_differences(self):
        enc = small_encoder(seed=3)
        c = np.random.default_rng(4).normal(size=enc.embed_dim)
        c /= np.linalg.norm(c)

        def build(tape, leaves):
            emb = enc.embed_graph(tape, leaves[0])
            return ad.tsum(ad.matmul(emb, tape.constant(c[:, None])))

        for trial in range(20):
            x = np.random.default_rng(100 + trial).uniform(-1, 1, size=(1, 3))
            err = check_gradients(build, [x])
            assert err < 1e-4

    def test_tape_and_inference_paths_agree(self):
        enc = small_encoder(seed=5)
        x = np.random.default_rng(6).uniform(-2, 2, size=(7, 3))
        tape = ad.Tape()
        graph = enc.embed_graph(tape, tape.constant(x))
        np.testing.assert_allclose(graph.data, enc.embed(x), atol=1e-14)

    def test_shared_trunk_features(self):
        rng = np.random.default_rng(7)
        trunk = ad.mlp_params(rng, [3, 8, 8])
        enc = Encoder(rng, state_dim=3, hidden_dim=8, embed_dim=4, trunk=trunk, trunk_out_dim=8)
        x = rng.uniform(-1, 1, size=(5, 3))
        emb = enc.embed(x)
        assert emb.shape == (5, 4)
        assert np.all(np.abs(np.linalg.norm(emb, axis=1) - 1) <= 1e-9)


class TestInfoNCE:
    def test_identical_embeddings_give_ln2(self):
        v = np.array([[1.0, 0.0], [1.0, 0.0]])
        a = np.array([[1.0, 0.0]])
        assert loss_value(v, a, temperature=0.07) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_aligned_positive_orthogonal_negative(self):
        expert = np.array([[1.0, 0.0], [1.0, 0.0]])
        agent = np.array([[0.0, 1.0]])
        expected = np.log(1.0 + np.exp(-1.0 / 0.07))
        assert loss_value(expert, agent, temperature=0.07) == pytest.approx(expected, rel=1e-6)
        assert expected == pytest.approx(6.2e-7, rel=0.02)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            e = rng.normal(size=(6, 5))
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            a = rng.normal(size=(4, 5))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            q = random_rotation(rng, 5)
            base = loss_value(e, a, 0.07)
            rotated = loss_value(e @ q, a @ q, 0.07)
            assert rotated == pytest.approx(base, abs=1e-9)

    def test_fewer_than_two_expert_rejected(self):
        with pytest.raises(ValueError, match="expert"):
            loss_value(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), 0.07)

    def test_at_least_one_agent_required(self):
        with pytest.raises(ValueError, match="agent"):
            loss_value(np.ones((2, 2)), np.ones((0, 2)), 0.07)

    def test_anchor_loss_bounds(self):
        # with similarities in [-1, 1], loss lies in [0, 2/tau + ln(candidates)]
        rng = np.random.default_rng(3)
        tau = 0.07
        for _ in range(50):
            ne, na = int(rng.integers(2, 8)), int(rng.integers(1, 8))
            e = rng.normal(size=(ne, 6))
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            a = rng.normal(size=(na, 6))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            val = loss_value(e, a, tau)
            assert 0.0 <= val <= 2.0 / tau + np.log(ne - 1 + na) + 1e-9

    def test_inside_log_matches_outside_for_single_positive(self):
        rng = np.random.default_rng(4)
        e = rng.normal(size=(2, 4))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        a = rng.normal(size=(3, 4))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        assert loss_value(e, a, 0.5, inside_log=True) == pytest.approx(
            loss_value(e, a, 0.5, inside_log=False), abs=1e-12
        )

    def test_variants_differ_with_many_positives(self):
        rng = np.random.default_rng(5)
        e = rng.normal(size=(5, 4))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        a = rng.normal(size=(3, 4))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        assert loss_value(e, a, 0.5, True) != pytest.approx(loss_value(e, a, 0.5, False), abs=1e-9)

    def test_encoder_level_wrapper(self):
        enc = small_encoder(seed=9)
        rng = np.random.default_rng(10)
        batch = ContrastiveBatch(rng.normal(size=(8, 3)), rng.normal(size=(8, 3)))
        val = infonce_loss(enc, batch)
        assert np.isfinite(val) and val >= 0.0


class _IdentityEmbed:
    """Stub whose 'embedding' is the raw input: reward gradient == reference."""

    def embed_graph(self, tape, x, head_nodes=None):
        return x

    def embed(self, inputs):
        return np.atleast_2d(inputs)


class TestSimilarityReward:
    def test_self_similarity_is_one(self):
        enc = small_encoder(seed=11)
        x = np.array([[0.5, -1.0, 2.0]])
        ref = make_expert_reference(enc, x, mode="sample", rng=np.random.default_rng(0))
        assert similarity_reward(enc, x, ref)[0] == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_and_antipodal(self):
        stub = _IdentityEmbed()
        ref = np.array([1.0, 0.0])
        assert similarity_reward(stub, np.array([[0.0, 1.0]]), ref)[0] == pytest.approx(0.0)
        assert similarity_reward(stub, np.array([[-1.0, 0.0]]), ref)[0] == pytest.approx(-1.0)

    def test_empty_expert_set_rejected(self):
        enc = small_encoder()
        with pytest.raises(ValueError, match="at least one"):
            make_expert_reference(enc, np.zeros((0, 3)), mode="mean")

    def test_rewards_bounded(self):
        enc = small_encoder(seed=12)
        rng = np.random.default_rng(13)
        expert = rng.uniform(-3, 3, size=(16, 3))
        for mode in ("sample", "mean"):
            ref = make_expert_reference(enc, expert, mode=mode, rng=rng)
            r = similarity_reward(enc, rng.uniform(-5, 5, size=(64, 3)), ref)
            assert np.all(r >= -1.0 - 1e-9) and np.all(r <= 1.0 + 1e-9)

    def test_mean_mode_is_renormalized(self):
        enc = small_encoder(seed=14)
        rng = np.random.default_rng(15)
        ref = make_expert_reference(enc, rng.uniform(-1, 1, size=(8, 3)), mode="mean")
        assert np.linalg.norm(ref) == pytest.approx(1.0, abs=1e-9)


class TestGradientPenalty:
    @staticmethod
    def probe(enc, seed, n=12):
        # a random unit reference: the mean-mode one sits where grad_x r is ~0
        rng = np.random.default_rng(seed)
        expert = rng.uniform(-2, 2, size=(n, 3))
        agent = rng.uniform(-2, 2, size=(n, 3))
        ref = rng.normal(size=enc.embed_dim)
        return expert, agent, ref / np.linalg.norm(ref)

    @pytest.mark.parametrize("with_trunk", [False, True], ids=["no_trunk", "trunk"])
    def test_input_gradient_rows_match_oracle(self, with_trunk):
        for seed in range(5):
            enc = trunk_encoder(seed) if with_trunk else small_encoder(seed=seed)
            expert, agent, ref = self.probe(enc, 100 + seed)
            x_hat = interpolate_pairs(expert, agent, np.random.default_rng(seed))
            oracle = reward_input_gradients(enc, x_hat, ref)
            assert np.max(np.linalg.norm(oracle, axis=1)) > 1e-3  # not a degenerate probe
            rows = input_gradient_graph(ad.Tape(), enc, None, x_hat, ref).data
            np.testing.assert_allclose(rows, oracle, rtol=0.0, atol=1e-12)
            expected = float(np.mean((np.linalg.norm(oracle, axis=1) - 1.0) ** 2))
            value = float(penalty_graph(ad.Tape(), enc, None, x_hat, ref).data)
            assert value == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_value_matches_oracle(self):
        enc = small_encoder(seed=16)
        expert, agent, ref = self.probe(enc, 17)
        val = gradient_penalty(enc, expert, agent, ref, np.random.default_rng(5))
        x_hat = interpolate_pairs(expert, agent, np.random.default_rng(5))
        norms = np.linalg.norm(reward_input_gradients(enc, x_hat, ref), axis=1)
        assert val == pytest.approx(np.mean((norms - 1.0) ** 2), rel=0.0, abs=1e-12)

    def test_constant_reward_gives_one(self):
        # a zero last-layer weight makes every embedding the same, so grad_x r == 0
        enc = small_encoder(seed=1)
        last = f"layer{ad.mlp_layer_count(enc.head) - 1}.w"
        enc.head[last] = np.zeros_like(enc.head[last])
        expert, agent, ref = self.probe(enc, 2, n=4)
        assert gradient_penalty(enc, expert, agent, ref, np.random.default_rng(3)) == 1.0

    def test_empty_batch_rejected(self):
        enc = small_encoder()
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="non-empty"):
            gradient_penalty(enc, np.zeros((0, 3)), np.ones((2, 3)), np.ones(4) / 2.0, rng)


def separable_batch(rng, n=24):
    expert = rng.normal(loc=(2.5, 2.5, 0.0), scale=0.3, size=(n, 3))
    agent = rng.normal(loc=(-2.5, -2.5, 0.0), scale=0.3, size=(n, 3))
    return ContrastiveBatch(expert, agent)


class TestEncoderUpdate:
    def test_training_on_separable_data(self):
        rng = np.random.default_rng(20)
        enc = small_encoder(seed=21, hidden=16, embed=6)
        batch = separable_batch(rng)
        state = ad.AdamState.for_params(enc.head, lr=1e-3)
        initial_loss = infonce_loss(enc, batch)
        initial_gap = al_gap(enc, batch.expert_inputs, batch.agent_inputs)
        losses = []
        for _ in range(200):
            loss, penalty = encoder_update(enc, batch, state, rng)
            losses.append(loss)
            assert np.isfinite(penalty)
        assert losses[-1] < initial_loss
        emb_e = enc.embed(batch.expert_inputs)
        emb_a = enc.embed(batch.agent_inputs)
        ee = (emb_e @ emb_e.T)[np.triu_indices(len(emb_e), k=1)].mean()
        ea = (emb_e @ emb_a.T).mean()
        assert ee > ea
        assert al_gap(enc, batch.expert_inputs, batch.agent_inputs) > initial_gap
        assert enc.norm_violations == 0

    def test_update_loss_gradient_matches_finite_differences(self):
        # end-to-end: d(loss + 10*penalty)/d(head params) against central FD,
        # standalone and on a shared trunk
        for enc in (small_encoder(seed=23, hidden=5, embed=3),
                    trunk_encoder(seed=24, hidden=5, embed=3, trunk_width=5)):
            rng = np.random.default_rng(22)
            batch = separable_batch(rng, n=4)
            reference = make_expert_reference(enc, batch.expert_inputs, mode="mean")
            x_hat = interpolate_pairs(batch.expert_inputs, batch.agent_inputs, rng)
            names = enc.head.names()

            def build(tape, leaves):
                nodes = dict(zip(names, leaves))
                e = enc.embed_graph(tape, tape.constant(batch.expert_inputs), nodes)
                a = enc.embed_graph(tape, tape.constant(batch.agent_inputs), nodes)
                loss = contrastive_loss_graph(e, a, enc.temperature)
                pen = penalty_graph(tape, enc, nodes, x_hat, reference)
                return ad.add(loss, ad.scale(pen, 10.0))

            arrays = [enc.head[n].copy() for n in names]
            err = check_gradients(build, arrays, h=1e-6, tol=1e-6)
            assert err < 1e-6


class TestAlGap:
    def test_identical_batches_give_zero(self):
        enc = small_encoder(seed=24)
        x = np.random.default_rng(25).uniform(-1, 1, size=(8, 3))
        assert al_gap(enc, x, x) == pytest.approx(0.0, abs=1e-12)

    def test_bounded(self):
        enc = small_encoder(seed=26)
        rng = np.random.default_rng(27)
        for _ in range(20):
            g = al_gap(enc, rng.uniform(-3, 3, size=(6, 3)), rng.uniform(-3, 3, size=(6, 3)))
            assert -2.0 <= g <= 2.0

    def test_gap_invariant_under_rotation(self):
        # rotating all embeddings preserves every inner product the gap uses
        rng = np.random.default_rng(28)
        e = rng.normal(size=(6, 4))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        a = rng.normal(size=(5, 4))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        q = random_rotation(rng, 4)

        def gap_from(e_emb, a_emb):
            mean = e_emb.mean(axis=0)
            ref = mean / np.linalg.norm(mean)
            return (e_emb @ ref).mean() - (a_emb @ ref).mean()

        assert gap_from(e @ q, a @ q) == pytest.approx(gap_from(e, a), abs=1e-12)
