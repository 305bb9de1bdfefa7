import copy
import gc
import re
import warnings

import numpy as np
import pytest

from pcil import autodiff as ad
from pcil import contrastive
from pcil.contrastive import (
    ContrastiveBatch,
    Encoder,
    al_gap,
    contrastive_loss_graph,
    encoder_update,
    make_expert_reference,
    penalty_graph,
    similarity_reward,
)
from pcil.replay import ReplayBuffer, Transition
from gradcheck import check_gradients


#: Rows per ``embed`` block at the default hidden width of 256
EMBED_BLOCK = ad._INFER_BLOCK_BYTES // (8 * 256)


def small_encoder(seed=0, state_dim=3, hidden=8, embed=4):
    return Encoder(
        np.random.default_rng(seed),
        state_dim=state_dim,
        hidden_dim=hidden,
        embed_dim=embed,
    )


def reward_input_gradients(encoder, x_hat, reference):
    """Reference oracle: per-row gradient of the similarity reward w.r.t. its
    input, by one reverse pass down to the inputs."""
    tape = ad.Tape()
    x = tape.leaf(np.asarray(x_hat, dtype=np.float64))
    emb = encoder.embed_graph(tape, x)
    tape.backward(ad.tsum(ad.matmul(emb, tape.constant(np.asarray(reference)[:, None]))))
    return x.grad


def interpolated(expert, agent, rng):
    """The ``x_hat`` rows ``encoder_update`` draws from ``rng``: random convex
    combinations of paired expert and agent rows."""
    n = min(len(expert), len(agent))
    u = rng.uniform(0.0, 1.0, size=(n, 1))
    return u * expert[:n] + (1.0 - u) * agent[:n]


def penalty_value(encoder, expert, agent, reference, rng):
    """The gradient penalty on freshly interpolated inputs, value only."""
    x_hat = interpolated(expert, agent, rng)
    tape = ad.Tape()
    forward = encoder._forward(tape.constant(x_hat), encoder.head.watch(tape), {})
    return float(penalty_graph(forward, reference, 0, {}).data)


def random_rotation(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q


def loss_value(expert_emb, agent_emb):
    tape = ad.Tape()
    emb = tape.constant(np.concatenate([expert_emb, agent_emb]))
    return float(contrastive_loss_graph(emb, len(expert_emb)).data)


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

    def test_a_pushed_nan_is_named_by_its_sampled_row(self):
        # push takes a NaN vector unchecked; relabelling the sampled rows names
        # the first row that holds it
        buf = ReplayBuffer(capacity=16, seed=0)
        for i in range(16):
            next_state = [np.nan, 0.4, 0.0] if i == 7 else [0.1 * i, 0.4, 0.0]
            buf.push(Transition(np.zeros(3), np.zeros(1), np.array(next_state), 0.0, False))
        batch = buf.sample_nstep(32, n=3, gamma=0.9)
        bad = np.flatnonzero(np.isnan(batch.step_next_states).any(axis=1))
        assert len(bad)  # the seed samples the NaN slot
        enc = small_encoder()
        ref = make_expert_reference(enc, np.ones((2, 3)))
        with pytest.raises(ad.NonFiniteError,
                           match=f"^encoder inputs row {bad[0]} holds NaN or Inf$"):
            similarity_reward(enc, batch.step_next_states, ref)

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
        # one encoder over row counts that grow, shrink and repeat, so embed runs
        # on reused buffers; no later call may write into an earlier result
        enc = small_encoder(seed=5)
        rng = np.random.default_rng(6)
        results = []
        for rows in (7, 20, 3, 20, 1, 7):
            x = rng.uniform(-2, 2, size=(rows, 3))
            tape = ad.Tape()
            graph = enc.embed_graph(tape, tape.constant(x))
            emb = enc.embed(x)
            np.testing.assert_array_equal(graph.data, emb)
            results.append((emb, emb.copy()))
        for emb, copy in results:
            np.testing.assert_array_equal(emb, copy)

    def test_embed_reuses_two_buffers(self):
        enc = small_encoder(seed=7)
        rng = np.random.default_rng(8)
        enc.embed(rng.uniform(-2, 2, size=(20, 3)))
        buffers = dict(enc._workspace)
        assert buffers.keys() == {0, 1}  # never the update's (layer, role) keys
        for rows in (7, 13, 20, 1, 20):  # grow, shrink and repeat up to the first count
            enc.embed(rng.uniform(-2, 2, size=(rows, 3)))
            assert enc._workspace.keys() == buffers.keys()
            assert all(enc._workspace[k] is buf for k, buf in buffers.items())
        enc.embed(rng.uniform(-2, 2, size=(21, 3)))  # more rows grow both, once
        grown = dict(enc._workspace)
        assert grown.keys() == buffers.keys()
        assert all(grown[k] is not buf for k, buf in buffers.items())
        enc.embed(rng.uniform(-2, 2, size=(4, 3)))
        assert all(enc._workspace[k] is buf for k, buf in grown.items())

    @pytest.mark.parametrize("rows", [
        4 * EMBED_BLOCK - 1, 4 * EMBED_BLOCK, 4 * EMBED_BLOCK + 1, 8 * EMBED_BLOCK + 1, 5000])
    def test_embed_walks_row_blocks(self, rows):
        block = EMBED_BLOCK
        assert block == 256
        enc = Encoder(np.random.default_rng(9), state_dim=3)  # hidden width 256
        x = np.random.default_rng(rows).uniform(-2, 2, size=(rows, 3))
        emb = enc.embed(x)
        kept = emb.copy()
        blocks = np.concatenate([enc.embed(x[i:i + block]) for i in range(0, rows, block)])
        np.testing.assert_array_equal(emb, blocks)
        tape = ad.Tape()
        np.testing.assert_allclose(emb, enc.embed_graph(tape, tape.constant(x)).data,
                                   rtol=0.0, atol=1e-12)
        enc.embed(x[::-1])
        np.testing.assert_array_equal(emb, kept)
        assert sum(buf.nbytes for buf in enc._workspace.values()) <= 2 * ad._INFER_BLOCK_BYTES
        assert enc.norm_violations == 0

    def test_embed_output_whose_square_overflows_is_unit(self):
        enc = small_encoder(seed=9)
        last_w = list(ad.mlp_layers(enc.head))[-1][0]
        last_w *= 1e199
        x = np.random.default_rng(10).uniform(-2, 2, size=(6, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emb = enc.embed(x)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, rtol=0.0, atol=1e-15)
        assert enc.norm_violations == 0

    def test_finite_row_whose_layer_products_overflow_raises_the_typed_error(self):
        enc = Encoder(np.random.default_rng(0), 3)
        row = np.array([[1.7e308, -1.7e308, 1.7e308]])
        ref = make_expert_reference(enc, np.ones((2, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NonFiniteError, match="'mlp_infer' produced non-finite values"):
                enc.embed(row)
            with pytest.raises(ad.NonFiniteError, match="'mlp_infer' produced non-finite values"):
                similarity_reward(enc, np.concatenate([np.ones((3, 3)), row]), ref)
            tape = ad.Tape()
            with pytest.raises(ad.NonFiniteError, match="'matmul' produced non-finite values"):
                enc.embed_graph(tape, tape.constant(row))
        assert enc.norm_violations == 0

    def test_hidden_overflow_the_relu_would_hide_raises_the_typed_error(self):
        # every first-layer pre-activation of this row is -Inf: past the ReLU it
        # would be 0, and the output the later layers' biases, finite and unit
        enc = small_encoder(seed=0)
        next(ad.mlp_layers(enc.head))[0][:] = -1.0
        row = np.array([[1e308] * 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NonFiniteError, match="'mlp_infer' produced non-finite values"):
                enc.embed(row)
            tape = ad.Tape()
            with pytest.raises(ad.NonFiniteError, match="'matmul' produced non-finite values"):
                enc.embed_graph(tape, tape.constant(row))
        assert enc.norm_violations == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_counts_as_a_norm_violation(self, bad):
        enc = small_encoder()
        enc._check_norms(np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert enc.norm_violations == 0 and enc.max_norm_error == 0.0
        enc._check_norms(np.array([[1.0, 0.0, 0.0, 0.0], [bad, 0.0, 0.0, 0.0]]))
        assert enc.norm_violations == 1
        np.testing.assert_equal(enc.max_norm_error, bad)  # NaN equals NaN here
        enc._check_norms(np.array([[0.0, 1.0, 0.0, 0.0]]))  # a later unit row keeps the record
        assert enc.norm_violations == 1
        np.testing.assert_equal(enc.max_norm_error, bad)  # NaN equals NaN here

    def test_zero_rows_give_an_empty_embedding(self):
        enc = small_encoder()
        emb = enc.embed(np.zeros((0, 3)))
        assert emb.shape == (0, enc.embed_dim)
        assert enc.norm_violations == 0 and enc.max_norm_error == 0.0
        ref = make_expert_reference(enc, np.ones((2, 3)))
        assert similarity_reward(enc, np.zeros((0, 3)), ref).shape == (0,)

    def test_wrong_width_rejected(self):
        enc = small_encoder()
        with pytest.raises(ValueError, match="width 5, the encoder takes width 3"):
            enc.embed(np.zeros((2, 5)))

    @pytest.mark.parametrize("widths", [
        pytest.param({"state_dim": True}, id="state_dim_bool"),
        pytest.param({"state_dim": 3, "hidden_dim": 8.0}, id="hidden_dim_float"),
        pytest.param({"state_dim": 3, "embed_dim": True}, id="embed_dim_bool"),
    ])
    def test_width_that_is_no_integer_rejected(self, widths):
        with pytest.raises(ValueError, match="every MLP width must be an integer of at least 1"):
            Encoder(np.random.default_rng(0), **widths)


class TestInfoNCE:
    def test_identical_embeddings_give_ln2(self):
        v = np.array([[1.0, 0.0], [1.0, 0.0]])
        a = np.array([[1.0, 0.0]])
        assert loss_value(v, a) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_aligned_positive_orthogonal_negative(self):
        expert = np.array([[1.0, 0.0], [1.0, 0.0]])
        agent = np.array([[0.0, 1.0]])
        expected = np.log(1.0 + np.exp(-1.0 / 0.07))  # the temperature is 0.07
        assert loss_value(expert, agent) == pytest.approx(expected, rel=1e-6)
        assert expected == pytest.approx(6.2e-7, rel=0.02)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            e = rng.normal(size=(6, 5))
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            a = rng.normal(size=(4, 5))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            q = random_rotation(rng, 5)
            base = loss_value(e, a)
            rotated = loss_value(e @ q, a @ q)
            assert rotated == pytest.approx(base, abs=1e-9)

    def test_fewer_than_two_expert_rejected(self):
        with pytest.raises(ValueError, match="at least 2 expert items and 1 agent item, got 1 and 1"):
            loss_value(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))

    def test_at_least_one_agent_required(self):
        with pytest.raises(ValueError, match="at least 2 expert items and 1 agent item, got 2 and 0"):
            loss_value(np.ones((2, 2)), np.ones((0, 2)))

    @pytest.mark.parametrize("n_expert", [2.0, np.float64(3.0), True, "2"])
    def test_expert_count_that_is_no_integer_rejected(self, n_expert):
        # 2.0 and "2" met a bare TypeError from the slicing, True counted as 1
        tape = ad.Tape()
        with pytest.raises(ValueError, match=re.escape(
                f"n_expert must be an integer, got {n_expert!r}")):
            contrastive_loss_graph(tape.constant(np.ones((5, 2))), n_expert)
        assert tape.num_ops == 0  # before any op

    def test_anchor_loss_bounds(self):
        # with similarities in [-1, 1], loss lies in [0, 2/tau + ln(candidates)]
        rng = np.random.default_rng(3)
        tau = contrastive.TEMPERATURE
        for _ in range(50):
            ne, na = int(rng.integers(2, 8)), int(rng.integers(1, 8))
            e = rng.normal(size=(ne, 6))
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            a = rng.normal(size=(na, 6))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            val = loss_value(e, a)
            assert 0.0 <= val <= 2.0 / tau + np.log(ne - 1 + na) + 1e-9


class _IdentityEmbed:
    """Stub whose 'embedding' is the raw input: reward gradient == reference."""

    def embed(self, inputs):
        return np.atleast_2d(inputs)


class TestSimilarityReward:
    def test_self_similarity_is_one(self):
        enc = small_encoder(seed=11)
        x = np.array([[0.5, -1.0, 2.0]])
        ref = make_expert_reference(enc, x)
        assert similarity_reward(enc, x, ref)[0] == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_and_antipodal(self):
        stub = _IdentityEmbed()
        ref = np.array([1.0, 0.0])
        assert similarity_reward(stub, np.array([[0.0, 1.0]]), ref)[0] == pytest.approx(0.0)
        assert similarity_reward(stub, np.array([[-1.0, 0.0]]), ref)[0] == pytest.approx(-1.0)

    def test_empty_expert_set_rejected(self):
        enc = small_encoder()
        with pytest.raises(ValueError, match="at least one"):
            make_expert_reference(enc, np.zeros((0, 3)))

    @pytest.mark.parametrize("shape", [(3,), (5,), (4, 1), (1, 4), ()])
    def test_reference_of_the_wrong_shape_rejected(self, shape):
        enc = small_encoder()  # embeddings of width 4
        with pytest.raises(ValueError, match=rf"reference has shape {re.escape(str(shape))}, "
                                             "the embeddings have width 4"):
            similarity_reward(enc, np.ones((2, 3)), np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reference_rejected(self, bad):
        enc = small_encoder()
        ref = make_expert_reference(enc, np.ones((2, 3)))
        ref[1] = bad
        with pytest.raises(ad.NonFiniteError, match="reference"):
            similarity_reward(enc, np.ones((2, 3)), ref)

    def test_only_mean_mode_accepted(self):
        with pytest.raises(ValueError, match="unknown reference mode 'sample'"):
            make_expert_reference(small_encoder(), np.ones((2, 3)), mode="sample")

    def test_rewards_bounded(self):
        enc = small_encoder(seed=12)
        rng = np.random.default_rng(13)
        expert = rng.uniform(-3, 3, size=(16, 3))
        ref = make_expert_reference(enc, expert)
        r = similarity_reward(enc, rng.uniform(-5, 5, size=(64, 3)), ref)
        assert np.all(r >= -1.0 - 1e-9) and np.all(r <= 1.0 + 1e-9)

    def test_mean_mode_is_renormalized(self):
        enc = small_encoder(seed=14)
        rng = np.random.default_rng(15)
        ref = make_expert_reference(enc, rng.uniform(-1, 1, size=(8, 3)))
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

    def test_input_gradient_rows_match_oracle(self):
        for seed in range(5):
            enc = small_encoder(seed=seed)
            expert, agent, ref = self.probe(enc, 100 + seed)
            x_hat = interpolated(expert, agent, np.random.default_rng(seed))
            oracle = reward_input_gradients(enc, x_hat, ref)
            assert np.max(np.linalg.norm(oracle, axis=1)) > 1e-3  # not a degenerate probe
            expected = float(np.mean((np.linalg.norm(oracle, axis=1) - 1.0) ** 2))
            # alone, and as the last rows of a forward that stacks other rows first
            for start, pre in ((0, np.zeros((0, 3))), (len(expert), expert)):
                tape = ad.Tape()
                forward = enc._forward(tape.constant(np.concatenate([pre, x_hat])),
                                       enc.head.watch(tape), {})
                rows = contrastive._input_gradient_graph(forward, ref, start, {}).data
                np.testing.assert_allclose(rows, oracle, rtol=0.0, atol=1e-12)
                value = float(penalty_graph(forward, ref, start, {}).data)
                assert value == pytest.approx(expected, rel=0.0, abs=1e-12)

    def test_value_matches_oracle(self):
        enc = small_encoder(seed=16)
        expert, agent, ref = self.probe(enc, 17)
        val = penalty_value(enc, expert, agent, ref, np.random.default_rng(5))
        x_hat = interpolated(expert, agent, np.random.default_rng(5))
        norms = np.linalg.norm(reward_input_gradients(enc, x_hat, ref), axis=1)
        assert val == pytest.approx(np.mean((norms - 1.0) ** 2), rel=0.0, abs=1e-12)

    def test_constant_reward_gives_one(self):
        # a zero last-layer weight makes every embedding the same, so grad_x r == 0
        enc = small_encoder(seed=1)
        last_w = list(ad.mlp_layers(enc.head))[-1][0]
        last_w[...] = 0.0
        expert, agent, ref = self.probe(enc, 2, n=4)
        assert penalty_value(enc, expert, agent, ref, np.random.default_rng(3)) == 1.0


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
        initial_gap = al_gap(enc, batch.expert_inputs, batch.agent_inputs)
        assert initial_gap == al_gap_composed(enc, batch.expert_inputs, batch.agent_inputs)
        losses = []
        for _ in range(200):
            loss, penalty = encoder_update(enc, batch, state, rng)
            losses.append(loss)
            assert np.isfinite(penalty)
        assert losses[-1] < losses[0]  # losses[0] is the loss before the first step
        emb_e = enc.embed(batch.expert_inputs)
        emb_a = enc.embed(batch.agent_inputs)
        ee = (emb_e @ emb_e.T)[np.triu_indices(len(emb_e), k=1)].mean()
        ea = (emb_e @ emb_a.T).mean()
        assert ee > ea
        final_gap = al_gap(enc, batch.expert_inputs, batch.agent_inputs)
        assert final_gap > initial_gap
        assert final_gap == al_gap_composed(enc, batch.expert_inputs, batch.agent_inputs)
        assert enc.norm_violations == 0

    @pytest.mark.parametrize("shape,wrong,message", [
        pytest.param((8, 4), wrong, "width 4, the encoder takes width 3", id=f"wrong_width-{wrong}")
        for wrong in ("expert", "agent")
    ] + [
        pytest.param((8, 3, 1), wrong, "rank 3, the encoder takes rows of width 3", id=f"rank_3-{wrong}")
        for wrong in ("expert", "agent")
    ] + [
        pytest.param((0, 3), "expert", "at least 2 expert items and 1 agent item, got 0 and 8",
                     id="empty-expert"),
        pytest.param((0, 3), "agent", "at least 2 expert items and 1 agent item, got 8 and 0",
                     id="empty-agent"),
        pytest.param((1, 3), "expert", "at least 2 expert items and 1 agent item, got 1 and 8",
                     id="one_row-expert"),
    ])
    def test_update_rejects_a_batch_it_cannot_use_and_changes_nothing(self, shape, wrong, message):
        # InfoNCE's row counts too, before x_hat is drawn from rng or an empty
        # mean reaches the reference
        enc = small_encoder(seed=25)
        state = ad.AdamState.for_params(enc.head, lr=1e-3)
        rng = np.random.default_rng(26)
        rows = {"expert": np.ones((8, 3)), "agent": np.zeros((8, 3))}
        rows[wrong] = np.ones(shape)
        before = ({name: enc.head[name].copy() for name in enc.head},
                  {name: m.copy() for name, m in state.first_moment.items()},
                  rng.bit_generator.state, dict(enc._workspace))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                encoder_update(enc, ContrastiveBatch(rows["expert"], rows["agent"]), state, rng)
        assert (state.step_count, state.skipped) == (0, 0)
        np.testing.assert_equal(({name: enc.head[name] for name in enc.head}, state.first_moment,
                                 rng.bit_generator.state, enc._workspace), before)

    def test_update_loss_gradient_matches_finite_differences(self, monkeypatch):
        # end-to-end: d(loss + 10*penalty)/d(head params) of the graph the update
        # builds, against central FD with the reference held fixed, as the
        # update holds it
        enc = small_encoder(seed=23, hidden=5, embed=3)
        rng = np.random.default_rng(22)
        batch = separable_batch(rng, n=4)
        reference = make_expert_reference(enc, batch.expert_inputs)
        monkeypatch.setattr(contrastive, "_mean_direction", lambda emb: reference)
        x_hat = interpolated(batch.expert_inputs, batch.agent_inputs, rng)
        names = enc.head.names()

        def build(tape, leaves):
            return contrastive._update_graph(tape, enc, dict(zip(names, leaves)),
                                             batch.expert_inputs, batch.agent_inputs, x_hat)[2]

        arrays = [enc.head[n].copy() for n in names]
        err = check_gradients(build, arrays, h=1e-6, tol=1e-6)
        assert err < 1e-6

    def test_stacked_update_matches_three_forward_oracle(self):
        enc = small_encoder(seed=30)
        rng = np.random.default_rng(31)
        batch = ContrastiveBatch(rng.uniform(-2, 2, size=(6, 3)), rng.uniform(-2, 2, size=(6, 3)))
        x_hat = interpolated(batch.expert_inputs, batch.agent_inputs, np.random.default_rng(32))
        reference = make_expert_reference(enc, batch.expert_inputs)
        oracle = three_forward_update(enc, batch, x_hat, reference)

        tape = ad.Tape()
        head_nodes = enc.head.watch(tape)
        loss, penalty, total = contrastive._update_graph(
            tape, enc, head_nodes, batch.expert_inputs, batch.agent_inputs, x_hat)
        tape.backward(total)
        assert float(loss.data) == pytest.approx(oracle[0], rel=1e-12, abs=0.0)
        assert float(penalty.data) == pytest.approx(oracle[1], rel=1e-12, abs=0.0)
        for name, node in head_nodes.items():
            expected = oracle[2][name]
            assert np.max(np.abs(node.grad - expected)) <= 1e-12 * np.max(np.abs(expected)), name

    def test_reference_from_forward_matches_mean_mode(self, monkeypatch):
        enc = small_encoder(seed=33, hidden=16, embed=6)
        rng = np.random.default_rng(34)
        expert, agent = rng.uniform(-2, 2, size=(10, 3)), rng.uniform(-2, 2, size=(10, 3))
        x_hat = interpolated(expert, agent, rng)
        references = []
        mean_direction = contrastive._mean_direction

        def recorded(emb):
            references.append(mean_direction(emb))
            return references[-1]

        monkeypatch.setattr(contrastive, "_mean_direction", recorded)
        tape = ad.Tape()
        contrastive._update_graph(tape, enc, enc.head.watch(tape), expert, agent, x_hat)
        (from_forward,) = references
        np.testing.assert_allclose(
            from_forward, make_expert_reference(enc, expert), rtol=0.0, atol=1e-15)

    def test_update_takes_the_oracle_steps(self):
        # the update's own reference, x_hat and Adam step against the oracle, over
        # consecutive updates that reuse the workspace, one with other row counts;
        # in the second run embed and similarity_reward run between the updates
        for relabel in (False, True):
            enc, twin = (small_encoder(seed=37, hidden=16, embed=6) for _ in range(2))
            state = ad.AdamState.for_params(enc.head, lr=1e-3)
            twin_state = ad.AdamState.for_params(twin.head, lr=1e-3)
            rng, twin_rng = np.random.default_rng(39), np.random.default_rng(39)
            for step, n in enumerate((6, 6, 5, 6)):
                batch = separable_batch(np.random.default_rng(40 + step), n=n)
                x_hat = interpolated(batch.expert_inputs, batch.agent_inputs, twin_rng)
                reference = make_expert_reference(twin, batch.expert_inputs)
                oracle_loss, oracle_penalty, grads = three_forward_update(
                    twin, batch, x_hat, reference)
                ad.adam_step(twin.head, grads, twin_state)

                loss, penalty = encoder_update(enc, batch, state, rng)
                assert loss == pytest.approx(oracle_loss, rel=1e-12, abs=0.0)
                assert penalty == pytest.approx(oracle_penalty, rel=1e-12, abs=0.0)
                for name in twin.head:
                    np.testing.assert_allclose(
                        enc.head[name], twin.head[name], rtol=0.0, atol=1e-12)
                if relabel:
                    states = np.random.default_rng(60 + step).uniform(-3, 3, size=(9 + 4 * step, 3))
                    enc.embed(states[:3])
                    ref = make_expert_reference(enc, batch.expert_inputs)
                    assert np.all(np.abs(similarity_reward(enc, states, ref)) <= 1.0 + 1e-12)

    def test_update_reuses_its_workspace(self):
        enc = small_encoder(seed=41)
        state = ad.AdamState.for_params(enc.head, lr=1e-3)
        rng = np.random.default_rng(42)
        layers = list(ad.mlp_layers(enc.head))
        for step, n in enumerate((6, 6, 5)):  # the same rows again, then fewer
            batch = separable_batch(rng, n=n)
            # the x_hat the update draws next
            x_hat = interpolated(batch.expert_inputs, batch.agent_inputs, copy.deepcopy(rng))
            pre, h = [], x_hat  # the fresh forward's layers before their ReLUs, in numpy
            for w, b, _ in layers[:-1]:
                pre.append(h @ w + b)
                h = np.maximum(pre[-1], 0.0)
            encoder_update(enc, batch, state, rng)
            if step == 0:
                arrays, adam = dict(enc._workspace), dict(state.workspace)
                # per layer: its output and its penalty product; per ReLU, on the
                # penalty's rows: its mask and its masked input. No forward mask.
                assert sorted(role for _, role in arrays) == sorted(
                    ["out", "penalty_matmul"] * len(layers)
                    + ["penalty_mask", "penalty_masked"] * (len(layers) - 1))
                assert len(adam) == 2
            assert enc._workspace.keys() == arrays.keys()
            assert all(enc._workspace[key] is arr for key, arr in arrays.items())
            assert all(state.workspace[key] is arr for key, arr in adam.items())
            # the masks the penalty chain read are the fresh forward's x > 0
            for i, p in enumerate(pre):
                mask = arrays[(i, "penalty_mask")][:p.size].reshape(p.shape)
                np.testing.assert_array_equal(mask, p > 0.0)

    def test_update_and_embed_hold_a_bounded_working_set(self):
        # width 256: the forward's outputs on every row, the penalty chain on
        # its rows, and two inference buffers, whatever embed's row count
        enc = Encoder(np.random.default_rng(47), state_dim=3)
        rng = np.random.default_rng(48)
        batch = ContrastiveBatch(rng.uniform(-2, 2, size=(128, 3)), rng.uniform(-2, 2, size=(128, 3)))
        encoder_update(enc, batch, ad.AdamState.for_params(enc.head, lr=1e-3), rng)
        enc.embed(rng.uniform(-2, 2, size=(5000, 3)))
        assert {0, 1} < enc._workspace.keys()  # embed's buffers beside the update's
        layers = list(ad.mlp_layers(enc.head))
        outputs = 384 * sum(w.shape[1] for w, _, _ in layers) * 8
        # on the 128 penalty rows: a mask and a masked input per ReLU, a product per layer
        chain = 128 * sum(2 * w.shape[1] * relu + w.shape[0] for w, _, relu in layers) * 8
        held = sum(buf.nbytes for buf in enc._workspace.values())
        assert held <= outputs + chain + 2 * ad._INFER_BLOCK_BYTES

    def test_workspace_update_matches_fresh_update(self):
        # bit for bit: the update's graph on the encoder's workspace, with an
        # embed while the graph is live, against the same graph built on new
        # arrays
        enc = small_encoder(seed=45, hidden=16, embed=6)
        rng = np.random.default_rng(46)
        for n in (6, 6, 4, 7):
            batch = separable_batch(rng, n=n)
            x_hat = interpolated(batch.expert_inputs, batch.agent_inputs, rng)
            reference = make_expert_reference(enc, batch.expert_inputs)
            fresh = update_gradients(enc, batch, x_hat, reference, {})
            reused = update_gradients(enc, batch, x_hat, reference, enc._workspace,
                                      between=lambda: enc.embed(rng.uniform(-2, 2, size=(11, 3))))
            for name in enc.head:
                np.testing.assert_array_equal(reused[name], fresh[name])

    def test_workspace_forward_matches_fresh_forward(self):
        enc = small_encoder(seed=43)
        rng = np.random.default_rng(44)
        workspace = {}
        for rows in (7, 7, 4, 9):  # reuse, fewer rows, then more
            x = rng.uniform(-2, 2, size=(rows, 3))
            fresh = ad.Tape()
            emb, out, _ = enc._forward(fresh.constant(x), enc.head.watch(fresh), {})
            tape = ad.Tape()
            emb_w, out_w, _ = enc._forward(tape.constant(x), enc.head.watch(tape), workspace)
            enc.embed(rng.uniform(-2, 2, size=(rows + 5, 3)))  # may run while the graph is live
            np.testing.assert_array_equal(emb_w.data, emb.data)
            np.testing.assert_array_equal(out_w.data, out.data)

    def test_update_leaves_no_tape_for_the_cycle_collector(self):
        enc = small_encoder(seed=35, hidden=16, embed=6)
        rng = np.random.default_rng(36)
        batch = separable_batch(rng, n=8)
        state = ad.AdamState.for_params(enc.head, lr=1e-3)
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                encoder_update(enc, batch, state, rng)
            alive = sum(isinstance(obj, ad.Tape) for obj in gc.get_objects())
        finally:
            gc.enable()
        assert alive == 0


def update_gradients(encoder, batch, x_hat, reference, workspace, between=lambda: None):
    """Head gradients of the update objective from one stacked forward, with
    its forward and penalty on ``workspace`` (a new dict: new arrays); ``between()``
    runs after the graph is built and before the backward."""
    tape = ad.Tape()
    head_nodes = encoder.head.watch(tape)
    n_e, n_a = len(batch.expert_inputs), len(batch.agent_inputs)
    stacked = np.concatenate([batch.expert_inputs, batch.agent_inputs, x_hat])
    forward = encoder._forward(tape.constant(stacked), head_nodes, workspace)
    loss = contrastive_loss_graph(ad.row_slice(forward[0], 0, n_e + n_a), n_e)
    penalty = penalty_graph(forward, reference, n_e + n_a, workspace)
    between()
    tape.backward(ad.add(loss, ad.mul(penalty, 10.0)))
    return {name: node.grad.copy() for name, node in head_nodes.items()}


def three_forward_update(encoder, batch, x_hat, reference, gp_weight=10.0):
    """Reference oracle: the update objective with separate tape forwards over the
    expert rows, the agent rows and ``x_hat``. Returns the loss, the penalty and
    the head gradients of ``loss + gp_weight * penalty``."""
    tape = ad.Tape()
    head_nodes = encoder.head.watch(tape)
    emb_e = encoder._forward(tape.constant(batch.expert_inputs), head_nodes, {})[0]
    emb_a = encoder._forward(tape.constant(batch.agent_inputs), head_nodes, {})[0]
    loss = contrastive_loss_graph(ad.concat([emb_e, emb_a]), len(batch.expert_inputs))
    forward = encoder._forward(tape.constant(x_hat), head_nodes, {})
    penalty = penalty_graph(forward, reference, 0, {})
    tape.backward(ad.add(loss, ad.mul(penalty, gp_weight)))
    grads = {name: node.grad for name, node in head_nodes.items()}
    return float(loss.data), float(penalty.data), grads


def al_gap_composed(encoder, expert, agent):
    """``al_gap`` as the composition of the public reward calls."""
    ref = make_expert_reference(encoder, expert)
    return float(similarity_reward(encoder, expert, ref).mean()
                 - similarity_reward(encoder, agent, ref).mean())


class TestAlGap:
    def test_identical_batches_give_zero(self):
        enc = small_encoder(seed=24)
        x = np.random.default_rng(25).uniform(-1, 1, size=(8, 3))
        assert al_gap(enc, x, x) == pytest.approx(0.0, abs=1e-12)
        assert al_gap(enc, x, x) == al_gap_composed(enc, x, x)

    def test_expert_rows_embedded_once(self):
        enc = small_encoder(seed=29)
        rng = np.random.default_rng(30)
        expert, agent = rng.uniform(-1, 1, size=(8, 3)), rng.uniform(-1, 1, size=(5, 3))
        embedded = []
        embed = enc.embed
        enc.embed = lambda x: embedded.append(len(x)) or embed(x)
        gap = al_gap(enc, expert, agent)
        assert embedded == [8, 5]
        del enc.embed
        assert gap == al_gap_composed(enc, expert, agent)

    def test_empty_batch_rejected(self):
        enc = small_encoder()
        for expert, agent in ((np.zeros((0, 3)), np.ones((2, 3))), (np.ones((2, 3)), np.zeros((0, 3)))):
            with pytest.raises(ValueError, match="non-empty expert and agent"):
                al_gap(enc, expert, agent)

    def test_bounded(self):
        enc = small_encoder(seed=26)
        rng = np.random.default_rng(27)
        for _ in range(20):
            expert, agent = rng.uniform(-3, 3, size=(6, 3)), rng.uniform(-3, 3, size=(6, 3))
            g = al_gap(enc, expert, agent)
            assert -2.0 <= g <= 2.0
            assert g == al_gap_composed(enc, expert, agent)

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
