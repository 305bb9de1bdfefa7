import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcil
from pcil import envs, replay
from pcil.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from pcil.replay import (
    DemoFormatError,
    NStepBatch,
    ReplayBuffer,
    Transition,
    load_demos,
    save_demos,
)


def make_transition(i, done=False, dim=3):
    return Transition(
        state=np.full(dim, float(i)),
        action=np.array([float(i) / 10.0]),
        next_state=np.full(dim, float(i) + 0.5),
        reward_env=min(1.0, abs(i) / 100.0),
        done=done,
    )


def fill_episodes(buffer, episode_lengths, start=0):
    i = start
    for length in episode_lengths:
        for k in range(length):
            buffer.push(make_transition(i, done=(k == length - 1)))
            i += 1
    return i


def done_ids(episode_lengths, start=0):
    """The ids ``fill_episodes`` gives its done transitions."""
    return set(start + np.cumsum(episode_lengths) - 1)


class LoopReplay:
    """Reference ring: a list of transitions and a plain loop per window.

    It draws window starts from the same generator as ``ReplayBuffer`` at the
    same seed, so both sample the same windows.
    """

    def __init__(self, capacity, seed=0):
        self.capacity = capacity
        self.items = []
        self.episode_uid = []
        self.cursor = 0
        self.current_episode = 0
        self.rng = np.random.default_rng(seed)

    def push(self, transition):
        uid = self.current_episode
        if transition.done:
            self.current_episode += 1
        if len(self.items) < self.capacity:
            self.items.append(transition)
            self.episode_uid.append(uid)
        else:
            self.items[self.cursor] = transition
            self.episode_uid[self.cursor] = uid
            self.cursor = (self.cursor + 1) % self.capacity

    def chronological(self, logical):
        if len(self.items) < self.capacity:
            return logical
        return (self.cursor + logical) % self.capacity

    def sample_nstep(self, batch_size, n, gamma):
        size = len(self.items)
        starts = self.rng.integers(0, size, size=batch_size)
        states, actions, final_next, discounts = [], [], [], []
        step_s, step_a, step_ns, step_r = [], [], [], []
        window_id, step_offset = [], []
        for w, start in enumerate(starts):
            first = self.items[self.chronological(int(start))]
            first_uid = self.episode_uid[self.chronological(int(start))]
            states.append(first.state)
            actions.append(first.action)
            length = 0
            last = first
            for k in range(n):
                logical = int(start) + k
                if logical >= size:
                    break
                idx = self.chronological(logical)
                if self.episode_uid[idx] != first_uid:
                    break
                t = self.items[idx]
                step_s.append(t.state)
                step_a.append(t.action)
                step_ns.append(t.next_state)
                step_r.append(t.reward_env)
                window_id.append(w)
                step_offset.append(k)
                length += 1
                last = t
                if t.done:
                    break
            final_next.append(last.next_state)
            discounts.append(gamma**length)
        return NStepBatch(
            states=np.stack(states),
            actions=np.stack(actions),
            final_next_states=np.stack(final_next),
            discounts=np.array(discounts),
            step_states=np.stack(step_s),
            step_actions=np.stack(step_a),
            step_next_states=np.stack(step_ns),
            step_rewards_env=np.array(step_r),
            window_id=np.array(window_id, dtype=np.intp),
            step_offset=np.array(step_offset, dtype=np.float64),
        )


def assert_batches_equal(got, want):
    for field in (f.name for f in dataclasses.fields(NStepBatch)):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        np.testing.assert_array_equal(a, b, err_msg=field)


def test_push_evicts_oldest_at_capacity():
    buf = ReplayBuffer(capacity=2, seed=0)
    for i in range(3):
        buf.push(make_transition(i))
    assert len(buf) == 2
    kept = set(buf.sample_nstep(64, n=1, gamma=0.9).states[:, 0])
    assert kept == {1.0, 2.0}


def test_push_below_capacity():
    buf = ReplayBuffer(capacity=10, seed=0)
    for i in range(4):
        buf.push(make_transition(i))
    assert len(buf) == 4


def test_sampled_fields_round_trip():
    for done in (False, True):
        buf = ReplayBuffer(capacity=4, seed=1)
        t = make_transition(7, done=done)
        buf.push(t)
        got = buf.sample_nstep(1, n=1, gamma=0.5)
        np.testing.assert_array_equal(got.states[0], t.state)
        np.testing.assert_array_equal(got.actions[0], t.action)
        np.testing.assert_array_equal(got.step_next_states[0], t.next_state)
        np.testing.assert_array_equal(got.final_next_states[0], t.next_state)
        assert got.step_rewards_env[0] == t.reward_env
        # done shows where windows end: a window from t runs on into the next
        # push only if t was not done
        buf.push(make_transition(8))
        batch = buf.sample_nstep(16, n=2, gamma=0.5)
        from_t = batch.states[:, 0] == 7.0
        assert from_t.any()
        lengths = np.bincount(batch.window_id, minlength=len(batch))
        assert np.all(lengths[from_t] == (1 if done else 2))


def test_sample_empty_rejected():
    buf = ReplayBuffer(capacity=4, seed=0)
    with pytest.raises(ValueError, match="need at least"):
        buf.sample_nstep(1, n=1, gamma=0.99)


def test_nstep_n1_is_ordinary_transitions():
    buf = ReplayBuffer(capacity=16, seed=2)
    fill_episodes(buf, [8])
    batch = buf.sample_nstep(5, n=1, gamma=0.99)
    assert len(batch) == 5
    np.testing.assert_array_equal(batch.states, batch.step_states)
    np.testing.assert_array_equal(batch.discounts, np.full(5, 0.99))
    np.testing.assert_array_equal(batch.step_offset, np.zeros(5))


def test_nstep_full_window_discount():
    buf = ReplayBuffer(capacity=64, seed=3)
    fill_episodes(buf, [32])
    batch = buf.sample_nstep(20, n=3, gamma=0.99)
    full = batch.discounts[np.isclose(batch.discounts, 0.99**3)]
    assert np.allclose(full, 0.970299)


def test_nstep_truncates_at_episode_boundary():
    buf = ReplayBuffer(capacity=16, seed=4)
    fill_episodes(buf, [4, 4])
    dones = done_ids([4, 4])
    seen_boundary_start = False
    for _ in range(50):
        batch = buf.sample_nstep(8, n=3, gamma=0.5)
        for w in range(len(batch)):
            mask = batch.window_id == w
            length = int(mask.sum())
            assert batch.discounts[w] == pytest.approx(0.5**length)
            ids = [int(s[0]) for s in batch.step_states[mask]]
            # a done transition may only sit at the window's last position
            assert not dones.intersection(ids[:-1])
            # windows starting at the last step of episode one have length 1
            if ids[0] == 3:
                seen_boundary_start = True
                assert ids == [3]
    assert seen_boundary_start


@settings(max_examples=25, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=6),
    n=st.integers(min_value=1, max_value=4),
)
def test_nstep_windows_stay_inside_episodes(lengths, n):
    buf = ReplayBuffer(capacity=64, seed=5)
    total = fill_episodes(buf, lengths)
    if total < n:
        return
    dones = done_ids(lengths)
    batch = buf.sample_nstep(16, n=n, gamma=0.9)
    for w in range(len(batch)):
        mask = batch.window_id == w
        ids = [int(s[0]) for s in batch.step_states[mask]]
        # consecutive steps, done only at the last position
        assert ids == list(range(ids[0], ids[0] + len(ids)))
        assert not dones.intersection(ids[:-1])
        assert len(ids) <= n


def test_nstep_rewards_fold():
    buf = ReplayBuffer(capacity=8, seed=6)
    fill_episodes(buf, [8])
    batch = buf.sample_nstep(4, n=3, gamma=0.5)
    rewards = np.ones_like(batch.step_offset)
    folded = batch.nstep_rewards(rewards, gamma=0.5)
    for w in range(4):
        length = int((batch.window_id == w).sum())
        assert folded[w] == pytest.approx(sum(0.5**k for k in range(length)))


def test_uniform_sampling_frequency():
    buf = ReplayBuffer(capacity=100, seed=7)
    for i in range(100):
        buf.push(make_transition(i))
    draws = 1_000_000
    counts = np.bincount(buf._sample_indices(draws), minlength=100)
    expected = draws / 100
    sigma = np.sqrt(draws * 0.01 * 0.99)
    assert np.all(np.abs(counts - expected) < 5 * sigma)


def test_ring_wraparound_windows_are_consistent():
    buf = ReplayBuffer(capacity=10, seed=8)
    fill_episodes(buf, [6, 6, 6])  # forces eviction and cursor wrap
    batch = buf.sample_nstep(32, n=3, gamma=0.9)
    for w in range(len(batch)):
        ids = [int(s[0]) for s in batch.step_states[batch.window_id == w]]
        assert ids == list(range(ids[0], ids[0] + len(ids)))


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8),
    capacity=st.integers(min_value=1, max_value=48),
    n=st.integers(min_value=1, max_value=6),
    batch_size=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_nstep_matches_loop_oracle(lengths, capacity, n, batch_size, seed):
    buf, oracle = ReplayBuffer(capacity, seed=seed), LoopReplay(capacity, seed=seed)
    i = 0
    for length in lengths:
        for k in range(length):
            t = make_transition(i, done=(k == length - 1))
            buf.push(t)
            oracle.push(t)
            i += 1
    assert len(buf) == len(oracle.items)
    if len(buf) < n:
        return
    for _ in range(3):
        assert_batches_equal(buf.sample_nstep(batch_size, n, 0.99),
                             oracle.sample_nstep(batch_size, n, 0.99))


def test_nstep_matches_loop_oracle_on_wrapped_env_ring():
    # real point_mass rollouts of 300 steps: the ring fills, then wraps with
    # its oldest slot at 200, 500, 800, 100 and 400 when sampled
    env = envs.make_env("point_mass")
    policy = envs.expert_policy(env)
    buf, oracle = ReplayBuffer(1000, seed=11), LoopReplay(1000, seed=11)
    for seed in range(8):
        for step in envs.run_episode(env, policy, seed)[0]:
            t = Transition(*step)
            buf.push(t)
            oracle.push(t)
        assert_batches_equal(buf.sample_nstep(256, 5, 0.99), oracle.sample_nstep(256, 5, 0.99))


@pytest.mark.parametrize("capacity", [2.5, 0, -3, "8", True])
def test_bad_capacity_rejected(capacity):
    with pytest.raises(ValueError, match="capacity"):
        ReplayBuffer(capacity)


@pytest.mark.parametrize("n", [0, -1, 2.0, True])
def test_bad_window_length_rejected(n):
    buf = ReplayBuffer(capacity=8, seed=0)
    fill_episodes(buf, [6])
    with pytest.raises(ValueError, match="n must be a positive integer"):
        buf.sample_nstep(4, n=n, gamma=0.9)


@pytest.mark.parametrize("batch_size", [0, 2.5, True])
def test_bad_batch_size_rejected(batch_size):
    buf = ReplayBuffer(capacity=8, seed=0)
    fill_episodes(buf, [6])
    with pytest.raises(ValueError, match="batch_size must be a positive integer"):
        buf.sample_nstep(batch_size, n=2, gamma=0.9)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, -0.1, 1.01, "0.9", None, True, False])
def test_bad_gamma_rejected(gamma):
    buf = ReplayBuffer(capacity=8, seed=0)
    fill_episodes(buf, [6])
    with pytest.raises(ValueError, match=re.escape(f"gamma must be a finite value in [0, 1], "
                                                   f"got {gamma!r}")):
        buf.sample_nstep(4, n=2, gamma=gamma)
    batch = buf.sample_nstep(4, n=2, gamma=0.9)
    with pytest.raises(ValueError, match=re.escape(f"gamma must be a finite value in [0, 1], "
                                                   f"got {gamma!r}")):
        batch.nstep_rewards(np.ones_like(batch.step_offset), gamma=gamma)


@pytest.mark.parametrize("gamma", [0, 0.0, np.float64(0.5), 1, 1.0])
def test_gamma_at_and_inside_the_bounds_accepted(gamma):
    buf = ReplayBuffer(capacity=8, seed=0)
    fill_episodes(buf, [6])
    batch = buf.sample_nstep(4, n=2, gamma=gamma)
    lengths = np.bincount(batch.window_id, minlength=4)
    np.testing.assert_array_equal(batch.discounts, [float(gamma) ** k for k in lengths])
    assert batch.discounts.dtype == np.float64  # an integer gamma too


@pytest.mark.parametrize("seed", [True, 1.5, -1, "3"])
def test_bad_seed_rejected(seed):
    with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, "
                                                   f"got {seed!r}")):
        ReplayBuffer(8, seed=seed)


@pytest.mark.parametrize("shape", [(11,), (13,), (12, 2), ()],
                         ids=["one_too_few", "one_too_many", "two_columns", "scalar"])
def test_nstep_rewards_of_the_wrong_shape_rejected(shape):
    buf = ReplayBuffer(capacity=16, seed=0)
    fill_episodes(buf, [16])
    batch = buf.sample_nstep(4, n=3, gamma=0.9)
    assert batch.step_offset.shape == (12,)  # four full windows
    with pytest.raises(ValueError, match=re.escape(
            f"step_rewards has shape {shape}, the batch has 12 steps: expected shape (12,)")):
        batch.nstep_rewards(np.ones(shape), gamma=0.9)


@pytest.mark.parametrize("reward", [True, np.True_, "0.5", None, np.array(0.5), np.nan, np.inf,
                                    -np.inf])
def test_push_rejects_a_reward_that_is_no_finite_real_number(reward):
    buf = ReplayBuffer(capacity=4, seed=0)
    fill_episodes(buf, [2])
    ring = buf._state.copy(), buf._reward_env.copy(), buf._next
    bad = dataclasses.replace(make_transition(7), reward_env=reward)
    with pytest.raises(ValueError, match=re.escape(
            f"push: reward_env must be a finite real number, got {reward!r}")):
        buf.push(bad)
    assert len(buf) == 2
    np.testing.assert_equal((buf._state, buf._reward_env, buf._next), ring)


@pytest.mark.parametrize("done", ["False", 0.5, np.float64(1.0), None, 1, np.array(True)],
                         ids=["str", "float", "float64", "None", "int", "array"])
def test_push_rejects_a_done_that_is_no_boolean(done):
    # "False", 0.5 and np.float64(1.0) would each end the episode, None would not
    buf = ReplayBuffer(capacity=4, seed=0)
    fill_episodes(buf, [3])
    ring = buf._state.copy(), buf._episode.copy(), buf._next, buf._episode_now
    bad = dataclasses.replace(make_transition(7), done=done)
    with pytest.raises(ValueError, match=re.escape(
            f"push: done must be True or False, not a value of type {type(done).__name__}")):
        buf.push(bad)
    assert len(buf) == 3
    np.testing.assert_equal((buf._state, buf._episode, buf._next, buf._episode_now), ring)
    buf.push(dataclasses.replace(bad, done=np.True_))
    assert buf._episode_now == 2


def test_a_rejected_first_push_allocates_no_ring():
    # every value is checked before the ring is made: the vectors, the reward, done
    buf = ReplayBuffer(capacity=4, seed=0)
    with pytest.raises(ValueError, match=re.escape("push: next_state must hold real numbers")):
        buf.push(Transition([0.1, 0.2], [1.0], [0.3, True], 0.5, False))
    with pytest.raises(ValueError, match=re.escape("push: reward_env must be a finite real number")):
        buf.push(Transition([0.1, 0.2], [1.0], [0.3, 0.4], "0.5", False))
    with pytest.raises(ValueError, match=re.escape("push: done must be True or False")):
        buf.push(Transition([0.1, 0.2], [1.0], [0.3, 0.4], 0.5, "False"))
    assert len(buf) == 0 and buf._shapes is None
    buf.push(Transition([1, 2], [np.float32(0.5)], [3, 4], np.int64(2), False))  # real numbers
    batch = buf.sample_nstep(1, n=1, gamma=0.9)
    assert (batch.states.tolist(), batch.actions.tolist(), batch.step_rewards_env.tolist()) == (
        [[1.0, 2.0]], [[0.5]], [2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nstep_rewards_name_the_first_non_finite_step(bad):
    buf = ReplayBuffer(capacity=16, seed=0)
    fill_episodes(buf, [16])
    batch = buf.sample_nstep(4, n=3, gamma=0.9)
    rewards = np.ones(12)
    rewards[[5, 9]] = bad
    with pytest.raises(ValueError, match=re.escape(f"step_rewards step 5 is {bad}, not a finite")):
        batch.nstep_rewards(rewards, gamma=0.9)


@pytest.mark.parametrize("field",["state", "action", "next_state"])
def test_push_shape_change_rejected(field):
    buf = ReplayBuffer(capacity=8, seed=0)
    buf.push(make_transition(0))
    bad = make_transition(1)
    setattr(bad, field, np.zeros(1) if field != "action" else np.zeros(2))
    with pytest.raises(ValueError, match=rf"push: {field} has shape"):
        buf.push(bad)
    assert len(buf) == 1


def test_zero_width_field_pushes_and_samples():
    buf = ReplayBuffer(capacity=8, seed=0)
    for i in range(10):
        buf.push(Transition(state=np.zeros(0), action=np.array([float(i)]),
                            next_state=np.zeros(0), reward_env=float(i), done=i == 4))
    batch = buf.sample_nstep(16, n=3, gamma=0.9)
    assert batch.states.shape == (16, 0) and batch.step_next_states.shape[1:] == (0,)
    assert set(batch.step_actions[:, 0]) <= set(map(float, range(2, 10)))
    np.testing.assert_array_equal(batch.step_rewards_env, batch.step_actions[:, 0])


# Fifteen rings built in turn, each pushed 800 times beside 2.4 MB of
# short-lived arrays, the previous ring alive until the next one exists: the
# pattern of a benchmark that repeats its set-up. Prints the growth of peak RSS.
_RING_SETUPS = textwrap.dedent("""
    import numpy as np
    from pcil.replay import ReplayBuffer, Transition

    def peak_mb():
        # VmHWM, not ru_maxrss: after exec, ru_maxrss starts at the parent's peak
        with open("/proc/self/status") as fh:
            line = next(line for line in fh if line.startswith("VmHWM:"))
        return int(line.split()[1]) / 1024.0  # kB

    rng = np.random.default_rng(0)

    def setup():
        short_lived = rng.normal(size=300_000)
        ring = ReplayBuffer(100_000)
        for i in range(800):
            ring.push(Transition(np.full(3, float(i)), np.ones(1), np.full(3, i + 0.5),
                                 float(short_lived[i]), i % 200 == 199))
        return ring

    start = peak_mb()
    ring = None
    for _ in range(15):
        ring = setup()
    print(peak_mb() - start)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_ring_memory_follows_pushes_across_setups():
    # each ring has 7.2 MB of capacity and 800 pushes touch a few pages of it
    src = os.path.dirname(os.path.dirname(pcil.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _RING_SETUPS], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert float(result.stdout) < 5.0


#: Demo values of the wrong type, as (field, value, the start of the rule the
#: error names after the field), that saving rejects
WRONG_TYPES = [
    pytest.param("state", [1, 2, "3"], "must hold real numbers, not dtype <U", id="string_in_state"),
    pytest.param("action", [True], "must hold real numbers, not dtype bool", id="boolean_action"),
    pytest.param("next_state", [0.5, False, 0.5], "must hold real numbers, not a boolean among them",
                 id="boolean_among_numbers"),
    pytest.param("state", 5, "must be a flat list of numbers, not a value of rank 0",
                 id="bare_number"),
    pytest.param("next_state", [[1.0, 2.0, 3.0]],
                 "must be a flat list of numbers, not a value of rank 2", id="nested_list"),
    pytest.param("state", [1.0, [2.0], 3.0], "must hold real numbers in rows of one shape",
                 id="list_among_numbers"),
    pytest.param("state", [1.0, None, 3.0], "must hold real numbers, not dtype object", id="null"),
    pytest.param("reward_env", "0.5", "must hold real numbers, not dtype <U3", id="string_reward"),
    pytest.param("reward_env", True, "must hold real numbers, not dtype bool", id="boolean_reward"),
    pytest.param("reward_env", [0.5], "must be a number, not a value of rank 1", id="list_reward"),
    pytest.param("done", "false", "must be True or False, not a value of type str",
                 id="string_done"),
    pytest.param("done", 0, "must be True or False, not a value of type int", id="number_done"),
]


def assert_same_transitions(loaded, saved):
    """``loaded`` holds ``saved``'s values bit for bit, signed zeros too, as
    float64 vectors, a Python float reward and a Python bool done."""
    assert len(loaded) == len(saved)
    for a, b in zip(saved, loaded):
        for field in ("state", "action", "next_state"):
            value = getattr(b, field)
            assert value.dtype == np.float64 and value.ndim == 1
            assert value.tobytes() == np.asarray(getattr(a, field), dtype=np.float64).tobytes()
        assert type(b.reward_env) is float
        assert np.float64(b.reward_env).tobytes() == np.float64(a.reward_env).tobytes()
        assert type(b.done) is bool and b.done == a.done


class TestDemoFiles:
    def episodes(self, n_episodes=10, length=300):
        out = []
        i = 0
        for _ in range(n_episodes):
            for k in range(length):
                out.append(make_transition(i, done=(k == length - 1)))
                i += 1
        return out

    def test_round_trip(self, tmp_path):
        demos = self.episodes()
        path = tmp_path / "demos.bin"
        save_demos(path, demos)
        assert_same_transitions(load_demos(path), demos)

    def test_same_content_same_bytes(self, tmp_path):
        demos = self.episodes(n_episodes=1, length=5)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_demos(p1, demos)
        save_demos(p2, demos)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            save_demos(tmp_path / "demos.bin", [])

    @pytest.mark.parametrize("field,value", [
        ("state", np.array([0.0, np.nan, 0.0])), ("action", np.array([np.inf])),
        ("next_state", np.array([0.0, 0.0, -np.inf])), ("reward_env", np.nan),
    ])
    def test_save_rejects_a_non_finite_transition_and_writes_nothing(self, tmp_path, field, value):
        demos = self.episodes(n_episodes=1, length=4)
        demos[2] = dataclasses.replace(demos[2], **{field: value})
        kept, absent = tmp_path / "kept.bin", tmp_path / "absent.bin"
        kept.write_bytes(b"old")
        for path in (kept, absent):
            with pytest.raises(DemoFormatError, match=f"transition 2: '{field}' holds NaN or Inf"):
                save_demos(path, demos)
        assert kept.read_bytes() == b"old" and not absent.exists()

    @pytest.mark.parametrize("field", ["state", "action", "next_state"])
    def test_save_rejects_a_ragged_transition_and_writes_nothing(self, tmp_path, field):
        demos = self.episodes(n_episodes=1, length=4)
        demos[3] = dataclasses.replace(demos[3], **{field: np.append(getattr(demos[3], field), 0.5)})
        kept, absent = tmp_path / "kept.bin", tmp_path / "absent.bin"
        kept.write_bytes(b"old")
        for path in (kept, absent):
            with pytest.raises(DemoFormatError, match="transition 3: .*differ"):
                save_demos(path, demos)
        assert kept.read_bytes() == b"old" and not absent.exists()

    @pytest.mark.parametrize("field,value,rule", WRONG_TYPES + [
        pytest.param("next_state", [0.5, np.False_, 0.5],
                     "must hold real numbers, not a boolean among them",
                     id="numpy_boolean_among_numbers"),
    ])
    def test_save_rejects_a_value_of_the_wrong_type_and_writes_nothing(self, tmp_path, field, value,
                                                                        rule):
        # nothing is coerced: "false" is not written as true, nor 0 as false
        demos = self.episodes(n_episodes=1, length=3)
        demos[1] = dataclasses.replace(demos[1], **{field: value})
        kept, absent = tmp_path / "kept.bin", tmp_path / "absent.bin"
        kept.write_bytes(b"old")
        for path in (kept, absent):
            with pytest.raises(DemoFormatError, match=re.escape(f"transition 1: '{field}' {rule}")):
                save_demos(path, demos)
        assert kept.read_bytes() == b"old" and not absent.exists()

    def test_numpy_and_python_numbers_save_as_float64_and_bool(self, tmp_path):
        t = Transition(state=np.array([0.1, -1.25, 3.0], dtype=np.float32), action=[1, -2],
                       next_state=np.array([0.5, 0.0, 2.0], dtype=np.float32),
                       reward_env=np.array(0.1), done=np.bool_(True))
        path = tmp_path / "demos.bin"
        save_demos(path, [t])
        # float32's 0.1 is stored as the float64 it widens to
        tensors = load_checkpoint(path)
        assert tensors["state"].tolist() == [[0.10000000149011612, -1.25, 3.0]]
        assert tensors["action"].tolist() == [[1.0, -2.0]]
        assert tensors["reward_env"].tolist() == [0.1] and tensors["done"].tolist() == [1.0]
        (loaded,) = load_demos(path)
        for value, expected in ((loaded.state, t.state), (loaded.action, t.action),
                                (loaded.next_state, t.next_state)):
            assert value.dtype == np.float64
            np.testing.assert_array_equal(value, np.asarray(expected, dtype=np.float64))
        assert type(loaded.reward_env) is float and loaded.reward_env == 0.1 and loaded.done is True

    def test_integers_load_as_floats(self, tmp_path):
        path = tmp_path / "demos.bin"
        save_demos(path, [Transition([1, 2, 3], [0], [1, 2, 4], 1, True)])
        (t,) = load_demos(path)
        for value, expected in ((t.state, [1.0, 2.0, 3.0]), (t.action, [0.0]),
                                (t.next_state, [1.0, 2.0, 4.0])):
            assert value.dtype == np.float64
            np.testing.assert_array_equal(value, expected)
        assert type(t.reward_env) is float and t.reward_env == 1.0 and t.done is True

    def test_save_rejects_state_and_next_state_of_different_widths(self, tmp_path):
        path = tmp_path / "demos.bin"
        demos = [Transition(np.zeros(3), np.zeros(1), np.zeros(2), 0.0, False)] * 2
        with pytest.raises(DemoFormatError) as info:
            save_demos(path, demos)
        assert str(info.value) == (f"cannot save demos to {path}: transition 0: "
                                   "'next_state' has 2 values, 'state' has 3")
        assert not path.exists()


class Nested(list):
    """``[[...[]...]]``, ``depth`` lists deep: deeper than the recursion limit
    lets repr walk."""

    def __init__(self, depth):
        inner = []
        for _ in range(depth - 1):
            inner = [inner]
        super().__init__([inner])


def numpy_refusal(value):
    """numpy's own words when it stacks ``value`` to no array."""
    with pytest.raises(ValueError) as info:
        np.asarray(value)
    return str(info.value)

#: One field's values in the three transitions of a demo set, and what saving
#: and loading make of them: the float64 vectors, or (transition, error text).
COLUMN_CASES = [
    pytest.param("state", [[1, 2, 3], [0, -4, 5], [7, 8, 9]],
                 [[1.0, 2.0, 3.0], [0.0, -4.0, 5.0], [7.0, 8.0, 9.0]], id="json_ints"),
    pytest.param("state", [[2**63, 1, 2], [1, 2, 3], [2**64 - 1, 0, -5]],
                 [[9.223372036854775808e18, 1.0, 2.0], [1.0, 2.0, 3.0],
                  [1.8446744073709551616e19, 0.0, -5.0]], id="uint64_ints_among_small_ints"),
    pytest.param("state", [[0.5, 0.5, 0.5], [0.5, 2**64, 0.5], [0.5, 0.5, 0.5]],
                 (1, "'state' must hold real numbers, not dtype object"),
                 id="int_beyond_uint64_among_floats"),
    pytest.param("next_state", [[np.float32(0.1), 2.0, 3.0], [1.0, np.float32(-1.25), 3.0],
                                [1.0, 2.0, np.float32(3.5)]],
                 [[0.10000000149011612, 2.0, 3.0], [1.0, -1.25, 3.0], [1.0, 2.0, 3.5]],
                 id="float32_scalars_in_a_list"),
    pytest.param("state", [(1.5, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.25)],
                 [[1.5, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.25]], id="tuples"),
    pytest.param("action", [[], [], []], [[], [], []], id="empty_vectors"),
    pytest.param("state", [np.array([1, 2, 3], np.int32), np.array([0.5, 1.0, 2.0], np.float32),
                           np.array([1.0, 2.0, 3.0])],
                 [[1.0, 2.0, 3.0], [0.5, 1.0, 2.0], [1.0, 2.0, 3.0]], id="arrays_of_three_dtypes"),
    # an object array of numbers is rejected here as at every other entry point
    pytest.param("state", [np.array([1, 2, 3], np.int32), np.array([0.5, 1.0, 2.0], np.float32),
                           np.array([1.0, 2.0, 3.0], object)],
                 (2, "'state' must hold real numbers, not dtype object"),
                 id="object_array_among_numeric_arrays"),
    pytest.param("action", [np.array([0.5]), np.array([True]), np.array([0.25])],
                 (1, "'action' must hold real numbers, not dtype bool"),
                 id="boolean_array_among_float_arrays"),
    pytest.param("state", [[1.0, 2.0, 3.0], ["a", "b", "c"], [4.0, 5.0, 6.0]],
                 (1, "'state' must hold real numbers, not dtype <U1"),
                 id="string_row_among_float_rows"),
    pytest.param("next_state", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0]],
                 (1, "'next_state' has 4 values, the first transition's has 3: widths differ"),
                 id="ragged_row"),
    pytest.param("next_state", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, float("nan"), 3.0]],
                 (2, "'next_state' holds NaN or Inf"), id="nan_in_the_last_row"),
    # every row alike, so the column stacks, but not to one vector a row
    pytest.param("state", [1.0, 2.0, 3.0],
                 (0, "'state' must be a flat list of numbers, not a value of rank 0"),
                 id="every_row_a_bare_number"),
    pytest.param("action", [[[0.5]], [[1.0]], [[1.5]]],
                 (0, "'action' must be a flat list of numbers, not a value of rank 2"),
                 id="every_row_a_nested_list"),
    pytest.param("state", [[1.0, 2.0, 3.0], Nested(100_000), [4.0, 5.0, 6.0]],
                 (1, "'state' must hold real numbers in rows of one shape: "
                     + numpy_refusal(Nested(100_000))),
                 id="row_nested_past_the_recursion_limit"),
]


class TestDemoRules:
    """What saving accepts loads back as float64; what it rejects names the
    first transition that breaks a rule and leaves the file as it was."""

    @staticmethod
    def transitions(field, values):
        return [dataclasses.replace(make_transition(i), **{field: value})
                for i, value in enumerate(values)]

    @staticmethod
    def check_loaded(loaded, field, expected):
        assert len(loaded) == len(expected)
        for t, want in zip(loaded, expected):
            value = getattr(t, field)
            assert value.dtype == np.float64 and value.shape == (len(want),)
            np.testing.assert_array_equal(value, want)
            assert type(t.reward_env) is float and type(t.done) is bool

    @pytest.mark.parametrize("field,values,expected", COLUMN_CASES)
    def test_save(self, tmp_path, field, values, expected):
        path = tmp_path / "demos.bin"
        demos = self.transitions(field, values)
        if isinstance(expected, tuple):
            row, text = expected
            with pytest.raises(DemoFormatError) as info:
                save_demos(path, demos)
            assert str(info.value) == f"cannot save demos to {path}: transition {row}: {text}"
            assert not path.exists()
        else:
            save_demos(path, demos)
            self.check_loaded(load_demos(path), field, expected)

    @pytest.mark.parametrize("field,values,expected", COLUMN_CASES)
    def test_load(self, tmp_path, field, values, expected):
        # the file a save of the case over an older demo set leaves: the case's
        # column as one float64 tensor, or, when saving refuses it, the older set
        path = tmp_path / "demos.bin"
        older = [make_transition(i, done=i == 1, dim=2) for i in range(2)]
        save_demos(path, older)
        demos = self.transitions(field, values)
        if isinstance(expected, tuple):
            with pytest.raises(DemoFormatError):
                save_demos(path, demos)
            assert_same_transitions(load_demos(path), older)
        else:
            save_demos(path, demos)
            column = load_checkpoint(path)[field]
            assert column.dtype == np.float64 and column.shape == (len(expected), len(expected[0]))
            assert column.tolist() == expected
            self.check_loaded(load_demos(path), field, expected)

    def test_a_whole_set_failure_no_row_shows_names_the_file(self, tmp_path, monkeypatch):
        # a column check stricter than its values' checks still raises, naming the field
        demos = [make_transition(i) for i in range(3)]
        real_float64 = replay.real_float64

        def rejecting_columns(value, what):
            if isinstance(value, list):  # a whole column; each transition's value is an array
                raise ValueError("a stricter check of whole columns")
            return real_float64(value, what)

        monkeypatch.setattr(replay, "real_float64", rejecting_columns)
        path = tmp_path / "absent.bin"
        with pytest.raises(DemoFormatError) as info:
            save_demos(path, demos)
        assert str(info.value) == (f"cannot save demos to {path}: 'state' fails a whole-set "
                                   "check that no transition fails alone")
        assert not path.exists()


#: The tensors of four demo transitions, as ``save_demos`` writes them
DEMO_TENSORS = {
    "state": np.arange(12.0).reshape(4, 3), "action": np.array([[0.5], [-0.5], [0.25], [0.0]]),
    "next_state": np.arange(12.0).reshape(4, 3) + 1.0, "reward_env": np.array([0.0, 0.5, -1.0, 1.0]),
    "done": np.array([0.0, 0.0, 0.0, 1.0]),
}


def tensor_file(**edits):
    """A writer of ``DEMO_TENSORS`` with ``edits``: a value replaces a tensor
    or adds one, None drops one."""
    tensors = {name: value for name, value in {**DEMO_TENSORS, **edits}.items() if value is not None}
    return lambda path: save_checkpoint(path, tensors)


def edited_file(edit):
    """A writer of a good demo file whose bytes ``edit`` then changes."""
    def write(path):
        save_demos(path, [make_transition(i, done=i == 3) for i in range(4)])
        path.write_bytes(edit(path.read_bytes()))
    return write


def row_1_byte(name):
    """The byte where the payload of ``DEMO_TENSORS[name]`` holds row 1's first
    entry, in the file ``save_checkpoint`` writes for ``DEMO_TENSORS``."""
    at = 12  # magic, version, tensor count
    for key, value in DEMO_TENSORS.items():
        at += 4 + len(key) + 4 + 4 * value.ndim  # name length, name, rank, dims
        if key == name:
            return at + 8 * value[0].size
        at += 8 * value.size


def non_finite_file(name, value):
    """A writer of ``DEMO_TENSORS`` with row 1's first entry of tensor ``name``
    made ``value`` by an edit of the file's bytes: ``save_checkpoint`` refuses
    NaN and Inf."""
    marked = DEMO_TENSORS[name].copy()
    marked.flat[marked[0].size] = 0.125  # a value whose bytes no other part of the file holds
    def write(path):
        tensor_file(**{name: marked})(path)
        blob = path.read_bytes()
        assert blob.find(np.float64(0.125).tobytes()) == row_1_byte(name)
        assert blob.count(np.float64(0.125).tobytes()) == 1
        path.write_bytes(blob.replace(np.float64(0.125).tobytes(), np.float64(value).tobytes()))
    return write


#: Files ``load_demos`` rejects, as (writer, the CheckpointError the error is
#: chained from or None, the error text after the file name)
LOAD_CASES = [
    pytest.param(tensor_file(action=None), None, "no tensor 'action'", id="missing_tensor"),
    pytest.param(tensor_file(weights=np.zeros(4)), None, "unexpected tensor 'weights'",
                 id="extra_tensor"),
    pytest.param(tensor_file(state=DEMO_TENSORS["state"][:, 0]), None,
                 "tensor 'state' has shape (4,), expected rank 2", id="state_of_rank_1"),
    pytest.param(tensor_file(reward_env=DEMO_TENSORS["reward_env"][:, None]), None,
                 "tensor 'reward_env' has shape (4, 1), expected rank 1", id="reward_of_rank_2"),
    pytest.param(tensor_file(**{name: value[:0] for name, value in DEMO_TENSORS.items()}), None,
                 "the tensors hold no transition, at least one required", id="no_rows"),
    pytest.param(tensor_file(action=DEMO_TENSORS["action"][:-1]), None,
                 "tensor 'action' has 3 rows, 'state' has 4", id="action_one_row_short"),
    pytest.param(tensor_file(state=DEMO_TENSORS["state"][[0, 1, 2, 3, 0]]), None,
                 "tensor 'action' has 4 rows, 'state' has 5", id="state_one_row_long"),
    pytest.param(tensor_file(next_state=DEMO_TENSORS["next_state"][[0, 1, 2, 3, 0]]), None,
                 "tensor 'next_state' has 5 rows, 'state' has 4", id="next_state_one_row_long"),
    pytest.param(tensor_file(next_state=DEMO_TENSORS["next_state"][:, :2]), None,
                 "tensor 'next_state' has width 2, 'state' has 3", id="state_widths_differ"),
    pytest.param(tensor_file(done=np.array([0.0, 1.0, 0.5, 2.0])), None,
                 "tensor 'done' row 2: 0.5 is neither 0 nor 1", id="done_not_0_or_1"),
    pytest.param(edited_file(lambda blob: b""), CheckpointError,
                 "truncated checkpoint: needed 4 bytes for magic at byte 0, file has 0", id="empty"),
    pytest.param(edited_file(lambda blob: blob[:-5]), CheckpointError,
                 rf"truncated checkpoint: needed 32 bytes for payload of 'done' at byte \d+, "
                 rf"file has \d+", id="truncated"),
    pytest.param(edited_file(lambda blob: blob.replace(b"\x06\0\0\0action", b"\0\0\0\x80action")),
                 CheckpointError, rf"truncated checkpoint: needed {2**31} bytes for name at byte "
                                  rf"\d+, file has \d+", id="name_length_past_the_end"),
    pytest.param(edited_file(lambda blob: blob.replace(b"next_state", b"\xffext_state")),
                 CheckpointError, r"tensor name at byte \d+ is not UTF-8", id="name_not_utf8"),
    pytest.param(edited_file(lambda blob: b"JSON" + blob[4:]), CheckpointError,
                 "bad magic bytes, not a PCIL checkpoint", id="bad_magic"),
    pytest.param(edited_file(lambda blob: blob + b"\n"), CheckpointError,
                 r"trailing garbage after byte \d+", id="trailing_bytes"),
    *(pytest.param(non_finite_file(name, value), CheckpointError,
                   rf"tensor '{name}' holds NaN or Inf at byte {row_1_byte(name)}",
                   id=f"{value}_in_{name}")
      for name, value in [("state", np.nan), ("action", np.inf), ("next_state", -np.inf),
                          ("reward_env", np.inf), ("done", np.nan)]),
]


@pytest.mark.parametrize("write,cause,text", LOAD_CASES)
def test_load_rejects_a_file_that_breaks_a_rule(tmp_path, write, cause, text):
    path = tmp_path / "demos.bin"
    write(path)
    with pytest.raises(DemoFormatError) as info:
        load_demos(path)
    if cause is None:
        assert str(info.value) == f"malformed demo file {path}: {text}"
        assert info.value.__cause__ is None
    else:
        assert isinstance(info.value.__cause__, cause)
        assert str(info.value) == f"malformed demo file {path}: {info.value.__cause__}"
        assert re.fullmatch(text, str(info.value.__cause__))


@pytest.mark.parametrize("name,n_episodes,digest", [
    pytest.param("pendulum", 8, "b6d76ef553b4", id="pendulum-8-b6d76ef553b4"),
    pytest.param("point_mass", 5, "f41d7ac6db1e", id="point_mass-5-f41d7ac6db1e"),
])
def test_expert_demos_keep_their_bytes(tmp_path, name, n_episodes, digest):
    env = envs.make_env(name)
    demos = [Transition(*step) for i in range(n_episodes)
             for step in envs.run_episode(env, envs.expert_policy(env), 100 + i)[0]]
    path = tmp_path / "demos.bin"
    save_demos(path, demos)
    assert hashlib.sha256(path.read_bytes()).hexdigest().startswith(digest)
    assert_same_transitions(load_demos(path), demos)


#: Finite values whose float64 bits a careless round trip would change
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
          2.2250738585072014e-308, 0.1, 2**53 + 1, 2**60, -2**60]
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2**60, 2**60), st.sampled_from(_EDGES))


@st.composite
def demo_sets(draw):
    state_width, action_width = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    vector = lambda width: st.lists(_FINITE, min_size=width, max_size=width)
    row = st.builds(Transition, vector(state_width), vector(action_width), vector(state_width),
                    _FINITE, st.booleans())
    return draw(st.lists(row, min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(demos=demo_sets())
@example(demos=[Transition([-0.0, 5e-324, 1e-05], [1.7976931348623157e308], [3.0, -2.0, 1e16], 0.0, True),
                Transition([0.1, -5e-324, 1e-07], [-1.7976931348623157e308], [2.0**53, 1e22, 2**60],
                           -0.0, False)])
def test_round_trip_is_bit_exact(tmp_path_factory, demos):
    path = tmp_path_factory.mktemp("demos") / "demos.bin"
    save_demos(path, demos)
    assert_same_transitions(load_demos(path), demos)
    tensors = load_checkpoint(path)
    assert list(tensors) == ["state", "action", "next_state", "reward_env", "done"]
    n, widths = len(demos), (len(demos[0].state), len(demos[0].action), len(demos[0].state))
    assert [value.shape for value in tensors.values()] == [(n, widths[0]), (n, widths[1]),
                                                           (n, widths[2]), (n,), (n,)]
