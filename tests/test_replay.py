import dataclasses
import hashlib
import json
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
    with pytest.raises(ValueError, match="empty"):
        buf.sample_indices(1)
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
    counts = np.bincount(buf.sample_indices(draws), minlength=100)
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


@pytest.mark.parametrize("capacity", [2.5, 0, -3, "8"])
def test_bad_capacity_rejected(capacity):
    with pytest.raises(ValueError, match="capacity"):
        ReplayBuffer(capacity)


@pytest.mark.parametrize("n", [0, -1, 2.0])
def test_bad_window_length_rejected(n):
    buf = ReplayBuffer(capacity=8, seed=0)
    fill_episodes(buf, [6])
    with pytest.raises(ValueError, match="n must be a positive integer"):
        buf.sample_nstep(4, n=n, gamma=0.9)


@pytest.mark.parametrize("batch_size", [0, 2.5])
def test_bad_batch_size_rejected(batch_size):
    buf = ReplayBuffer(capacity=8, seed=0)
    fill_episodes(buf, [6])
    with pytest.raises(ValueError, match="batch_size must be a positive integer"):
        buf.sample_nstep(batch_size, n=2, gamma=0.9)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, -0.1, 1.01, "0.9", None])
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


#: Demo row values of the wrong type, as (field, value), for saving and loading alike
WRONG_TYPES = [
    pytest.param("state", [1, 2, "3"], id="string_in_state"),
    pytest.param("action", [True], id="boolean_action"),
    pytest.param("next_state", [0.5, False, 0.5], id="boolean_among_numbers"),
    pytest.param("state", 5, id="bare_number"),
    pytest.param("next_state", [[1.0, 2.0, 3.0]], id="nested_list"),
    pytest.param("state", [1.0, [2.0], 3.0], id="list_among_numbers"),
    pytest.param("state", [1.0, None, 3.0], id="null"),
    pytest.param("reward_env", "0.5", id="string_reward"),
    pytest.param("reward_env", True, id="boolean_reward"),
    pytest.param("reward_env", [0.5], id="list_reward"),
    pytest.param("done", "false", id="string_done"),
    pytest.param("done", 0, id="number_done"),
]


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
        path = tmp_path / "demos.jsonl"
        save_demos(path, demos)
        # hand-written comment lines, as the loader skips them
        path.write_text("# mean_return=123.0\n# seeds 0-9\n" + path.read_text())
        loaded = load_demos(path)
        assert len(loaded) == len(demos)
        for a, b in zip(demos, loaded):
            np.testing.assert_array_equal(a.state, b.state)
            np.testing.assert_array_equal(a.action, b.action)
            np.testing.assert_array_equal(a.next_state, b.next_state)
            assert a.reward_env == b.reward_env and a.done == b.done

    def test_same_content_same_bytes(self, tmp_path):
        demos = self.episodes(n_episodes=1, length=5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_demos(p1, demos)
        save_demos(p2, demos)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_names_offset(self, tmp_path):
        demos = self.episodes(n_episodes=1, length=5)
        path = tmp_path / "demos.jsonl"
        save_demos(path, demos)
        blob = path.read_bytes()
        path.write_bytes(blob[:-20])
        with pytest.raises(DemoFormatError, match=r"byte offset \d+"):
            load_demos(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "demos.jsonl"
        path.write_text("# only a comment\n")
        with pytest.raises(DemoFormatError, match="at least one transition"):
            load_demos(path)

    def test_save_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            save_demos(tmp_path / "demos.jsonl", [])

    @pytest.mark.parametrize("field,value", [
        ("state", np.array([0.0, np.nan, 0.0])), ("action", np.array([np.inf])),
        ("next_state", np.array([0.0, 0.0, -np.inf])), ("reward_env", np.nan),
    ])
    def test_save_rejects_a_non_finite_transition_and_writes_nothing(self, tmp_path, field, value):
        demos = self.episodes(n_episodes=1, length=4)
        demos[2] = dataclasses.replace(demos[2], **{field: value})
        kept, absent = tmp_path / "kept.jsonl", tmp_path / "absent.jsonl"
        kept.write_bytes(b"old")
        for path in (kept, absent):
            with pytest.raises(DemoFormatError, match="transition 2: NaN or Inf"):
                save_demos(path, demos)
        assert kept.read_bytes() == b"old" and not absent.exists()

    @pytest.mark.parametrize("field", ["state", "action", "next_state"])
    def test_save_rejects_a_ragged_transition_and_writes_nothing(self, tmp_path, field):
        demos = self.episodes(n_episodes=1, length=4)
        demos[3] = dataclasses.replace(demos[3], **{field: np.append(getattr(demos[3], field), 0.5)})
        kept, absent = tmp_path / "kept.jsonl", tmp_path / "absent.jsonl"
        kept.write_bytes(b"old")
        for path in (kept, absent):
            with pytest.raises(DemoFormatError, match="transition 3: .*differ"):
                save_demos(path, demos)
        assert kept.read_bytes() == b"old" and not absent.exists()

    @pytest.mark.parametrize("field,value", WRONG_TYPES + [
        pytest.param("next_state", [0.5, np.False_, 0.5], id="numpy_boolean_among_numbers"),
    ])
    def test_save_rejects_a_value_of_the_wrong_type_and_writes_nothing(self, tmp_path, field, value):
        # the rules load_demos applies: "false" is not written as true, nor 0 as false
        demos = self.episodes(n_episodes=1, length=3)
        demos[1] = dataclasses.replace(demos[1], **{field: value})
        kept, absent = tmp_path / "kept.jsonl", tmp_path / "absent.jsonl"
        kept.write_bytes(b"old")
        for path in (kept, absent):
            with pytest.raises(DemoFormatError, match=rf"transition 1: '{field}' must be"):
                save_demos(path, demos)
        assert kept.read_bytes() == b"old" and not absent.exists()

    def test_numpy_and_python_numbers_save_as_float64_and_bool(self, tmp_path):
        t = Transition(state=np.array([0.1, -1.25, 3.0], dtype=np.float32), action=[1, -2],
                       next_state=np.array([0.5, 0.0, 2.0], dtype=np.float32),
                       reward_env=np.array(0.1), done=np.bool_(True))
        path = tmp_path / "demos.jsonl"
        save_demos(path, [t])
        # float32's 0.1 is written as the float64 it widens to, not as "0.1"
        assert path.read_text() == ('{"state":[0.10000000149011612,-1.25,3.0],"action":[1.0,-2.0],'
                                    '"next_state":[0.5,0.0,2.0],"reward_env":0.1,"done":true}\n')
        (loaded,) = load_demos(path)
        for value, expected in ((loaded.state, t.state), (loaded.action, t.action),
                                (loaded.next_state, t.next_state)):
            assert value.dtype == np.float64
            np.testing.assert_array_equal(value, np.asarray(expected, dtype=np.float64))
        assert type(loaded.reward_env) is float and loaded.reward_env == 0.1 and loaded.done is True

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "demos.jsonl"
        save_demos(path, self.episodes(n_episodes=1, length=3))
        lines = path.read_text().splitlines()
        lines[1] = '{"state": [1, 2'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DemoFormatError, match="line 2"):
            load_demos(path)

    @pytest.mark.parametrize("field,value", [
        ("state", "NaN"), ("action", "Infinity"), ("next_state", "-Infinity"),
        ("reward_env", "1e999"),
        pytest.param("reward_env", "1" + "0" * 400, id="reward_env-int_overflows_float"),
    ])
    def test_non_finite_value_names_line_and_offset(self, tmp_path, field, value):
        path = tmp_path / "demos.jsonl"
        save_demos(path, self.episodes(n_episodes=1, length=3))
        lines = ["# x"] + path.read_text().splitlines()
        offset = sum(len(line) + 1 for line in lines[:3])
        lines[3], count = re.subn(rf'("{field}":\[?)[-0-9.e]+', rf"\g<1>{value}", lines[3], count=1)
        assert count == 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DemoFormatError, match=rf"line 4 \(byte offset {offset}\): "):
            load_demos(path)

    def test_non_utf8_line_names_line_and_offset(self, tmp_path):
        path = tmp_path / "demos.jsonl"
        save_demos(path, self.episodes(n_episodes=1, length=3))
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"0.", b"\xff.", 1)
        path.write_bytes(b"\n".join(lines))
        offset = len(lines[0]) + len(lines[1]) + 2
        with pytest.raises(DemoFormatError, match=rf"line 3 \(byte offset {offset}\): .*utf-8"):
            load_demos(path)

    @pytest.mark.parametrize("field,value", WRONG_TYPES)
    def test_value_of_the_wrong_type_names_line_and_offset(self, tmp_path, field, value):
        path = tmp_path / "demos.jsonl"
        save_demos(path, self.episodes(n_episodes=1, length=3))
        lines = path.read_text().splitlines()
        offset = len(lines[0]) + 1
        row = json.loads(lines[1])
        row[field] = value
        lines[1] = json.dumps(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DemoFormatError,
                           match=rf"line 2 \(byte offset {offset}\): '{field}' must be"):
            load_demos(path)

    def test_integers_load_as_floats(self, tmp_path):
        path = tmp_path / "demos.jsonl"
        path.write_text('{"state":[1,2,3],"action":[0],"next_state":[1,2,4],'
                        '"reward_env":1,"done":true}\n')
        (t,) = load_demos(path)
        for value, expected in ((t.state, [1.0, 2.0, 3.0]), (t.action, [0.0]),
                                (t.next_state, [1.0, 2.0, 4.0])):
            assert value.dtype == np.float64
            np.testing.assert_array_equal(value, expected)
        assert type(t.reward_env) is float and t.reward_env == 1.0 and t.done is True

    @pytest.mark.parametrize("field", ["state", "action", "next_state"])
    def test_ragged_row_names_line_and_offset(self, tmp_path, field):
        path = tmp_path / "demos.jsonl"
        save_demos(path, self.episodes(n_episodes=1, length=3))
        lines = path.read_text().splitlines()
        offset = len(lines[0]) + 1
        lines[1] = lines[1].replace(f'"{field}":[', f'"{field}":[0.5,', 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DemoFormatError, match=rf"line 2 \(byte offset {offset}\): .*differ"):
            load_demos(path)



class Nested(list):
    """``[[...[]...]]``, ``depth`` lists deep: deeper than the recursion limit
    lets json or repr walk. Its JSON text is ``depth`` brackets each way."""

    def __init__(self, depth):
        inner = []
        for _ in range(depth - 1):
            inner = [inner]
        super().__init__([inner])
        self.depth = depth


def json_line(row) -> bytes:
    """``row`` as one line of JSON; a ``Nested`` value, which json cannot
    write, is spelled out."""
    deep = {key: value for key, value in row.items() if isinstance(value, Nested)}
    text = json.dumps({**row, **dict.fromkeys(deep)}, default=lambda a: a.tolist())
    for key, value in deep.items():
        text = text.replace(f'"{key}": null', f'"{key}": ' + "[" * value.depth + "]" * value.depth)
    return text.encode() + b"\n"


#: The text of a row nested past the recursion limit, saved or loaded
TOO_DEEP = "a value is nested deeper than the recursion limit"

#: One field's values in the three rows of a demo set, and what saving and
#: loading both make of them: the float64 vectors, or (row, error text).
COLUMN_CASES = [
    pytest.param("state", [[1, 2, 3], [0, -4, 5], [7, 8, 9]],
                 [[1.0, 2.0, 3.0], [0.0, -4.0, 5.0], [7.0, 8.0, 9.0]], id="json_ints"),
    pytest.param("state", [[2**63, 1, 2], [1, 2, 3], [2**64 - 1, 0, -5]],
                 [[9.223372036854775808e18, 1.0, 2.0], [1.0, 2.0, 3.0],
                  [1.8446744073709551616e19, 0.0, -5.0]], id="uint64_ints_among_small_ints"),
    pytest.param("state", [[0.5, 0.5, 0.5], [0.5, 2**64, 0.5], [0.5, 0.5, 0.5]],
                 (1, "'state' must be a list of numbers, got [0.5, 18446744073709551616, 0.5]"),
                 id="int_beyond_uint64_among_floats"),
    pytest.param("next_state", [[np.float32(0.1), 2.0, 3.0], [1.0, np.float32(-1.25), 3.0],
                                [1.0, 2.0, np.float32(3.5)]],
                 [[0.10000000149011612, 2.0, 3.0], [1.0, -1.25, 3.0], [1.0, 2.0, 3.5]],
                 id="float32_scalars_in_a_list"),
    pytest.param("state", [(1.5, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.25)],
                 [[1.5, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.25]], id="tuples"),
    pytest.param("action", [[], [], []], [[], [], []], id="empty_vectors"),
    pytest.param("state", [np.array([1, 2, 3], np.int32), np.array([0.5, 1.0, 2.0], np.float32),
                           np.array([1.0, 2.0, 3.0], object)],
                 [[1.0, 2.0, 3.0], [0.5, 1.0, 2.0], [1.0, 2.0, 3.0]], id="arrays_of_three_dtypes"),
    pytest.param("action", [np.array([0.5]), np.array([True]), np.array([0.25])],
                 (1, "'action' must be a list of numbers, got [True]"),
                 id="boolean_array_among_float_arrays"),
    pytest.param("state", [[1.0, 2.0, 3.0], ["a", "b", "c"], [4.0, 5.0, 6.0]],
                 (1, "'state' must be a list of numbers, got ['a', 'b', 'c']"),
                 id="string_row_among_float_rows"),
    pytest.param("next_state", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0]],
                 (1, "state/action/next_state shapes ((3,), (1,), (4,)) differ from "
                     "the first row's ((3,), (1,), (3,))"), id="ragged_row"),
    pytest.param("next_state", [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, float("nan"), 3.0]],
                 (2, "NaN or Inf value"), id="nan_in_the_last_row"),
    # every row alike, so the column stacks, but not to one vector a row
    pytest.param("state", [1.0, 2.0, 3.0], (0, "'state' must be a list of numbers, got 1.0"),
                 id="every_row_a_bare_number"),
    pytest.param("action", [[[0.5]], [[1.0]], [[1.5]]],
                 (0, "'action' must be a list of numbers, got [[0.5]]"), id="every_row_a_nested_list"),
    pytest.param("state", [[1.0, 2.0, 3.0], Nested(100_000), [4.0, 5.0, 6.0]], (1, TOO_DEEP),
                 id="row_nested_past_the_recursion_limit"),
]


class TestDemoRules:
    """The whole-set checks accept and reject exactly what the per-row rules do."""

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
        path = tmp_path / "demos.jsonl"
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
        path = tmp_path / "demos.jsonl"
        rows = ({**dataclasses.asdict(make_transition(i)), field: value} for i, value in enumerate(values))
        lines = list(map(json_line, rows))
        path.write_bytes(b"".join(lines))
        if isinstance(expected, tuple):
            row, text = expected
            offset = sum(map(len, lines[:row]))
            with pytest.raises(DemoFormatError) as info:
                load_demos(path)
            assert str(info.value) == (f"malformed demo file {path}: "
                                       f"line {row + 1} (byte offset {offset}): {text}")
        else:
            self.check_loaded(load_demos(path), field, expected)

    def test_a_whole_set_failure_no_row_shows_names_the_file(self, tmp_path, monkeypatch):
        path = tmp_path / "demos.jsonl"
        demos = [make_transition(i) for i in range(3)]
        save_demos(path, demos)
        monkeypatch.setattr(replay, "_matrix", lambda column: None)
        for call, source in ((lambda: load_demos(path), "malformed demo file"),
                             (lambda: save_demos(tmp_path / "absent.jsonl", demos),
                              "cannot save demos to")):
            with pytest.raises(DemoFormatError, match=rf"^{source} \S+: the rows fail a whole-set"):
                call()
        assert not (tmp_path / "absent.jsonl").exists()


def _rows_text(n=3):
    return [json.dumps({"state": [float(i), 0.5, -1.0], "action": [0.25], "next_state": [1.0, 2.0, 3.0],
                        "reward_env": 0.5, "done": i == n - 1}, separators=(",", ":")) for i in range(n)]


#: Demo files as lists of lines (bytes, ends included), and what loading makes
#: of them: None for the rows of ``_rows_text()``, or (line number, error text).
_ROWS = [row.encode() for row in _rows_text()]
FILE_CASES = [
    pytest.param([row + b"\r\n" for row in _ROWS], None, id="crlf"),
    pytest.param([b"# written by hand\n", _ROWS[0] + b"\n", b"\n", b"  \t\n", b"# between rows\n",
                  b"   # indented\n", _ROWS[1] + b"\n", b"\n", _ROWS[2] + b"\n", b"\n"],
                 None, id="blank_and_comment_lines"),
    pytest.param([_ROWS[0] + b"," + _ROWS[1] + b"\n", _ROWS[2] + b"\n"],
                 (1, f"Extra data: line 1 column {len(_ROWS[0]) + 1} (char {len(_ROWS[0])})"),
                 id="two_objects_joined_by_a_comma"),
    pytest.param([_ROWS[0] + b"\n", _ROWS[1] + b" " + _ROWS[2] + b"\n"],
                 (2, f"Extra data: line 1 column {len(_ROWS[1]) + 2} (char {len(_ROWS[1]) + 1})"),
                 id="two_objects_joined_by_a_space"),
    # json's whitespace is four characters; str.strip would also strip this one
    pytest.param([_ROWS[0] + b"\n", _ROWS[1] + "\u00a0\n".encode(), _ROWS[2] + b"\n"],
                 (2, f"Extra data: line 1 column {len(_ROWS[1]) + 1} (char {len(_ROWS[1])})"),
                 id="no_break_space_after_a_row"),
    pytest.param([_ROWS[0] + b"\n", b"[1.0, 2.0]\n", _ROWS[2] + b"\n"],
                 (2, "list indices must be integers or slices, not str"), id="json_array_line"),
    pytest.param([_ROWS[0] + b"\n", _ROWS[1] + b"\n", b"5\n"],
                 (3, "'int' object is not subscriptable"), id="json_number_line"),
    # the one parse of a joined file would take these three lines for three rows
    pytest.param([b'{"junk":[{"a":1}\n', b'{"b":2}],' + _ROWS[0][1:] + b"\n",
                  _ROWS[1] + b"," + _ROWS[2] + b"\n"],
                 (1, "Expecting ',' delimiter: line 1 column 17 (char 16)"),
                 id="lines_that_join_into_rows"),
    pytest.param([b"\xef\xbb\xbf" + _ROWS[0] + b"\n", _ROWS[1] + b"\n", _ROWS[2] + b"\n"],
                 (1, "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
                 id="utf8_bom"),
    pytest.param([_ROWS[0] + b"\n", _ROWS[1] + b"\n", _ROWS[2].replace(b"0.5", b"\xff.5", 1) + b"\n"],
                 (3, "'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"),
                 id="invalid_utf8_in_line_3"),
    pytest.param(["".join(row + "\n" for row in _rows_text()).encode("utf-16")],
                 (1, "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
                 id="utf16_file"),
    pytest.param([_ROWS[0] + b"\n", _ROWS[1].replace(b',"done":false', b"") + b"\n", _ROWS[2] + b"\n"],
                 (2, "'done'"), id="row_without_done"),
    pytest.param([_ROWS[0] + b"\n", b'{"state":' + b"[" * 100_000 + b"]" * 100_000 + b"}\n",
                  _ROWS[2] + b"\n"], (2, TOO_DEEP), id="row_nested_past_the_recursion_limit"),
]


@pytest.mark.parametrize("lines,expected", FILE_CASES)
def test_file_loads_its_rows_or_names_the_line(tmp_path, lines, expected):
    path = tmp_path / "demos.jsonl"
    path.write_bytes(b"".join(lines))
    if expected is None:
        loaded = load_demos(path)
        assert [dataclasses.asdict(t) | {k: getattr(t, k).tolist() for k in ("state", "action", "next_state")}
                for t in loaded] == [json.loads(row) for row in _rows_text()]
    else:
        lineno, text = expected
        offset = sum(map(len, lines[:lineno - 1]))
        with pytest.raises(DemoFormatError) as info:
            load_demos(path)
        assert str(info.value) == f"malformed demo file {path}: line {lineno} (byte offset {offset}): {text}"


@pytest.mark.parametrize("name,n_episodes,digest", [
    ("pendulum", 8, "70541b5b9bf3"), ("point_mass", 5, "dc8c837c012f"),
])
def test_expert_demos_keep_their_bytes(tmp_path, name, n_episodes, digest):
    env = envs.make_env(name)
    demos = [Transition(*step) for i in range(n_episodes)
             for step in envs.run_episode(env, envs.expert_policy(env), 100 + i)[0]]
    path = tmp_path / "demos.jsonl"
    save_demos(path, demos)
    assert hashlib.sha256(path.read_bytes()).hexdigest().startswith(digest)
    loaded = load_demos(path)
    assert len(loaded) == len(demos)
    for a, b in zip(demos, loaded):
        for field in ("state", "action", "next_state"):
            assert getattr(b, field).dtype == np.float64
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert type(b.reward_env) is float and b.reward_env == a.reward_env
        assert type(b.done) is bool and b.done == a.done


_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2**60, 2**60).map(float))


@st.composite
def demo_rows(draw):
    widths = draw(st.tuples(*[st.integers(0, 4)] * 3))
    row = st.tuples(*[st.lists(_FINITE, min_size=w, max_size=w) for w in widths],
                    _FINITE, st.booleans())
    return draw(st.lists(row, min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(rows=demo_rows())
@example(rows=[([-0.0, 5e-324, 1e-05], [1.7976931348623157e308], [3.0, -2.0, 1e16], 0.0, True),
               ([0.1, -5e-324, 1e-07], [-1.7976931348623157e308], [2.0**53, 1e22, 100.0], -0.0, False)])
def test_each_line_is_what_json_dumps_writes(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("lines") / "demos.jsonl"
    save_demos(path, [Transition(np.array(s), np.array(a), np.array(n), r, d) for s, a, n, r, d in rows])
    expected = [json.dumps(dict(zip(("state", "action", "next_state", "reward_env", "done"), row)),
                           separators=(",", ":"), allow_nan=False) + "\n" for row in rows]
    assert path.read_text(encoding="utf-8").splitlines(keepends=True) == expected
