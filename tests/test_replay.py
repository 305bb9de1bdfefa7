import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcil.replay import (
    DemoFormatError,
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


def test_push_evicts_oldest_at_capacity():
    buf = ReplayBuffer(capacity=2, seed=0)
    for i in range(3):
        buf.push(make_transition(i))
    assert len(buf) == 2
    kept = {t.state[0] for t in buf._items}
    assert kept == {1.0, 2.0}


def test_push_below_capacity():
    buf = ReplayBuffer(capacity=10, seed=0)
    for i in range(4):
        buf.push(make_transition(i))
    assert len(buf) == 4


def test_sampled_fields_round_trip():
    buf = ReplayBuffer(capacity=4, seed=1)
    t = make_transition(7)
    buf.push(t)
    got = buf.sample_transitions(1)[0]
    np.testing.assert_array_equal(got.state, t.state)
    np.testing.assert_array_equal(got.action, t.action)
    np.testing.assert_array_equal(got.next_state, t.next_state)
    assert got.reward_env == t.reward_env and got.done == t.done


def test_sample_empty_rejected():
    buf = ReplayBuffer(capacity=4, seed=0)
    with pytest.raises(ValueError, match="empty"):
        buf.sample_transitions(1)
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
    # windows starting at the last step of episode one must have length 1
    for _ in range(50):
        batch = buf.sample_nstep(8, n=3, gamma=0.5)
        for w in range(len(batch)):
            mask = batch.window_id == w
            length = int(mask.sum())
            assert batch.discounts[w] == pytest.approx(0.5**length)
            dones = [
                buf._items[i].done
                for i in range(len(buf._items))
                if any(
                    np.array_equal(buf._items[i].state, s)
                    for s in batch.step_states[mask]
                )
            ]
            # a done transition may only sit at the window's last position
            window_states = batch.step_states[mask]
            for k, s in enumerate(window_states[:-1]):
                idx = int(s[0])
                assert not buf._items[idx].done


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
    batch = buf.sample_nstep(16, n=n, gamma=0.9)
    for w in range(len(batch)):
        mask = batch.window_id == w
        ids = [int(s[0]) for s in batch.step_states[mask]]
        # consecutive steps, done only at the last position
        assert ids == list(range(ids[0], ids[0] + len(ids)))
        for i in ids[:-1]:
            assert not buf._items[i].done
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
        save_demos(path, demos, header_comment="mean_return=123.0")
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
        save_demos(p1, demos, header_comment="x")
        save_demos(p2, demos, header_comment="x")
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
        save_demos(path, self.episodes(n_episodes=1, length=3), header_comment="x")
        lines = path.read_text().splitlines()
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

