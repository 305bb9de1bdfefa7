"""Transition storage: agent replay ring, expert demo store, demo file I/O.

The replay buffer hands out n-step windows as raw per-step transitions so
rewards can be relabelled by whatever reward function is current at sampling
time; nothing reward-related is baked in. Windows never cross an episode
boundary -- a window that would run past a terminal transition is truncated
there and its bootstrap discount shrinks to gamma^(actual length).

Demonstrations are JSON Lines, one transition per line, with an optional
leading ``#`` comment header. Human-inspectable and diff-friendly; desk scale
makes compactness irrelevant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class Transition:
    """One environment step.

    ``reward_env`` is ground truth kept for evaluation only; imitation
    learners never read it.
    """

    state: np.ndarray
    action: np.ndarray
    next_state: np.ndarray
    reward_env: float
    done: bool


@dataclass
class NStepBatch:
    """A batch of n-step windows plus their flattened per-step transitions.

    ``discounts[i] == gamma ** len(window i)``. Per-step arrays are indexed by
    ``window_id`` (which window a step belongs to) and ``step_offset`` (its
    position k within the window, for the gamma^k weight).
    """

    states: np.ndarray
    actions: np.ndarray
    final_next_states: np.ndarray
    discounts: np.ndarray
    step_states: np.ndarray
    step_actions: np.ndarray
    step_next_states: np.ndarray
    step_rewards_env: np.ndarray
    window_id: np.ndarray
    step_offset: np.ndarray

    def __len__(self) -> int:
        return len(self.states)

    def nstep_rewards(self, step_rewards: np.ndarray, gamma: float) -> np.ndarray:
        """Fold per-step rewards into one discounted sum per window."""
        weighted = np.asarray(step_rewards, dtype=np.float64) * gamma**self.step_offset
        return np.bincount(self.window_id, weights=weighted, minlength=len(self))


class ReplayBuffer:
    """Uniform-sampling ring buffer aware of episode boundaries."""

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: list[Transition] = []
        self._episode_uid: list[int] = []
        self._cursor = 0
        self._current_episode = 0
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return len(self._items)

    def push(self, transition: Transition) -> None:
        uid = self._current_episode
        if transition.done:
            self._current_episode += 1
        if len(self._items) < self.capacity:
            self._items.append(transition)
            self._episode_uid.append(uid)
        else:
            self._items[self._cursor] = transition
            self._episode_uid[self._cursor] = uid
            self._cursor = (self._cursor + 1) % self.capacity

    def _chronological(self, logical: int) -> int:
        if len(self._items) < self.capacity:
            return logical
        return (self._cursor + logical) % self.capacity

    def sample_indices(self, batch_size: int) -> np.ndarray:
        return self._rng.integers(0, len(self._items), size=batch_size)

    def sample_transitions(self, batch_size: int) -> list[Transition]:
        if not self._items:
            raise ValueError("cannot sample from an empty buffer")
        return [self._items[self._chronological(int(i))] for i in self.sample_indices(batch_size)]

    def sample_states(self, batch_size: int) -> np.ndarray:
        return np.stack([t.state for t in self.sample_transitions(batch_size)])

    def sample_nstep(self, batch_size: int, n: int, gamma: float) -> NStepBatch:
        """Sample ``batch_size`` windows of up to ``n`` consecutive steps."""
        size = len(self._items)
        if size < n:
            raise ValueError(f"buffer holds {size} transitions, need at least n={n}")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        starts = self.sample_indices(batch_size)
        states, actions, final_next, discounts = [], [], [], []
        step_s, step_a, step_ns, step_r = [], [], [], []
        window_id, step_offset = [], []
        for w, start in enumerate(starts):
            first = self._items[self._chronological(int(start))]
            first_uid = self._episode_uid[self._chronological(int(start))]
            states.append(first.state)
            actions.append(first.action)
            length = 0
            last = first
            for k in range(n):
                logical = int(start) + k
                if logical >= size:
                    break
                idx = self._chronological(logical)
                if self._episode_uid[idx] != first_uid:
                    break
                t = self._items[idx]
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


class DemoFormatError(ValueError):
    """Malformed demonstration file."""


def save_demos(path, transitions: list[Transition], header_comment: str | None = None) -> None:
    if not transitions:
        raise ValueError("at least one transition required")
    with open(path, "w", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        for t in transitions:
            row = {
                "state": [float(v) for v in t.state],
                "action": [float(v) for v in t.action],
                "next_state": [float(v) for v in t.next_state],
                "reward_env": float(t.reward_env),
                "done": bool(t.done),
            }
            fh.write(json.dumps(row, separators=(",", ":")))
            fh.write("\n")


def load_demos(path) -> list[Transition]:
    """Read a demo file; every row must be finite and shaped like the first."""
    transitions: list[Transition] = []
    linenos: list[int] = []  # where each transition came from, for error messages
    offsets: list[int] = []
    offset = 0

    def malformed(i: int, why) -> DemoFormatError:
        return DemoFormatError(
            f"malformed demo file {path}: line {linenos[i]} (byte offset {offsets[i]}): {why}")

    with open(path, "rb") as fh:  # bytes: exact offsets, and bad UTF-8 fails inside the try
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith(b"#"):
                linenos.append(lineno)
                offsets.append(offset)
                try:
                    row = json.loads(stripped.decode("utf-8"))
                    transitions.append(Transition(
                        state=np.array(row["state"], dtype=np.float64),
                        action=np.array(row["action"], dtype=np.float64),
                        next_state=np.array(row["next_state"], dtype=np.float64),
                        reward_env=float(row["reward_env"]),
                        done=bool(row["done"]),
                    ))
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise malformed(-1, exc) from exc
            offset += len(line)
    if not transitions:
        raise DemoFormatError(f"demo file {path} is empty: at least one transition required")
    # vectorised whole-file checks keep loading fast; rows are located only on failure
    try:
        arrays = demo_arrays(transitions)
    except ValueError:
        shapes = [(t.state.shape, t.action.shape, t.next_state.shape) for t in transitions]
        i = next(i for i, s in enumerate(shapes) if s != shapes[0])
        raise malformed(i, f"state/action/next_state shapes {shapes[i]} differ from "
                           f"the first row's {shapes[0]}") from None
    finite = np.ones(len(transitions), dtype=bool)
    for arr in arrays:
        finite &= np.isfinite(arr.reshape(len(transitions), -1)).all(axis=1)
    if not finite.all():
        raise malformed(int(np.argmin(finite)), "NaN or Inf value")
    return transitions


def demo_arrays(transitions: list[Transition]):
    """Stack demo fields into (states, actions, next_states, rewards) arrays."""
    # np.array stacks in C; np.stack reshapes every row in Python first
    return (
        np.array([t.state for t in transitions]),
        np.array([t.action for t in transitions]),
        np.array([t.next_state for t in transitions]),
        np.array([t.reward_env for t in transitions]),
    )
