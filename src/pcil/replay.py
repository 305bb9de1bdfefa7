"""Transition storage: agent replay ring, expert demo store, demo file I/O.

The replay buffer hands out n-step windows as raw per-step transitions so
rewards can be relabelled by whatever reward function is current at sampling
time; nothing reward-related is baked in. It stores one preallocated array
per field and builds every window by index arithmetic over the ring. Windows
never cross an episode boundary: each slot carries an episode id, and a
window keeps only the steps that share its first step's id, so one that
would run past a terminal transition is truncated there and its bootstrap
discount shrinks to gamma^(actual length).

Demonstrations are JSON Lines, one transition per line. The loader skips
lines that start with ``#``, so a hand-written comment may sit among them.
Human-inspectable and diff-friendly; desk scale makes compactness irrelevant.
"""

from __future__ import annotations

import json
import math
import mmap
import numbers
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


def _check_gamma(gamma) -> None:
    if not isinstance(gamma, numbers.Real) or not 0.0 <= gamma <= 1.0:  # NaN fails too
        raise ValueError(f"gamma must be a finite value in [0, 1], got {gamma!r}")


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
        """Fold per-step rewards, one per step of the batch, into one sum per
        window discounted by ``gamma``, a finite value in [0, 1]."""
        rewards = np.asarray(step_rewards, dtype=np.float64)
        if rewards.shape != self.step_offset.shape:
            raise ValueError(f"step_rewards has shape {rewards.shape}, the batch has "
                             f"{len(self.step_offset)} steps: expected shape {self.step_offset.shape}")
        _check_gamma(gamma)
        weighted = rewards * gamma**self.step_offset
        return np.bincount(self.window_id, weights=weighted, minlength=len(self))


class ReplayBuffer:
    """Uniform-sampling ring of transitions, one array per field.

    The ring holds ``state``, ``action``, ``next_state`` and ``reward_env``
    arrays plus an int64 episode id per slot. They are allocated on the first
    push, shaped by it; every later push must have the same shapes. ``done``
    is not stored: the id goes up right after a done push, so a window is the
    run of chronologically consecutive slots that share its first slot's id,
    cut at the newest transition.

    Each field lives on its own anonymous memory map (``_zeros``), so a page
    of a large ring becomes resident only when a push first writes to it. A
    ``np.zeros`` ring gives no such promise: calloc maps fresh zero pages
    lazily only when it takes the block from the system, and hands out (and
    clears, making resident) freed heap it already holds, so the ring's
    resident size would depend on what the process allocated before.
    """

    def __init__(self, capacity: int, seed: int = 0):
        if not isinstance(capacity, (int, np.integer)) or capacity < 1:
            raise ValueError(f"capacity must be a positive integer, got {capacity!r}")
        self.capacity = int(capacity)
        self._size = 0
        self._next = 0  # the slot the next push writes
        self._episode_now = 0
        self._shapes: tuple | None = None  # of state, action, next_state
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        t = transition
        shapes = (np.shape(t.state), np.shape(t.action), np.shape(t.next_state))
        if self._shapes is None:
            self._shapes = shapes
            self._state, self._action, self._next_state = (
                _zeros((self.capacity, *shape)) for shape in shapes)
            self._reward_env = _zeros((self.capacity,))
            self._episode = _zeros((self.capacity,), np.int64)
        if shapes != self._shapes:
            for name, got, held in zip(("state", "action", "next_state"), shapes, self._shapes):
                if got != held:
                    raise ValueError(f"push: {name} has shape {got}, the ring holds {held}")
        slot = self._next
        self._state[slot] = t.state
        self._action[slot] = t.action
        self._next_state[slot] = t.next_state
        self._reward_env[slot] = t.reward_env
        self._episode[slot] = self._episode_now
        if t.done:
            self._episode_now += 1
        self._next = (slot + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample_indices(self, batch_size: int) -> np.ndarray:
        """Uniform logical indices, 0 the oldest held transition."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        return self._rng.integers(0, self._size, size=batch_size)

    def sample_nstep(self, batch_size: int, n: int, gamma: float) -> NStepBatch:
        """Sample ``batch_size`` windows of up to ``n`` consecutive steps,
        discounted by ``gamma``, a finite value in [0, 1]."""
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        size = self._size
        if size < n:
            raise ValueError(f"buffer holds {size} transitions, need at least n={n}")
        if not isinstance(batch_size, (int, np.integer)) or batch_size < 1:
            raise ValueError(f"batch_size must be a positive integer, got {batch_size!r}")
        _check_gamma(gamma)
        oldest = self._next if size == self.capacity else 0
        logical = self.sample_indices(batch_size)[:, None] + np.arange(n)
        slot = (oldest + np.minimum(logical, size - 1)) % self.capacity
        episode = self._episode[slot]
        # ids never decrease along a row, so this mask is a prefix of it
        keep = (logical < size) & (episode == episode[:, :1])
        window_id, step_offset = np.nonzero(keep)
        steps = slot[keep]
        lengths = keep.sum(axis=1)
        first, last = slot[:, 0], slot[np.arange(batch_size), lengths - 1]
        # Python's float pow: numpy's 0.99**3.0 is one ulp away from it
        powers = np.array([gamma**k for k in range(n + 1)])
        return NStepBatch(
            states=self._state[first],
            actions=self._action[first],
            final_next_states=self._next_state[last],
            discounts=powers[lengths],
            step_states=self._state[steps],
            step_actions=self._action[steps],
            step_next_states=self._next_state[steps],
            step_rewards_env=self._reward_env[steps],
            window_id=window_id,
            step_offset=step_offset.astype(np.float64),
        )


#: Private pages where the platform has the flag (POSIX). ``mmap``'s default
#: there is a shared map: its pages are kept as shared memory, and a forked
#: child would write into the parent's ring.
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _zeros(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A zero-filled array on an anonymous memory map of its own.

    The kernel maps a page of it on the first write, and unmaps the whole map
    when the array is freed. ``mmap`` rejects a length of 0, so an empty
    array is an ordinary one.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes == 0:
        return np.zeros(shape, dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes, **_PRIVATE), dtype=dtype).reshape(shape)


class DemoFormatError(ValueError):
    """Malformed demonstration file."""


def save_demos(path, transitions: list[Transition]) -> None:
    """Write ``transitions`` to ``path``, one JSON row each, as ``load_demos`` reads them.

    Numpy arrays and scalars become Python values and nothing is coerced, so a
    row that breaks ``load_demos``' rules raises ``DemoFormatError`` naming its
    transition before ``path`` is opened.
    """
    rows = ({"state": _plain(t.state), "action": _plain(t.action), "next_state": _plain(t.next_state),
             "reward_env": _plain(t.reward_env), "done": _plain(t.done)} for t in transitions)
    checked = _validated(rows, f"cannot save demos to {path}", "transition {}".format)
    with open(path, "w", encoding="utf-8") as fh:
        for t in checked:
            row = {"state": t.state.tolist(), "action": t.action.tolist(),
                   "next_state": t.next_state.tolist(), "reward_env": t.reward_env, "done": t.done}
            fh.write(_ENCODER.encode(row) + "\n")


def load_demos(path) -> list[Transition]:
    """Read a demo file; every row must be finite and shaped like the first.

    In each row, ``state``, ``action`` and ``next_state`` must be lists of
    JSON numbers, ``reward_env`` a number and ``done`` a boolean. Anything
    else (a string, a boolean among the numbers, a bare number for a list)
    raises ``DemoFormatError`` naming the line and its byte offset, as do a
    ragged or non-finite row.
    """
    places = []  # the line number and byte offset of each row

    def rows(fh):
        offset = 0
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith(b"#"):
                places.append((lineno, offset))
                yield json.loads(stripped.decode("utf-8"))
            offset += len(line)

    with open(path, "rb") as fh:  # bytes: exact offsets, and bad UTF-8 fails as its row's ValueError
        return _validated(rows(fh), f"malformed demo file {path}",
                          lambda i: "line {} (byte offset {})".format(*places[i]))


#: One encoder for all rows (``json.dumps`` with options makes one a call); a row holds no cycle.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False)
_BOOLEANS = frozenset({bool, np.bool_})
_NUMPY = (np.ndarray, np.generic)


def _plain(value):
    """A numpy array or scalar as Python values; anything else as it is."""
    return value.tolist() if isinstance(value, _NUMPY) else value


def _validated(rows, source: str, row_name) -> list[Transition]:
    """Demo ``rows``, taken as they come, as transitions of float64 vectors, by
    ``load_demos``' rules. A row that breaks one raises ``DemoFormatError``
    naming ``source`` and ``row_name(i)``, i its index."""
    transitions: list[Transition] = []
    try:
        for row in rows:  # a row that fails to parse raises here too
            transitions.append(Transition(
                state=_numbers(row, "state"),
                action=_numbers(row, "action"),
                next_state=_numbers(row, "next_state"),
                reward_env=float(_typed(row, "reward_env", (int, float), "a number")),
                done=_typed(row, "done", (bool,), "true or false"),
            ))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DemoFormatError(f"{source}: {row_name(len(transitions))}: {exc}") from exc
    if not transitions:
        raise DemoFormatError(f"{source}: at least one transition required")
    # vectorised whole-set checks keep this fast; rows are located only on failure
    try:
        arrays = demo_arrays(transitions)
    except ValueError:
        shapes = [(t.state.shape, t.action.shape, t.next_state.shape) for t in transitions]
        i = next(i for i, s in enumerate(shapes) if s != shapes[0])
        raise DemoFormatError(f"{source}: {row_name(i)}: state/action/next_state shapes "
                              f"{shapes[i]} differ from the first row's {shapes[0]}") from None
    finite = np.logical_and.reduce(
        [np.isfinite(arr.reshape(len(transitions), -1)).all(axis=1) for arr in arrays])
    if not finite.all():
        raise DemoFormatError(f"{source}: {row_name(int(np.argmin(finite)))}: NaN or Inf value")
    return transitions


def _numbers(row: dict, key: str) -> np.ndarray:
    """``row[key]``, a list of numbers, as a float64 vector."""
    raw = row[key]
    values = np.array(raw)
    kind = values.dtype.kind
    # numpy gives a string, a null or a nested list another dtype or rank, and
    # a list of booleans a bool array; a boolean among numbers (Python's or
    # numpy's) becomes a number, so the element types are looked at too (in C)
    if values.ndim != 1 or kind not in "iuf" or not _BOOLEANS.isdisjoint(map(type, raw)):
        raise TypeError(f"{key!r} must be a list of numbers, got {raw!r}")
    return values if values.dtype == np.float64 else values.astype(np.float64)  # float32 items too


def _typed(row: dict, key: str, types: tuple, what: str):
    """``row[key]``, whose type must be one of ``types`` exactly: a bool,
    though an int subclass, is no number."""
    value = row[key]
    if type(value) not in types:
        raise TypeError(f"{key!r} must be {what}, got {value!r}")
    return value


def demo_arrays(transitions: list[Transition]):
    """Stack demo fields into (states, actions, next_states, rewards) arrays."""
    # np.array stacks in C; np.stack reshapes every row in Python first
    return (
        np.array([t.state for t in transitions]),
        np.array([t.action for t in transitions]),
        np.array([t.next_state for t in transitions]),
        np.array([t.reward_env for t in transitions]),
    )
