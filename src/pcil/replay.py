"""Transition storage: agent replay ring, expert demo store, demo file I/O.

The replay buffer hands out n-step windows as raw per-step transitions so
rewards can be relabelled by whatever reward function is current at sampling
time; nothing reward-related is baked in. It stores one preallocated array
per field and builds every window by index arithmetic over the ring. Windows
never cross an episode boundary: each slot carries an episode id, and a
window keeps only the steps that share its first step's id, so one that
would run past a terminal transition is truncated there and its bootstrap
discount shrinks to gamma^(actual length).

A demo file is a checkpoint (``pcil.checkpoint``) of five tensors, one row
or value per transition: ``state``, ``action``, ``next_state``,
``reward_env`` and ``done``. So demos share the container's typed errors,
atomic writes and bit-exact float64 payloads. ``save_demos`` checks each
field's whole column at once, and walks a column's values one by one only if
that check fails, to name the first transition that breaks a rule.
``load_demos`` adds to the container's checks only the rules of a demo set.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ._checks import BOOLEANS, is_integer, is_real, real_float64
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint


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


def _checked_gamma(gamma) -> float:
    """``gamma`` as a Python float, if it is a real number in [0, 1] and no boolean."""
    if not (is_real(gamma) and 0.0 <= gamma <= 1.0):  # NaN fails too
        raise ValueError(f"gamma must be a finite value in [0, 1], got {gamma!r}")
    return float(gamma)


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
        """Fold per-step rewards, one finite real number per step of the batch,
        into one sum per window discounted by ``gamma``, a finite value in [0, 1]."""
        rewards = real_float64(step_rewards, "step_rewards")
        if rewards.shape != self.step_offset.shape:
            raise ValueError(f"step_rewards has shape {rewards.shape}, the batch has "
                             f"{len(self.step_offset)} steps: expected shape {self.step_offset.shape}")
        finite = np.isfinite(rewards)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"step_rewards step {i} is {float(rewards[i])}, not a finite number")
        gamma = _checked_gamma(gamma)
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
        if not is_integer(capacity) or capacity < 1:
            raise ValueError(f"capacity must be a positive integer, got {capacity!r}")
        if not is_integer(seed) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.capacity = int(capacity)
        self._size = 0
        self._next = 0  # the slot the next push writes
        self._episode_now = 0
        self._shapes: tuple | None = None  # of state, action, next_state
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        """Write ``transition``, whose vectors hold real numbers, ``reward_env``
        a finite real number and ``done`` a boolean, into the next slot; a value
        that breaks a rule raises ``ValueError`` before anything is written."""
        t = transition
        state, action, next_state = (real_float64(t.state, "push: state"),
                                     real_float64(t.action, "push: action"),
                                     real_float64(t.next_state, "push: next_state"))
        if not (is_real(t.reward_env) and math.isfinite(t.reward_env)):
            raise ValueError(f"push: reward_env must be a finite real number, got {t.reward_env!r}")
        if type(t.done) not in BOOLEANS:  # "False" and 0.5 would end an episode
            raise ValueError(f"push: done must be True or False, not a value of type "
                             f"{type(t.done).__name__}")
        shapes = (state.shape, action.shape, next_state.shape)
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
        self._state[slot] = state
        self._action[slot] = action
        self._next_state[slot] = next_state
        self._reward_env[slot] = t.reward_env
        self._episode[slot] = self._episode_now
        if t.done:
            self._episode_now += 1
        self._next = (slot + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def _sample_indices(self, batch_size: int) -> np.ndarray:
        """Uniform logical indices, 0 the oldest held; ``sample_nstep`` checks the counts."""
        return self._rng.integers(0, self._size, size=batch_size)

    def sample_nstep(self, batch_size: int, n: int, gamma: float) -> NStepBatch:
        """Sample ``batch_size`` windows of up to ``n`` consecutive steps,
        discounted by ``gamma``, a finite value in [0, 1]."""
        if not is_integer(n) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        size = self._size
        if size < n:
            raise ValueError(f"buffer holds {size} transitions, need at least n={n}")
        if not is_integer(batch_size) or batch_size < 1:
            raise ValueError(f"batch_size must be a positive integer, got {batch_size!r}")
        gamma = _checked_gamma(gamma)
        oldest = self._next if size == self.capacity else 0
        logical = self._sample_indices(batch_size)[:, None] + np.arange(n)
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
    """Malformed demonstration file, or a demo set that cannot be saved."""


#: The tensors of a demo file, in the order a ``Transition`` holds its fields,
#: and the rank of each: a row per transition, or one value per transition
_RANKS = {"state": 2, "action": 2, "next_state": 2, "reward_env": 1, "done": 1}


def save_demos(path, transitions: list[Transition]) -> None:
    """Write ``transitions`` to ``path`` as the five tensors ``load_demos`` reads.

    ``state``, ``action`` and ``next_state`` must each be a flat list (or
    array) of real numbers, as wide in every transition as in the first, and
    ``next_state`` as wide as ``state``; ``reward_env`` a real number,
    ``done`` a Python or numpy boolean, and every value finite. Vectors and
    rewards are read by the package's one number rule, ``real_float64``, so
    nothing is coerced: a value it rejects (a string, a boolean among the
    numbers, an object array), a bare number for a list or a nested list
    raises ``DemoFormatError`` naming the field, the first transition that
    holds one and the rule it breaks (in ``real_float64``'s words, or the
    rank found), before ``path`` is touched.
    ``save_checkpoint`` then writes the file atomically, ``done`` as 0.0 or
    1.0.
    """
    source = f"cannot save demos to {path}"
    if not transitions:
        raise DemoFormatError(f"{source}: at least one transition required")
    tensors = {field: _column(transitions, field, source) for field in _RANKS if field != "done"}
    widths = tensors["state"].shape[1], tensors["next_state"].shape[1]
    if widths[0] != widths[1]:  # every transition's widths are the first's by now
        raise DemoFormatError(f"{source}: transition 0: 'next_state' has {widths[1]} values, "
                              f"'state' has {widths[0]}")
    done = list(map(attrgetter("done"), transitions))
    if not BOOLEANS.issuperset(map(type, done)):  # a 0/1 tensor cannot tell 'false' from False
        i = next(i for i, value in enumerate(done) if type(value) not in BOOLEANS)
        raise DemoFormatError(f"{source}: transition {i}: 'done' must be True or False, "
                              f"not a value of type {type(done[i]).__name__}")
    tensors["done"] = np.array(done, dtype=np.float64)
    save_checkpoint(path, tensors)


def load_demos(path) -> list[Transition]:
    """Read the demo set ``save_demos`` wrote to ``path``.

    A file the checkpoint container rejects (truncated, bad magic, trailing
    bytes, a NaN or Inf, ...) raises ``DemoFormatError`` chained from the
    ``CheckpointError``. The file must then hold exactly the tensors
    ``state`` (N, S), ``action`` (N, A), ``next_state`` (N, S),
    ``reward_env`` (N,) and ``done`` (N,), with N >= 1 and every ``done`` 0
    or 1; a file that breaks one of these rules raises ``DemoFormatError``
    naming the tensor and, where there is one, the first bad row. Each
    transition's vectors are rows of the loaded float64 tensors.
    """
    source = f"malformed demo file {path}"
    try:
        tensors = load_checkpoint(path)
    except CheckpointError as exc:
        raise DemoFormatError(f"{source}: {exc}") from exc
    for name in _RANKS:
        if name not in tensors:
            raise DemoFormatError(f"{source}: no tensor {name!r}")
    for name in tensors:
        if name not in _RANKS:
            raise DemoFormatError(f"{source}: unexpected tensor {name!r}")
    state, action, next_state, reward_env, done = (tensors[name] for name in _RANKS)
    for name, rank in _RANKS.items():
        shape = tensors[name].shape
        if len(shape) != rank:
            raise DemoFormatError(f"{source}: tensor {name!r} has shape {shape}, "
                                  f"expected rank {rank}")
        if shape[0] != len(state):
            raise DemoFormatError(f"{source}: tensor {name!r} has {shape[0]} rows, "
                                  f"'state' has {len(state)}")
    if not len(state):
        raise DemoFormatError(f"{source}: the tensors hold no transition, at least one required")
    if next_state.shape[1] != state.shape[1]:
        raise DemoFormatError(f"{source}: tensor 'next_state' has width {next_state.shape[1]}, "
                              f"'state' has {state.shape[1]}")
    flags = (done == 0.0) | (done == 1.0)
    if not flags.all():
        i = int(np.argmin(flags))
        raise DemoFormatError(f"{source}: tensor 'done' row {i}: {float(done[i])} is neither 0 nor 1")
    return list(map(Transition, state, action, next_state, reward_env.tolist(),
                    (done == 1.0).tolist()))


def _column(transitions: list[Transition], field: str, source: str) -> np.ndarray:
    """``field`` of every transition as a float64 array of its rank in a demo
    file. A value that breaks ``save_demos``' rules raises ``DemoFormatError``
    naming ``source``, the first transition that holds one and the rule."""
    column = list(map(attrgetter(field), transitions))
    rank = _RANKS[field]
    try:
        values = real_float64(column, field)
    except ValueError:
        values = None
    if values is None or values.ndim != rank:  # walk the values, to name the first bad one
        for i, value in enumerate(column):
            where = f"{source}: transition {i}: {field!r}"
            try:
                row = real_float64(value, where)
            except ValueError as exc:
                raise DemoFormatError(str(exc)) from exc
            if row.ndim != rank - 1:
                what = "a flat list of numbers" if rank == 2 else "a number"
                raise DemoFormatError(f"{where} must be {what}, not a value of rank {row.ndim}")
            if i == 0:
                first = row
            elif rank == 2 and len(row) != len(first):
                raise DemoFormatError(f"{where} has {len(row)} values, the first transition's "
                                      f"has {len(first)}: widths differ")
        raise DemoFormatError(f"{source}: {field!r} fails a whole-set check that no transition "
                              "fails alone")
    finite = np.isfinite(values.reshape(len(values), -1)).all(axis=1)
    if not finite.all():
        raise DemoFormatError(f"{source}: transition {int(np.argmin(finite))}: {field!r} "
                              "holds NaN or Inf")
    return values


def demo_arrays(transitions: list[Transition]):
    """Stack demo fields into (states, actions, next_states, rewards) arrays."""
    # np.array stacks in C; np.stack reshapes every row in Python first
    return (
        np.array([t.state for t in transitions]),
        np.array([t.action for t in transitions]),
        np.array([t.next_state for t in transitions]),
        np.array([t.reward_env for t in transitions]),
    )
