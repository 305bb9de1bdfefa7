"""Reference checks on the program's outputs.

The benchmark runs these outside the timed spans; every problem they
return fails the operation it belongs to. The references are the
benchmark's own, written as plain loops over its own record of what it
pushed, so they do not share code with the implementation they check.
"""

from __future__ import annotations

import math

import numpy as np

from pcil.replay import Transition

#: Relative tolerance for quantities a faithful rewrite may compute in
#: another order (discounts, discounted sums): a few float64 ulps.
REL_TOL = 1e-12


def _key(state, action) -> tuple[bytes, bytes]:
    return (np.asarray(state, dtype=np.float64).tobytes(),
            np.asarray(action, dtype=np.float64).tobytes())


class PushLog:
    """The benchmark's record of every transition pushed into one replay ring.

    It mirrors the ring: the newest ``capacity`` pushes are held, older
    ones have been overwritten. A transition is identified by its
    (state, action) bytes, which continuous action noise keeps unique.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.items: list = []  # (transition, episode number); None once overwritten
        self.where: dict = {}
        self.episode = 0

    def record(self, transitions) -> None:
        for t in transitions:
            i = len(self.items)
            key = _key(t.state, t.action)
            if key in self.where:
                raise RuntimeError(f"push {i} repeats the (state, action) of push {self.where[key]}")
            self.items.append((t, self.episode))
            self.where[key] = i
            if t.done:
                self.episode += 1
            if i >= self.capacity:
                old, _ = self.items[i - self.capacity]
                del self.where[_key(old.state, old.action)]
                self.items[i - self.capacity] = None

    def window(self, start: int, n: int) -> list[Transition]:
        """Up to ``n`` held transitions from ``start`` on, inside one episode."""
        steps = []
        episode = self.items[start][1]
        for i in range(start, min(start + n, len(self.items))):
            t, ep = self.items[i]
            if ep != episode:
                break
            steps.append(t)
            if t.done:
                break
        return steps


def check_windows(batch, log: PushLog, n: int, gamma: float) -> list[str]:
    """Every sampled window equals the one the push record gives for its start."""
    problems = []
    lengths = np.bincount(batch.window_id, minlength=len(batch))
    expected = []
    for w in range(len(batch)):
        start = log.where.get(_key(batch.states[w], batch.actions[w]))
        if start is None:
            problems.append(f"window {w} starts at a transition the ring does not hold")
            continue
        steps = log.window(start, n)
        if lengths[w] != len(steps):
            problems.append(f"window {w} has {lengths[w]} steps, the record gives {len(steps)}")
            continue
        if not np.array_equal(batch.final_next_states[w], steps[-1].next_state):
            problems.append(f"window {w}: final next state differs from the record")
        if not math.isclose(batch.discounts[w], gamma ** len(steps), rel_tol=REL_TOL):
            problems.append(f"window {w}: discount {batch.discounts[w]!r} is not gamma^{len(steps)}")
        expected.extend((w, k, t) for k, t in enumerate(steps))
    if problems:
        return problems
    fields = [
        ("step_states", [t.state for _, _, t in expected]),
        ("step_actions", [t.action for _, _, t in expected]),
        ("step_next_states", [t.next_state for _, _, t in expected]),
        ("step_rewards_env", [t.reward_env for _, _, t in expected]),
        ("window_id", [w for w, _, _ in expected]),
        ("step_offset", [k for _, k, _ in expected]),
    ]
    for field, values in fields:
        if not np.array_equal(getattr(batch, field), np.array(values)):
            problems.append(f"batch.{field} differs from the push record")
    return problems


def check_nstep(batch, step_rewards, returns, gamma: float) -> list[str]:
    """``nstep_rewards`` equals a plain loop over the steps."""
    expected = [0.0] * len(batch)
    for r, w, k in zip(step_rewards, batch.window_id, batch.step_offset):
        expected[int(w)] += float(r) * gamma ** int(k)
    if not np.allclose(returns, expected, rtol=REL_TOL, atol=REL_TOL):
        return ["nstep_rewards differs from the plain loop"]
    return []


def check_rewards(rewards) -> list[str]:
    """Cosine rewards are finite and inside [-1, 1]."""
    rewards = np.asarray(rewards)
    if not np.all(np.isfinite(rewards)):
        return ["similarity reward is not finite"]
    if np.any(np.abs(rewards) > 1.0 + 1e-9):
        return ["similarity reward lies outside [-1, 1]"]
    return []


def check_finite(**values) -> list[str]:
    return [f"{name} = {value!r} is not finite"
            for name, value in values.items() if not math.isfinite(value)]


def check_reload(saved: dict, loaded: dict) -> list[str]:
    """A reloaded checkpoint holds the same groups, names and bytes as the saved one."""
    if sorted(saved) != sorted(loaded):
        return [f"checkpoint groups {sorted(loaded)} differ from {sorted(saved)}"]
    problems = []
    for group, params in saved.items():
        names = list(params.names())
        if names != list(loaded[group].names()):
            problems.append(f"checkpoint group {group!r} lists other tensors")
            continue
        for name in names:
            a, b = params[name], loaded[group][name]
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                problems.append(f"checkpoint tensor {group}/{name} is not bit-identical")
    return problems


def check_sandwich(report, p, q, witness_value: float) -> list[str]:
    """Both sandwich sides hold and the estimate clears the beta=0.5 witness."""
    problems = []
    tv = 0.5 * float(np.abs(p - q).sum())
    if not math.isclose(report.tv, tv, rel_tol=REL_TOL, abs_tol=REL_TOL):
        problems.append(f"tv {report.tv!r} differs from the reference {tv!r}")
    if not (report.lower_ok and report.upper_ok):
        problems.append(f"sandwich failed: lower_ok={report.lower_ok} upper_ok={report.upper_ok}")
    if not math.isfinite(report.d_cont_est) or report.d_cont_est < witness_value - REL_TOL:
        problems.append(f"estimate {report.d_cont_est!r} is below the witness {witness_value!r}")
    return problems
