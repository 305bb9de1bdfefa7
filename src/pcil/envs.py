"""Self-contained continuous-control environments with scripted experts.

Two deterministic tasks at desk scale, one easy and one exploration-hard:

* ``point_mass`` -- a damped 2-D point pushed by bounded forces toward a goal
  at the origin; reward ``exp(-4 * distance^2)``.
* ``pendulum`` -- torque-limited swing-up; reward ``(cos(angle) + 1) / 2``
  with angle measured from upright.

Conventions shared by both: actions live in ``[-1, 1]^action_dim``, per-step
rewards in ``[0, 1]``, episodes run a fixed number of steps with no early
termination, and ``step`` is a pure function of (state, action). The physics
(and ``spec``) are class constants: ``EXPERT_REFERENCE_RETURN`` was measured
with these values and holds for no others.

``step``, ``observe`` and the scripted experts compute on Python floats: they
unpack the state and the action once, since numpy's per-call overhead dwarfs
a dozen flops on 2-4 numbers. ``step`` and ``observe`` return new arrays, the
experts lists of floats that ``expert_policy`` checks and wraps.
``reward_from_observation`` is the vectorised form of the reward ``step``
returns, for batches of observations; both evaluate one formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import is_integer, real_float64


@dataclass(frozen=True)
class EnvSpec:
    name: str
    state_dim: int
    action_dim: int
    episode_length: int
    dt: float


@dataclass
class EnvState:
    """Internal physical coordinates plus the step counter."""

    vector: np.ndarray
    step_index: int = 0


def _clipped_action(action, action_dim: int) -> list[float]:
    """The entries of ``action`` as Python floats clipped to ``[-1, 1]``.

    Any shape with ``action_dim`` real numbers is accepted. Another size, a
    dtype that is not one of real numbers (a string, a boolean, None) or a
    NaN entry raises ``ValueError``; +-inf is clipped like any other value.
    """
    values = real_float64(action, "action").ravel().tolist()
    if len(values) != action_dim:
        raise ValueError(f"action has {len(values)} entries, expected action_dim={action_dim}")
    if any(map(math.isnan, values)):
        raise ValueError(f"action {values} has a NaN entry")
    return [min(max(v, -1.0), 1.0) for v in values]


def _episode_rng(seed) -> np.random.Generator:
    if not is_integer(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def _observations(obs, spec: EnvSpec) -> np.ndarray:
    """``obs`` as float64 observations of the env of ``spec``: a last axis as
    wide as ``spec.state_dim``, or a ``ValueError`` naming the shape."""
    obs = real_float64(obs, "observation")
    if obs.ndim < 1 or obs.shape[-1] != spec.state_dim:
        raise ValueError(f"observation has shape {obs.shape}, "
                         f"expected a last axis of width {spec.state_dim}")
    return obs


def _point_mass_reward(x, y):
    # for floats and arrays alike: np.exp, as math.exp may differ in the last
    # bit, and x * x, which rounds once where ** may go through pow
    return np.exp(-4.0 * (x * x + y * y))


def _pendulum_reward(cos_theta):
    return (cos_theta + 1.0) / 2.0


class PointMass:
    """Damped point mass on the plane, goal at the origin.

    State (x, y, vx, vy); action (fx, fy) scaled by ``force_scale``.
    Semi-implicit Euler at dt=0.02 with linear drag; positions are clamped to
    a square arena (the velocity component into a wall is zeroed).
    Initial states: position uniform in ``[-start_halfwidth, +]^2``, at rest.
    """

    drag = 0.2
    force_scale = 4.0
    start_halfwidth = 0.8
    arena_halfwidth = 4.0
    spec = EnvSpec("point_mass", state_dim=4, action_dim=2, episode_length=300, dt=0.02)

    def reset(self, seed: int) -> EnvState:
        rng = _episode_rng(seed)
        pos = rng.uniform(-self.start_halfwidth, self.start_halfwidth, size=2)
        return EnvState(np.array([pos[0], pos[1], 0.0, 0.0]))

    def observe(self, state: EnvState) -> np.ndarray:
        return state.vector.copy()

    def _internal(self, obs: list[float]) -> list[float]:
        """The state behind an observation, the inverse of ``observe``."""
        return obs

    def reward_from_observation(self, obs: np.ndarray) -> np.ndarray:
        """Vectorised ground-truth reward; ``obs`` is (..., 4) real numbers.

        A position whose square overflows gives 0.0, as in ``step``.
        """
        obs = _observations(obs, self.spec)
        with np.errstate(over="ignore"):  # x * x is +inf and exp(-inf) is 0.0
            return _point_mass_reward(obs[..., 0], obs[..., 1])

    def step(self, state: EnvState, action) -> tuple[EnvState, float, bool]:
        if state.step_index >= self.spec.episode_length:
            raise ValueError("cannot step a finished episode")
        ax, ay = _clipped_action(action, self.spec.action_dim)
        x, y, vx, vy = state.vector.tolist()
        dt = self.spec.dt
        vx += dt * (self.force_scale * ax - self.drag * vx)
        vy += dt * (self.force_scale * ay - self.drag * vy)
        x += dt * vx
        y += dt * vy
        w = self.arena_halfwidth
        if x < -w or x > w:
            x = min(max(x, -w), w)
            vx = 0.0
        if y < -w or y > w:
            y = min(max(y, -w), w)
            vy = 0.0
        nxt = EnvState(np.array([x, y, vx, vy]), state.step_index + 1)
        reward = float(_point_mass_reward(x, y))
        done = nxt.step_index >= self.spec.episode_length
        return nxt, reward, done

    def _expert(self, x: float, y: float, vx: float, vy: float) -> list[float]:
        # saturated PD toward the goal behaves near-bang-bang far out and
        # critically damped close in
        kp, kd = 12.0, 5.0
        ax = (-kp * x - kd * vx) / self.force_scale
        ay = (-kp * y - kd * vy) / self.force_scale
        return [min(max(ax, -1.0), 1.0), min(max(ay, -1.0), 1.0)]


class Pendulum:
    """Torque-limited pendulum swing-up.

    Internal state (theta, theta_dot) with theta = 0 upright; observations are
    (cos(theta), sin(theta), theta_dot). The torque limit is well below the
    gravity torque, so the task needs energy pumping. Integration is
    semi-implicit Euler with ``substeps`` sub-iterations per control step,
    which keeps zero-torque/zero-damping energy drift under 1% per episode.
    Initial states: theta uniform in pi +/- 0.1, theta_dot in +/- 0.05.
    """

    gravity = 10.0
    mass = 1.0
    length = 1.0
    damping = 0.05
    torque_limit = 2.5
    substeps = 4
    spec = EnvSpec("pendulum", state_dim=3, action_dim=1, episode_length=400, dt=0.02)

    def reset(self, seed: int) -> EnvState:
        rng = _episode_rng(seed)
        theta = math.pi + rng.uniform(-0.1, 0.1)
        theta_dot = rng.uniform(-0.05, 0.05)
        return EnvState(np.array([theta, theta_dot]))

    def observe(self, state: EnvState) -> np.ndarray:
        theta, theta_dot = state.vector.tolist()
        return np.array([math.cos(theta), math.sin(theta), theta_dot])

    def _internal(self, obs: list[float]) -> list[float]:
        """(theta, theta_dot) behind an observation, the inverse of ``observe``
        with theta wrapped into [-pi, pi]."""
        cos_theta, sin_theta, theta_dot = obs
        return [math.atan2(sin_theta, cos_theta), theta_dot]

    def reward_from_observation(self, obs: np.ndarray) -> np.ndarray:
        obs = _observations(obs, self.spec)
        return _pendulum_reward(obs[..., 0])

    def _energy(self, theta: float, theta_dot: float) -> float:
        """Mechanical energy, zero level at the pivot."""
        ml2 = self.mass * self.length**2
        return 0.5 * ml2 * theta_dot**2 + self.mass * self.gravity * self.length * math.cos(theta)

    def step(self, state: EnvState, action) -> tuple[EnvState, float, bool]:
        if state.step_index >= self.spec.episode_length:
            raise ValueError("cannot step a finished episode")
        (a,) = _clipped_action(action, self.spec.action_dim)
        torque = a * self.torque_limit
        theta, theta_dot = state.vector.tolist()
        h = self.spec.dt / self.substeps
        g_over_l = self.gravity / self.length
        inv_ml2 = 1.0 / (self.mass * self.length**2)
        for _ in range(self.substeps):
            theta_dot += h * (
                g_over_l * math.sin(theta) + torque * inv_ml2 - self.damping * theta_dot
            )
            theta += h * theta_dot
        nxt = EnvState(np.array([theta, theta_dot]), state.step_index + 1)
        reward = _pendulum_reward(math.cos(theta))
        done = nxt.step_index >= self.spec.episode_length
        return nxt, reward, done

    def _expert(self, theta: float, theta_dot: float) -> list[float]:
        # bang-bang energy pumping slightly past the upright level, then PD
        # capture inside the cone the torque limit can actually hold
        wrapped = math.atan2(math.sin(theta), math.cos(theta))
        if abs(wrapped) < 0.3 and abs(theta_dot) < 2.0:
            u = (-30.0 * wrapped - 8.0 * theta_dot) / self.torque_limit
        else:
            target = 1.05 * self.mass * self.gravity * self.length
            deficit = target - self._energy(theta, theta_dot)
            direction = math.copysign(1.0, theta_dot) if abs(theta_dot) > 1e-3 else 1.0
            u = math.copysign(1.0, deficit) * direction
        return [min(max(u, -1.0), 1.0)]


_ENVS = {"point_mass": PointMass, "pendulum": Pendulum}

# Mean scripted-expert return over the frozen measurement protocol
# (20 episodes, reset seeds 100000+i); see tests/test_envs.py.
EXPERT_REFERENCE_RETURN = {
    "point_mass": 285.16228108456534,
    "pendulum": 223.64632491983866,
}


def env_names() -> list[str]:
    return sorted(_ENVS)


def make_env(name: str):
    """Instantiate an environment by name; its physics are the class's constants."""
    try:
        cls = _ENVS[name]
    except KeyError:
        raise ValueError(f"unknown environment {name!r}, expected one of {env_names()}")
    return cls()


def run_episode(env, policy, seed: int):
    """Roll one full episode; returns (transitions, total_env_reward).

    ``policy`` maps an observation vector to an action of real numbers, held
    as float64 (``step`` rejects any other dtype). Transitions are
    (obs, action, next_obs, reward, done) tuples.
    """
    state = env.reset(seed)
    obs = env.observe(state)
    transitions = []
    total = 0.0
    done = False
    while not done:
        action = real_float64(policy(obs), "action")
        state, reward, done = env.step(state, action)
        next_obs = env.observe(state)
        transitions.append((obs, action, next_obs, reward, done))
        total += reward
        obs = next_obs
    return transitions, total


def expert_policy(env):
    """Observation-to-action wrapper around the env's scripted controller.

    The controllers are written against internal state; this reconstructs it
    from the observation with the env's ``_internal`` so the expert can be
    used anywhere a policy fits. An observation of any shape with
    ``state_dim`` real numbers is accepted. One with a NaN or Inf entry, or
    one too large for the controller's arithmetic (a pendulum speed whose
    square overflows, point_mass PD terms that meet as -inf + inf), raises
    ``ValueError`` naming it.
    """
    state_dim = env.spec.state_dim

    def policy(obs):
        values = real_float64(obs, "observation").ravel().tolist()
        if len(values) != state_dim:
            raise ValueError(
                f"observation has {len(values)} entries, expected state_dim={state_dim}")
        if not all(map(math.isfinite, values)):
            raise ValueError(f"observation {values} has a NaN or Inf entry")
        try:
            action = env._expert(*env._internal(values))
            if all(map(math.isfinite, action)):
                return np.array(action)
        except OverflowError:  # Python's float ** raises where * would give inf
            pass
        raise ValueError(f"observation {values} is too large for the expert's arithmetic")

    return policy
