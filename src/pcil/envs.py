"""Self-contained continuous-control environments with scripted experts.

Two deterministic tasks at desk scale, one easy and one exploration-hard:

* ``point_mass`` -- a damped 2-D point pushed by bounded forces toward a goal
  at the origin; reward ``exp(-4 * distance^2)``.
* ``pendulum`` -- torque-limited swing-up; reward ``(cos(angle) + 1) / 2``
  with angle measured from upright.

Conventions shared by both: actions live in ``[-1, 1]^action_dim``, per-step
rewards in ``[0, 1]``, episodes run a fixed number of steps with no early
termination, and ``step`` is a pure function of (state, action).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


class PointMass:
    """Damped point mass on the plane, goal at the origin.

    State (x, y, vx, vy); action (fx, fy) scaled by ``force_scale``.
    Semi-implicit Euler at dt=0.02 with linear drag; positions are clamped to
    a square arena (the velocity component into a wall is zeroed).
    Initial states: position uniform in ``[-start_halfwidth, +]^2``, at rest.
    """

    def __init__(
        self,
        drag: float = 0.2,
        force_scale: float = 4.0,
        start_halfwidth: float = 0.8,
        arena_halfwidth: float = 4.0,
        episode_length: int = 300,
    ):
        self.spec = EnvSpec("point_mass", 4, 2, episode_length, 0.02)
        self.drag = drag
        self.force_scale = force_scale
        self.start_halfwidth = start_halfwidth
        self.arena_halfwidth = arena_halfwidth

    def reset(self, seed: int) -> EnvState:
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-self.start_halfwidth, self.start_halfwidth, size=2)
        return EnvState(np.array([pos[0], pos[1], 0.0, 0.0]))

    def observe(self, state: EnvState) -> np.ndarray:
        return state.vector.copy()

    def reward_from_observation(self, obs: np.ndarray) -> np.ndarray:
        """Vectorised ground-truth reward; ``obs`` is (..., 4)."""
        obs = np.asarray(obs, dtype=np.float64)
        d2 = obs[..., 0] ** 2 + obs[..., 1] ** 2
        return np.exp(-4.0 * d2)

    def step(self, state: EnvState, action) -> tuple[EnvState, float, bool]:
        if state.step_index >= self.spec.episode_length:
            raise ValueError("cannot step a finished episode")
        a = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
        x, y, vx, vy = state.vector
        dt = self.spec.dt
        vx += dt * (self.force_scale * a[0] - self.drag * vx)
        vy += dt * (self.force_scale * a[1] - self.drag * vy)
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
        reward = float(self.reward_from_observation(nxt.vector))
        done = nxt.step_index >= self.spec.episode_length
        return nxt, reward, done

    def expert_action(self, state: EnvState) -> np.ndarray:
        # saturated PD toward the goal behaves near-bang-bang far out and
        # critically damped close in
        x, y, vx, vy = state.vector
        kp, kd = 12.0, 5.0
        ax = (-kp * x - kd * vx) / self.force_scale
        ay = (-kp * y - kd * vy) / self.force_scale
        return np.clip(np.array([ax, ay]), -1.0, 1.0)


class Pendulum:
    """Torque-limited pendulum swing-up.

    Internal state (theta, theta_dot) with theta = 0 upright; observations are
    (cos(theta), sin(theta), theta_dot). The torque limit is well below the
    gravity torque, so the task needs energy pumping. Integration is
    semi-implicit Euler with ``substeps`` sub-iterations per control step,
    which keeps zero-torque/zero-damping energy drift under 1% per episode.
    Initial states: theta uniform in pi +/- 0.1, theta_dot in +/- 0.05.
    """

    def __init__(
        self,
        gravity: float = 10.0,
        mass: float = 1.0,
        length: float = 1.0,
        damping: float = 0.05,
        torque_limit: float = 2.5,
        substeps: int = 4,
        episode_length: int = 400,
    ):
        self.spec = EnvSpec("pendulum", 3, 1, episode_length, 0.02)
        self.gravity = gravity
        self.mass = mass
        self.length = length
        self.damping = damping
        self.torque_limit = torque_limit
        self.substeps = substeps

    def reset(self, seed: int) -> EnvState:
        rng = np.random.default_rng(seed)
        theta = math.pi + rng.uniform(-0.1, 0.1)
        theta_dot = rng.uniform(-0.05, 0.05)
        return EnvState(np.array([theta, theta_dot]))

    def observe(self, state: EnvState) -> np.ndarray:
        theta, theta_dot = state.vector
        return np.array([math.cos(theta), math.sin(theta), theta_dot])

    def reward_from_observation(self, obs: np.ndarray) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        return (obs[..., 0] + 1.0) / 2.0

    def energy(self, state: EnvState) -> float:
        """Mechanical energy, zero level at the pivot."""
        theta, theta_dot = state.vector
        ml2 = self.mass * self.length**2
        return 0.5 * ml2 * theta_dot**2 + self.mass * self.gravity * self.length * math.cos(theta)

    def step(self, state: EnvState, action) -> tuple[EnvState, float, bool]:
        if state.step_index >= self.spec.episode_length:
            raise ValueError("cannot step a finished episode")
        a = float(np.clip(np.asarray(action, dtype=np.float64).reshape(-1)[0], -1.0, 1.0))
        torque = a * self.torque_limit
        theta, theta_dot = state.vector
        h = self.spec.dt / self.substeps
        g_over_l = self.gravity / self.length
        inv_ml2 = 1.0 / (self.mass * self.length**2)
        for _ in range(self.substeps):
            theta_dot += h * (
                g_over_l * math.sin(theta) + torque * inv_ml2 - self.damping * theta_dot
            )
            theta += h * theta_dot
        nxt = EnvState(np.array([theta, theta_dot]), state.step_index + 1)
        reward = (math.cos(theta) + 1.0) / 2.0
        done = nxt.step_index >= self.spec.episode_length
        return nxt, reward, done

    def expert_action(self, state: EnvState) -> np.ndarray:
        # bang-bang energy pumping slightly past the upright level, then PD
        # capture inside the cone the torque limit can actually hold
        theta, theta_dot = state.vector
        wrapped = math.atan2(math.sin(theta), math.cos(theta))
        if abs(wrapped) < 0.3 and abs(theta_dot) < 2.0:
            u = (-30.0 * wrapped - 8.0 * theta_dot) / self.torque_limit
        else:
            target = 1.05 * self.mass * self.gravity * self.length
            deficit = target - self.energy(state)
            direction = math.copysign(1.0, theta_dot) if abs(theta_dot) > 1e-3 else 1.0
            u = math.copysign(1.0, deficit) * direction
        return np.clip(np.array([u]), -1.0, 1.0)


_ENVS = {"point_mass": PointMass, "pendulum": Pendulum}

# Mean scripted-expert return over the frozen measurement protocol
# (20 episodes, reset seeds 100000+i); see tests/test_envs.py.
EXPERT_REFERENCE_RETURN = {
    "point_mass": 285.16228108456534,
    "pendulum": 223.64632491983866,
}


def env_names() -> list[str]:
    return sorted(_ENVS)


def make_env(name: str, **physics):
    """Instantiate an environment by name with optional physics overrides."""
    try:
        cls = _ENVS[name]
    except KeyError:
        raise ValueError(f"unknown environment {name!r}, expected one of {env_names()}")
    return cls(**physics)


def run_episode(env, policy, seed: int):
    """Roll one full episode; returns (transitions, total_env_reward).

    ``policy`` maps an observation vector to an action. Transitions are
    (obs, action, next_obs, reward, done) tuples.
    """
    state = env.reset(seed)
    obs = env.observe(state)
    transitions = []
    total = 0.0
    done = False
    while not done:
        action = np.asarray(policy(obs), dtype=np.float64)
        state, reward, done = env.step(state, action)
        next_obs = env.observe(state)
        transitions.append((obs, action, next_obs, reward, done))
        total += reward
        obs = next_obs
    return transitions, total


def expert_policy(env):
    """Observation-to-action wrapper around the env's scripted controller.

    The controllers are written against internal state; this reconstructs it
    from the observation so the expert can be used anywhere a policy fits.
    """

    def policy(obs):
        obs = np.asarray(obs, dtype=np.float64)
        if env.spec.name == "point_mass":
            return env.expert_action(EnvState(obs.copy()))
        theta = math.atan2(obs[1], obs[0])
        return env.expert_action(EnvState(np.array([theta, obs[2]])))

    return policy
