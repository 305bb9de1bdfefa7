import itertools
import math
import re
import warnings

import numpy as np
import pytest

from pcil import envs
from pcil.envs import (
    EXPERT_REFERENCE_RETURN,
    EnvState,
    expert_policy,
    make_env,
    run_episode,
)


def test_reset_is_deterministic():
    env = make_env("point_mass")
    a, b = env.reset(7), env.reset(7)
    np.testing.assert_array_equal(a.vector, b.vector)
    assert a.step_index == 0 and b.step_index == 0


def test_pendulum_reset_distribution():
    env = make_env("pendulum")
    for seed in range(200):
        state = env.reset(seed)
        theta, theta_dot = state.vector
        assert math.pi - 0.1 <= theta <= math.pi + 0.1
        assert -0.05 <= theta_dot <= 0.05
        assert state.step_index == 0


def test_point_mass_at_goal_full_reward():
    env = make_env("point_mass")
    state = EnvState(np.zeros(4))
    _, reward, _ = env.step(state, np.zeros(2))
    assert reward == pytest.approx(1.0, abs=1e-12)


def test_pendulum_hanging_zero_reward():
    env = make_env("pendulum")
    state = EnvState(np.array([math.pi, 0.0]))
    _, reward, _ = env.step(state, np.zeros(1))
    assert reward == pytest.approx((math.cos(math.pi) + 1.0) / 2.0, abs=1e-12)
    assert reward == pytest.approx(0.0, abs=1e-12)


def test_point_mass_rest_is_fixed_point():
    env = make_env("point_mass")
    state = EnvState(np.array([0.3, -0.4, 0.0, 0.0]))
    nxt, _, _ = env.step(state, np.zeros(2))
    np.testing.assert_array_equal(nxt.vector[:2], state.vector[:2])
    np.testing.assert_array_equal(nxt.vector[2:], [0.0, 0.0])


def test_step_is_pure_function():
    env = make_env("pendulum")
    state = EnvState(np.array([2.0, 0.5]), step_index=10)
    action = np.array([0.3])
    out1 = env.step(EnvState(state.vector.copy(), 10), action)
    out2 = env.step(EnvState(state.vector.copy(), 10), action)
    np.testing.assert_array_equal(out1[0].vector, out2[0].vector)
    assert out1[1] == out2[1] and out1[2] == out2[2]


def test_stepping_done_state_rejected():
    env = make_env("point_mass")
    state = EnvState(np.zeros(4), step_index=env.spec.episode_length)
    with pytest.raises(ValueError, match="finished"):
        env.step(state, np.zeros(2))


def test_stepping_a_finished_pendulum_episode_rejected():
    env = make_env("pendulum")
    state = EnvState(env.reset(0).vector, step_index=env.spec.episode_length)
    with pytest.raises(ValueError, match="finished"):
        env.step(state, np.zeros(1))


def test_actions_outside_box_are_clipped():
    for name, bound in [("point_mass", [1.0, -1.0]), ("pendulum", [1.0]), ("pendulum", [-1.0])]:
        env = make_env(name)
        state = env.reset(0)
        clipped, _, _ = env.step(state, np.array(bound))
        for scale in (10.0, math.inf):
            big, _, _ = env.step(state, scale * np.array(bound))
            np.testing.assert_array_equal(big.vector, clipped.vector)


@pytest.mark.parametrize("name, action", [
    ("point_mass", [0.5]), ("point_mass", [0.1, 0.2, 0.3]), ("pendulum", []), ("pendulum", [0.1, 0.2]),
])
def test_step_rejects_an_action_of_the_wrong_size(name, action):
    env = make_env(name)
    size = f"{len(action)} entries, expected action_dim={env.spec.action_dim}"
    with pytest.raises(ValueError, match=size):
        env.step(env.reset(0), np.array(action))


@pytest.mark.parametrize("name, shape", [("point_mass", (1, 2)), ("point_mass", (2, 1)),
                                         ("pendulum", (1, 1))])
def test_step_takes_an_action_of_any_shape_with_action_dim_entries(name, shape):
    env = make_env(name)
    state = env.reset(0)
    flat = np.linspace(-0.6, 0.4, env.spec.action_dim)
    expected, _, _ = env.step(state, flat)
    got, _, _ = env.step(state, flat.reshape(shape))
    np.testing.assert_array_equal(got.vector, expected.vector)


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
def test_step_rejects_a_nan_action(name):
    env = make_env(name)
    action = np.zeros(env.spec.action_dim)
    action[-1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        env.step(env.reset(0), action)


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
@pytest.mark.parametrize("seed", [True, 1.5, -1, "7", None])
def test_reset_rejects_a_seed_that_is_no_non_negative_integer(name, seed):
    match = re.escape(f"seed must be a non-negative integer, got {seed!r}")
    with pytest.raises(ValueError, match=match):
        make_env(name).reset(seed)


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
def test_reset_takes_a_numpy_integer_seed(name):
    env = make_env(name)
    np.testing.assert_array_equal(env.reset(np.int64(7)).vector, env.reset(7).vector)


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
def test_expert_policy_rejects_an_observation_of_the_wrong_width(name):
    env = make_env(name)
    policy = expert_policy(env)
    obs = env.observe(env.reset(0))
    for wrong in (obs[:-1], np.append(obs, 0.0)):
        with pytest.raises(ValueError, match=f"expected state_dim={env.spec.state_dim}"):
            policy(wrong)


@pytest.mark.parametrize("name,entry", [
    ("point_mass", 0), ("point_mass", 3), ("pendulum", 0), ("pendulum", 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expert_policy_rejects_a_non_finite_observation(name, entry, bad):
    # point_mass would act [nan, -0.] on a NaN position, pendulum -1 on an infinite speed
    env = make_env(name)
    obs = env.observe(env.reset(0))
    obs[entry] = bad
    with pytest.raises(ValueError, match=re.escape(f"observation {obs.tolist()} has a NaN or Inf")):
        expert_policy(env)(obs)


@pytest.mark.parametrize("theta_dot", [1e155, -1e300])
def test_pendulum_expert_rejects_a_speed_whose_energy_overflows(theta_dot):
    # off the upright cone the controller pumps energy, and theta_dot ** 2 overflows
    obs = np.array([-1.0, 0.0, theta_dot])
    with pytest.raises(ValueError, match=re.escape(f"observation {obs.tolist()} is too large")):
        expert_policy(make_env("pendulum"))(obs)


@pytest.mark.parametrize("obs", [[1e308, 0.0, -1e308, 0.0], [0.0, -1e308, 0.0, 1e308]])
def test_point_mass_expert_rejects_a_state_whose_pd_terms_overflow(obs):
    # -kp * x - kd * vx is -inf + inf, a NaN that clipping keeps
    with pytest.raises(ValueError, match=re.escape(f"observation {obs} is too large")):
        expert_policy(make_env("point_mass"))(np.array(obs))


def test_expert_policy_follows_the_env_class_not_its_name():
    # a point_mass with nuisance dims: its own spec, and the state behind an
    # observation drops them
    class Distracted(envs.PointMass):
        spec = envs.EnvSpec("point_mass_distract", state_dim=6, action_dim=2,
                            episode_length=300, dt=0.02)

        def _internal(self, obs):
            return obs[:4]

    obs = np.array([0.3, -0.2, 0.1, 0.05])
    action = expert_policy(Distracted())(np.append(obs, [7.0, -7.0]))
    _assert_same_bits(action, expert_policy(make_env("point_mass"))(obs))


def test_pendulum_expert_acts_on_the_largest_speed_it_can_square():
    (u,) = expert_policy(make_env("pendulum"))(np.array([-1.0, 0.0, -1e154]))
    assert u == 1.0  # far above the target energy: brake against the motion


def test_point_mass_reward_of_a_position_whose_square_overflows_is_zero():
    env = make_env("point_mass")
    obs = np.array([[1e155, 0.0, 0.0, 0.0], [0.0, -1e300, 0.0, 0.0], [1e200, 1e200, 1.0, 1.0],
                    [0.0, 0.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(env.reward_from_observation(obs), [0.0, 0.0, 0.0, 1.0])
    # what step's float path gives for the same position
    assert float(envs._point_mass_reward(1e155, 0.0)) == 0.0


@pytest.mark.parametrize("name, shape", [("point_mass", (5, 3)), ("pendulum", (2, 4)),
                                         ("point_mass", (5, 1)), ("pendulum", ())],
                         ids=["point_mass-pendulum_rows", "pendulum-point_mass_rows",
                              "point_mass-one_column", "pendulum-scalar"])
def test_reward_from_observation_rejects_another_env_width(name, shape):
    # the other env's batches gave rewards, and a (5, 1) or 0-d input a bare IndexError
    env = make_env(name)
    with pytest.raises(ValueError, match=re.escape(
            f"observation has shape {shape}, expected a last axis of width {env.spec.state_dim}")):
        env.reward_from_observation(np.zeros(shape))


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
def test_reward_range_probes(name):
    env = make_env(name)
    rng = np.random.default_rng(0)
    # bulk probe through the closed-form reward on random observations
    if name == "point_mass":
        obs = rng.uniform(-8, 8, size=(1_000_000, 4))
    else:
        theta = rng.uniform(-10, 10, size=1_000_000)
        obs = np.stack([np.cos(theta), np.sin(theta), rng.uniform(-12, 12, size=theta.size)], axis=1)
    r = env.reward_from_observation(obs)
    assert np.all(r >= 0.0) and np.all(r <= 1.0)
    # and a slice through the real step function
    for _ in range(2000):
        if name == "point_mass":
            state = EnvState(rng.uniform(-4, 4, size=4))
        else:
            state = EnvState(np.array([rng.uniform(-6, 6), rng.uniform(-10, 10)]))
        _, reward, _ = env.step(state, rng.uniform(-1.2, 1.2, size=env.spec.action_dim))
        assert 0.0 <= reward <= 1.0


def _controller(env, state):
    """The env's scripted controller on the internal coordinates of ``state``."""
    return env._expert(*state.vector.tolist())


def _energy_of(env, state):
    """The pendulum's mechanical energy in ``state``."""
    return env._energy(*state.vector.tolist())


def test_pendulum_energy_sanity():
    env = make_env("pendulum")
    env.damping = 0.0  # on this instance only: energy is conserved without damping
    state = env.reset(3)
    state.vector[0] = 2.0  # energetic release, zero torque
    e0 = _energy_of(env, state)
    scale = max(abs(e0), env.mass * env.gravity * env.length)
    worst = 0.0
    for _ in range(env.spec.episode_length):
        state, _, _ = env.step(state, np.zeros(1))
        worst = max(worst, abs(_energy_of(env, state) - e0))
    assert worst / scale < 0.01


def _expert_stats(name, episodes=20):
    env = make_env(name)
    policy = expert_policy(env)
    returns, tail = [], []
    for i in range(episodes):
        transitions, total = run_episode(env, policy, 100000 + i)
        returns.append(total)
        tail.append(np.mean([t[3] for t in transitions[-100:]]))
        for t in transitions:
            assert np.all(np.abs(t[1]) <= 1.0)
    return np.array(returns), np.array(tail)


def test_point_mass_expert_reference():
    returns, _ = _expert_stats("point_mass")
    env = make_env("point_mass")
    assert returns.mean() >= 0.85 * env.spec.episode_length
    assert returns.mean() == pytest.approx(EXPERT_REFERENCE_RETURN["point_mass"], rel=1e-12)


def test_pendulum_expert_reference():
    returns, tail = _expert_stats("pendulum")
    assert np.all(tail >= 0.9)
    assert returns.mean() == pytest.approx(EXPERT_REFERENCE_RETURN["pendulum"], rel=1e-12)


def test_make_env_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown environment"):
        make_env("cartpole")


def test_run_episode_counts_steps():
    env = make_env("point_mass")
    transitions, _ = run_episode(env, lambda obs: np.zeros(2), seed=1)
    assert len(transitions) == env.spec.episode_length
    assert transitions[-1][4] is True
    assert all(t[4] is False for t in transitions[:-1])


# The numpy implementations of step, observe and the experts that the envs
# had before they computed on Python floats. They are the oracles the float
# path must match bit for bit.


def _oracle_point_mass_reward(obs):
    obs = np.asarray(obs, dtype=np.float64)
    d2 = obs[..., 0] ** 2 + obs[..., 1] ** 2
    return np.exp(-4.0 * d2)


def _oracle_point_mass_step(env, state, action):
    a = np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0)
    x, y, vx, vy = state.vector
    dt = env.spec.dt
    vx += dt * (env.force_scale * a[0] - env.drag * vx)
    vy += dt * (env.force_scale * a[1] - env.drag * vy)
    x += dt * vx
    y += dt * vy
    w = env.arena_halfwidth
    if x < -w or x > w:
        x = min(max(x, -w), w)
        vx = 0.0
    if y < -w or y > w:
        y = min(max(y, -w), w)
        vy = 0.0
    nxt = EnvState(np.array([x, y, vx, vy]), state.step_index + 1)
    reward = float(_oracle_point_mass_reward(nxt.vector))
    return nxt, reward, nxt.step_index >= env.spec.episode_length


def _oracle_point_mass_expert(env, state):
    x, y, vx, vy = state.vector
    kp, kd = 12.0, 5.0
    ax = (-kp * x - kd * vx) / env.force_scale
    ay = (-kp * y - kd * vy) / env.force_scale
    return np.clip(np.array([ax, ay]), -1.0, 1.0)


def _oracle_pendulum_observe(state):
    theta, theta_dot = state.vector
    return np.array([math.cos(theta), math.sin(theta), theta_dot])


def _oracle_pendulum_reward(obs):
    obs = np.asarray(obs, dtype=np.float64)
    return (obs[..., 0] + 1.0) / 2.0


def _oracle_pendulum_energy(env, state):
    theta, theta_dot = state.vector
    ml2 = env.mass * env.length**2
    return 0.5 * ml2 * theta_dot**2 + env.mass * env.gravity * env.length * math.cos(theta)


def _oracle_pendulum_step(env, state, action):
    a = float(np.clip(np.asarray(action, dtype=np.float64).reshape(-1)[0], -1.0, 1.0))
    torque = a * env.torque_limit
    theta, theta_dot = state.vector
    h = env.spec.dt / env.substeps
    g_over_l = env.gravity / env.length
    inv_ml2 = 1.0 / (env.mass * env.length**2)
    for _ in range(env.substeps):
        theta_dot += h * (g_over_l * math.sin(theta) + torque * inv_ml2 - env.damping * theta_dot)
        theta += h * theta_dot
    nxt = EnvState(np.array([theta, theta_dot]), state.step_index + 1)
    reward = (math.cos(theta) + 1.0) / 2.0
    return nxt, reward, nxt.step_index >= env.spec.episode_length


def _oracle_pendulum_expert(env, state):
    theta, theta_dot = state.vector
    wrapped = math.atan2(math.sin(theta), math.cos(theta))
    if abs(wrapped) < 0.3 and abs(theta_dot) < 2.0:
        u = (-30.0 * wrapped - 8.0 * theta_dot) / env.torque_limit
    else:
        target = 1.05 * env.mass * env.gravity * env.length
        deficit = target - _oracle_pendulum_energy(env, state)
        direction = math.copysign(1.0, theta_dot) if abs(theta_dot) > 1e-3 else 1.0
        u = math.copysign(1.0, deficit) * direction
    return np.clip(np.array([u]), -1.0, 1.0)


def _oracle_expert_policy(env, obs):
    obs = np.asarray(obs, dtype=np.float64)
    if env.spec.name == "point_mass":
        return _oracle_point_mass_expert(env, EnvState(obs.copy()))
    theta = math.atan2(obs[1], obs[0])
    return _oracle_pendulum_expert(env, EnvState(np.array([theta, obs[2]])))


ORACLES = {
    "point_mass": (_oracle_point_mass_step, lambda state: state.vector.copy(),
                   _oracle_point_mass_expert, _oracle_point_mass_reward),
    "pendulum": (_oracle_pendulum_step, _oracle_pendulum_observe,
                 _oracle_pendulum_expert, _oracle_pendulum_reward),
}


def _assert_same_bits(got, expected):
    """Equal values, dtype and bytes, so a flipped sign of zero fails too."""
    got, expected = np.asarray(got), np.asarray(expected)
    np.testing.assert_array_equal(got, expected)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def _oracle_actions(env, rng, state):
    """In-box, out-of-box, +-0.0, +-1.0, +-inf and expert actions. On
    point_mass the first 150 steps push away from the goal, mostly toward the
    nearest corner, far enough to hit the arena's walls."""
    dim = env.spec.action_dim
    kind = rng.integers(6)
    if env.spec.name == "point_mass" and state.step_index < 150:
        return 3.0 * np.where(rng.random(dim) < 0.9, 1.0, -1.0) * np.sign(state.vector[:2] + 1e-9)
    if kind == 0:
        return rng.uniform(-1.0, 1.0, size=dim)
    if kind == 1:
        return rng.uniform(-5.0, 5.0, size=dim)
    if kind == 2:
        return rng.choice([0.0, -0.0], size=dim)
    if kind == 3:
        return rng.choice([-1.0, 1.0, -math.inf, math.inf], size=dim)
    return _controller(env, state)


def _check_against_oracle(env, policy, state, action):
    """Compares observe, the experts and one step with the oracles; returns the step."""
    step_oracle, observe_oracle, expert_oracle, _ = ORACLES[env.spec.name]
    obs = env.observe(state)
    _assert_same_bits(obs, observe_oracle(state))
    _assert_same_bits(_controller(env, state), expert_oracle(env, state))
    _assert_same_bits(policy(obs), _oracle_expert_policy(env, obs))
    if env.spec.name == "pendulum":
        energy, energy_o = _energy_of(env, state), _oracle_pendulum_energy(env, state)
        assert type(energy) is float and energy == energy_o
        assert math.copysign(1.0, energy) == math.copysign(1.0, energy_o)
    nxt, reward, done = env.step(state, action)
    nxt_o, reward_o, done_o = step_oracle(env, state, action)
    _assert_same_bits(nxt.vector, nxt_o.vector)
    assert nxt.step_index == nxt_o.step_index
    assert type(reward) is float and reward == reward_o
    assert math.copysign(1.0, reward) == math.copysign(1.0, reward_o)
    assert done is done_o
    return nxt, reward, done


@pytest.mark.parametrize("name", ["point_mass", "pendulum"])
def test_float_path_matches_the_numpy_oracle_bit_for_bit(name):
    env = make_env(name)
    policy = expert_policy(env)
    # every sign pattern of zero in the state and the action: at rest at the
    # origin the expert's action is -0.0, and a step keeps or drops the sign
    zeros = [0.0, -0.0]
    for vector in itertools.product(zeros, repeat=env.reset(0).vector.size):
        for action in itertools.product(zeros, repeat=env.spec.action_dim):
            _check_against_oracle(env, policy, EnvState(np.array(vector)), np.array(action))
    rng = np.random.default_rng(20261018)
    observations, wall_hits = [], 0
    for seed in range(4):
        state = env.reset(seed)
        done = False
        while not done:
            observations.append(env.observe(state))
            # the first episode follows the expert alone, so its PD capture runs
            action = _controller(env, state) if seed == 0 else _oracle_actions(env, rng, state)
            state, _, done = _check_against_oracle(env, policy, state, action)
            if name == "point_mass":
                wall_hits += np.any(np.abs(state.vector[:2]) == env.arena_halfwidth)
        assert state.step_index == env.spec.episode_length
    if name == "point_mass":
        assert wall_hits > 0
    batch = np.array(observations)
    _assert_same_bits(env.reward_from_observation(batch), ORACLES[name][3](batch))
