"""The three benchmark workloads.

Each workload is a closed loop in one process: an iteration starts when
the previous one has finished. A run does a fixed number of iterations,
``round(seconds * NOMINAL_RATE)``, fixed before it starts, so the quality
figures of two runs with the same seed and seconds are computed from the
same work. Set-up runs ``setup_reps`` times from the same seed and its
median is ``setup_s``. Checks run after each iteration's timed region.

Only public entry points of ``pcil`` are called, with their default
arguments, so that options the program may drop later are never needed.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
import traceback

import numpy as np

from pcil import checkpoint, contrastive, divergence, envs, replay
from pcil.autodiff import AdamState, ParameterSet

from checks import (PushLog, check_finite, check_nstep, check_reload, check_rewards,
                    check_sandwich, check_windows)
from tracing import Tracer, install_library_spans, layer_metrics

GAMMA = 0.99
BATCH = 256  # windows per sample_nstep
UPDATE_HALF = 128  # expert and agent rows per encoder update
ACTION_NOISE = 0.5  # std of the stand-in agent's Gaussian action noise

# iterations per second of --seconds, measured on a 2-core x86-64 host
NOMINAL_RATE = {"pcil_iteration": 15.0, "collect_relabel": 32.0, "divergence_sandwich": 80.0}


def stand_in_policy(env, rng):
    """The scripted expert plus clipped Gaussian action noise.

    It stands in for the learning agent until ``pcil`` has one: its states
    overlap the expert's but drift away from them, which is what the
    encoder is trained to tell apart.
    """
    expert = envs.expert_policy(env)

    def policy(obs):
        noisy = expert(obs) + rng.normal(0.0, ACTION_NOISE, size=env.spec.action_dim)
        return np.clip(noisy, -1.0, 1.0)

    return policy


def episodes(env, policy, seeds) -> list[replay.Transition]:
    return [replay.Transition(*step)
            for seed in seeds for step in envs.run_episode(env, policy, int(seed))[0]]


class Rollout:
    """One stand-in episode continued across iterations, every step pushed to replay."""

    def __init__(self, env, policy, buffer, tracer: Tracer, first_seed: int):
        self.env = env
        self.policy = tracer.wrap("envs.policy", policy)
        self.step = tracer.wrap("envs.step", self._step)
        self.reset = tracer.wrap("envs.reset", self._reset)
        self.push = tracer.wrap("replay.push", buffer.push)
        self.next_seed = first_seed
        self.pushed: list = []  # drained into the push record after the timed region
        self.state, self.obs = self._reset()

    def _reset(self):
        state = self.env.reset(self.next_seed)
        self.next_seed += 1
        return state, self.env.observe(state)

    def _step(self, state, action):
        state, reward, done = self.env.step(state, action)
        return state, self.env.observe(state), reward, done

    def run(self, steps: int) -> None:
        for _ in range(steps):
            action = self.policy(self.obs)
            self.state, next_obs, reward, done = self.step(self.state, action)
            t = replay.Transition(self.obs, action, next_obs, reward, done)
            self.push(t)
            self.pushed.append(t)
            self.obs = next_obs
            if done:
                self.state, self.obs = self.reset()


class Loop:
    """Times iterations, runs their checks untimed and counts failed operations.

    ``health()`` returns the program's failure counters by name; an
    iteration during which one of them moves has failed.
    """

    def __init__(self, tracer: Tracer, health=dict):
        self.tracer = tracer
        self.health = health
        self.iter_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def iterate(self, body, check) -> None:
        """Run ``body()`` timed, then ``check(result)``; a failed body checks ``None``."""
        self.attempted += 1
        result, problems = None, []
        before = self.health()
        timed = self.tracer.wrap("iteration", body)
        try:
            t0 = time.perf_counter()
            result = timed()
            self.iter_s.append(time.perf_counter() - t0)
        except Exception:
            problems.append(traceback.format_exc())
        try:
            problems += check(result)
        except Exception:
            problems.append(traceback.format_exc())
        problems += [f"{name} rose to {count}" for name, count in self.health().items()
                     if count != before[name]]
        self._fail(problems)

    def final(self, op) -> None:
        """An untimed operation after the loop; ``op()`` returns its problems."""
        self.attempted += 1
        try:
            problems = op()
        except Exception:
            problems = [traceback.format_exc()]
        self._fail(problems)

    def _fail(self, problems) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 5 - len(self.problems))])

    @property
    def loop_s(self) -> float:
        return float(sum(self.iter_s))


def timed_setup(setup, reps: int):
    """Run ``setup()`` ``reps`` times; return the last result and the median time."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def demo_round_trip(tracer: Tracer, path, transitions):
    tracer.wrap("replay.save_demos", replay.save_demos)(path, transitions)
    return tracer.wrap("replay.load_demos", replay.load_demos)(path)


class Counters:
    """Program health counters and quality figures, gathered untraced."""

    def __init__(self):
        self.window_lengths = 0
        self.windows = 0
        self.values = {
            "norm_violations": 0, "max_norm_error": 0.0, "infonce_final": 0.0,
            "penalty_final": 0.0, "adam_skipped": 0, "checkpoint_bytes": 0,
        }

    def add_windows(self, batch, n: int) -> None:
        self.window_lengths += len(batch.window_id)
        self.windows += len(batch) * n

    def as_dict(self) -> dict:
        fill = self.window_lengths / self.windows if self.windows else 0.0
        return dict(self.values, window_fill=fill)


def timing_metrics(loop: Loop) -> dict:
    iter_ms = np.array(loop.iter_s) * 1e3
    return {
        "iter_per_s": (len(loop.iter_s) / loop.loop_s, "1/s"),
        "iter_ms_p50": (float(np.quantile(iter_ms, 0.5)), "ms"),
        "iter_ms_p90": (float(np.quantile(iter_ms, 0.9)), "ms"),
    }


# ---------------------------------------------------------------------------
# pcil_iteration
# ---------------------------------------------------------------------------

W1_STEPS = 50  # stand-in env steps per iteration
W1_N = 3
W1_CAPACITY = 100_000
W1_DEMO_EPISODES = 8
W1_PREFILL_EPISODES = 2
W1_HELDOUT_EPISODES = 2
W1_CHECKPOINT_EVERY = 5


def _w1_setup(seed, tracer, workdir):
    env = envs.make_env("pendulum")
    seeds = np.random.SeedSequence(seed).generate_state(8)
    agent_rng = np.random.default_rng(seeds[0])
    policy = stand_in_policy(env, agent_rng)
    expert = envs.expert_policy(env)
    demos = episodes(env, expert, seeds[1] + np.arange(W1_DEMO_EPISODES))
    demos = demo_round_trip(tracer, os.path.join(workdir, "demos.jsonl"), demos)
    heldout_expert = episodes(env, expert, seeds[2] + np.arange(W1_HELDOUT_EPISODES))
    heldout_agent = episodes(env, policy, seeds[3] + np.arange(W1_HELDOUT_EPISODES))
    encoder = contrastive.Encoder(np.random.default_rng(seeds[4]), env.spec.state_dim)
    buffer = replay.ReplayBuffer(W1_CAPACITY, seed=int(seeds[5]))
    log = PushLog(W1_CAPACITY)
    prefill = episodes(env, policy, seeds[6] + np.arange(W1_PREFILL_EPISODES))
    for t in prefill:
        buffer.push(t)
    log.record(prefill)
    return {
        "env": env, "policy": policy, "buffer": buffer, "log": log, "encoder": encoder,
        "adam": AdamState.for_params(encoder.head),
        "demo_states": replay.demo_arrays(demos)[0],
        "heldout_expert": replay.demo_arrays(heldout_expert),
        "heldout_agent": replay.demo_arrays(heldout_agent),
        "sample_rng": np.random.default_rng(seeds[7]),
        "update_rng": np.random.default_rng([seeds[7], 1]),
        "episode_seed": int(seeds[6]) + W1_PREFILL_EPISODES,
    }


def _ranks(x):
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(len(x))
    ranks[order] = np.arange(len(x))
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.bincount(inverse, weights=ranks) / counts)[inverse]


def spearman(x, y) -> float:
    return float(np.corrcoef(_ranks(np.asarray(x)), _ranks(np.asarray(y)))[0, 1])


def pcil_iteration(seed, seconds, tracer, setup_reps, workdir):
    s, setup_s = timed_setup(lambda: _w1_setup(seed, tracer, workdir), setup_reps)
    encoder, adam, log = s["encoder"], s["adam"], s["log"]
    rollout = Rollout(s["env"], s["policy"], s["buffer"], tracer, s["episode_seed"])
    sample = tracer.wrap("replay.sample_nstep", s["buffer"].sample_nstep)
    nstep = tracer.wrap("replay.nstep_rewards", replay.NStepBatch.nstep_rewards)
    reference = tracer.wrap("contrastive.reference", contrastive.make_expert_reference)
    similarity = tracer.wrap("contrastive.similarity_reward", contrastive.similarity_reward)
    update = tracer.wrap("contrastive.encoder_update", contrastive.encoder_update)
    save = tracer.wrap("checkpoint.save", checkpoint.save_parameter_sets)
    ckpt_path = os.path.join(workdir, "encoder.ckpt")
    demo_states, sample_rng, update_rng = s["demo_states"], s["sample_rng"], s["update_rng"]

    def state_sets():
        return {"head": encoder.head, "adam_m": ParameterSet(adam.first_moment),
                "adam_v": ParameterSet(adam.second_moment)}

    loop = Loop(tracer, lambda: {"skipped Adam steps": adam.skipped,
                                 "norm violations": encoder.norm_violations})
    counters = Counters()
    for i in range(max(1, round(seconds * NOMINAL_RATE["pcil_iteration"]))):
        def body():
            rollout.run(W1_STEPS)
            batch = sample(BATCH, W1_N, GAMMA)
            expert = demo_states[sample_rng.integers(0, len(demo_states), size=UPDATE_HALF)]
            ref = reference(encoder, expert, mode="mean")
            rewards = similarity(encoder, batch.step_states, ref)
            returns = nstep(batch, rewards, GAMMA)
            losses = update(encoder, contrastive.ContrastiveBatch(expert, batch.states[:UPDATE_HALF]),
                            adam, update_rng)
            if (i + 1) % W1_CHECKPOINT_EVERY == 0:
                save(ckpt_path, state_sets())
            return batch, rewards, returns, losses

        def check(result):
            log.record(rollout.pushed)
            rollout.pushed.clear()
            if result is None:
                return []
            batch, rewards, returns, (loss, penalty) = result
            counters.add_windows(batch, W1_N)
            counters.values["infonce_final"], counters.values["penalty_final"] = loss, penalty
            return (check_windows(batch, log, W1_N, GAMMA) + check_rewards(rewards)
                    + check_nstep(batch, rewards, returns, GAMMA)
                    + check_finite(infonce=loss, penalty=penalty))

        loop.iterate(body, check)

    quality = {}

    def evaluate():
        states_e, _, next_e, reward_e = s["heldout_expert"]
        states_a, _, next_a, reward_a = s["heldout_agent"]
        quality["al_gap_final"] = contrastive.al_gap(encoder, states_e, states_a)
        ref = contrastive.make_expert_reference(encoder, demo_states, mode="mean")
        learned = contrastive.similarity_reward(encoder, np.concatenate([next_e, next_a]), ref)
        quality["reward_spearman_final"] = spearman(learned, np.concatenate([reward_e, reward_a]))
        return check_finite(**quality)

    def reload():
        saved = state_sets()
        save(ckpt_path, saved)
        counters.values["checkpoint_bytes"] = os.path.getsize(ckpt_path)
        loaded = tracer.wrap("checkpoint.load", checkpoint.load_parameter_sets)(ckpt_path)
        return check_reload(saved, loaded)

    loop.final(evaluate)
    loop.final(reload)
    counters.values.update(norm_violations=encoder.norm_violations,
                           max_norm_error=encoder.max_norm_error, adam_skipped=adam.skipped)
    metrics = timing_metrics(loop)
    metrics["env_steps_per_s"] = (W1_STEPS * len(loop.iter_s) / loop.loop_s, "1/s")
    metrics["al_gap_final"] = (quality.get("al_gap_final", float("nan")), "reward")
    metrics["reward_spearman_final"] = (quality.get("reward_spearman_final", float("nan")), "ratio")
    return loop, setup_s, metrics, counters


# ---------------------------------------------------------------------------
# collect_relabel
# ---------------------------------------------------------------------------

W2_STEPS = 200  # stand-in env steps per iteration
W2_N = 5
W2_CAPACITY = 4096  # small enough that prefill alone wraps the ring
W2_DEMO_EPISODES = 5
W2_PREFILL_EPISODES = 20


def _w2_setup(seed, tracer, workdir):
    env = envs.make_env("point_mass")
    seeds = np.random.SeedSequence(seed).generate_state(6)
    policy = stand_in_policy(env, np.random.default_rng(seeds[0]))
    demos = episodes(env, envs.expert_policy(env), seeds[1] + np.arange(W2_DEMO_EPISODES))
    demos = demo_round_trip(tracer, os.path.join(workdir, "demos.jsonl"), demos)
    encoder = contrastive.Encoder(np.random.default_rng(seeds[2]), env.spec.state_dim)
    buffer = replay.ReplayBuffer(W2_CAPACITY, seed=int(seeds[3]))
    log = PushLog(W2_CAPACITY)
    prefill = episodes(env, policy, seeds[4] + np.arange(W2_PREFILL_EPISODES))
    for t in prefill:
        buffer.push(t)
    log.record(prefill)
    reference = contrastive.make_expert_reference(
        encoder, replay.demo_arrays(demos)[0], mode="mean")
    return {"env": env, "policy": policy, "buffer": buffer, "log": log, "encoder": encoder,
            "reference": reference, "episode_seed": int(seeds[4]) + W2_PREFILL_EPISODES}


def collect_relabel(seed, seconds, tracer, setup_reps, workdir):
    s, setup_s = timed_setup(lambda: _w2_setup(seed, tracer, workdir), setup_reps)
    encoder, ref, log = s["encoder"], s["reference"], s["log"]
    rollout = Rollout(s["env"], s["policy"], s["buffer"], tracer, s["episode_seed"])
    sample = tracer.wrap("replay.sample_nstep", s["buffer"].sample_nstep)
    nstep = tracer.wrap("replay.nstep_rewards", replay.NStepBatch.nstep_rewards)
    similarity = tracer.wrap("contrastive.similarity_reward", contrastive.similarity_reward)

    def body():
        rollout.run(W2_STEPS)
        batch = sample(BATCH, W2_N, GAMMA)
        rewards = similarity(encoder, batch.step_states, ref)
        return batch, rewards, nstep(batch, rewards, GAMMA)

    def check(result):
        log.record(rollout.pushed)
        rollout.pushed.clear()
        if result is None:
            return []
        batch, rewards, returns = result
        counters.add_windows(batch, W2_N)
        return (check_windows(batch, log, W2_N, GAMMA) + check_rewards(rewards)
                + check_nstep(batch, rewards, returns, GAMMA))

    loop = Loop(tracer, lambda: {"norm violations": encoder.norm_violations})
    counters = Counters()
    for _ in range(max(1, round(seconds * NOMINAL_RATE["collect_relabel"]))):
        loop.iterate(body, check)
    counters.values.update(norm_violations=encoder.norm_violations,
                           max_norm_error=encoder.max_norm_error)
    metrics = timing_metrics(loop)
    metrics["env_steps_per_s"] = (W2_STEPS * len(loop.iter_s) / loop.loop_s, "1/s")
    metrics["windows_per_s"] = (BATCH * len(loop.iter_s) / loop.loop_s, "1/s")
    return loop, setup_s, metrics, counters


# ---------------------------------------------------------------------------
# divergence_sandwich
# ---------------------------------------------------------------------------

W3_SMALL = (2, 10)  # supports where vertex enumeration runs as well
W3_LARGE = (11, 64)  # supports where only projected ascent runs


def _w3_setup(seed, pairs):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(pairs):
        lo, hi = W3_SMALL if i % 2 == 0 else W3_LARGE
        size = int(rng.integers(lo, hi + 1))
        p = divergence.validate_distribution(rng.dirichlet(np.ones(size)))
        q = divergence.validate_distribution(rng.dirichlet(np.ones(size)))
        out.append((p, q))
    return out


def divergence_sandwich(seed, seconds, tracer, setup_reps, workdir):
    iterations = max(1, round(seconds * NOMINAL_RATE["divergence_sandwich"]))
    pairs, setup_s = timed_setup(lambda: _w3_setup(seed, iterations), setup_reps)
    # small and large supports alternate, so every run holds the same mix
    small = tracer.wrap("divergence.sandwich_small", divergence.sandwich_check)
    large = tracer.wrap("divergence.sandwich_large", divergence.sandwich_check)
    ratios = []
    loop = Loop(tracer)
    for i, (p, q) in enumerate(pairs):
        check_pair = small if p.size <= W3_SMALL[1] else large

        def check(report):
            if report is None:
                return []
            ratios.append(report.d_cont_est / report.tv)
            return check_sandwich(report, p, q, divergence.constructive_witness(p, q).value)

        loop.iterate(lambda: check_pair(p, q), check)
    metrics = timing_metrics(loop)
    metrics["pairs_per_s"] = (len(loop.iter_s) / loop.loop_s, "1/s")
    metrics["dcont_over_tv_mean"] = (float(np.mean(ratios)) if ratios else float("nan"), "ratio")
    return loop, setup_s, metrics, Counters()


WORKLOADS = {
    "pcil_iteration": pcil_iteration,
    "collect_relabel": collect_relabel,
    "divergence_sandwich": divergence_sandwich,
}


def run(workload: str, seed: int, seconds: int, trace: bool, setup_reps: int, workdir) -> dict:
    """Run one workload; return its operation counts and metrics as ``name -> (value, unit)``."""
    tracer = Tracer(trace)
    install_library_spans(tracer)
    try:
        with tracer.watch_gc():
            loop, setup_s, metrics, counters = WORKLOADS[workload](
                seed, seconds, tracer, setup_reps, workdir)
    finally:
        tracer.restore()
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["error_share"] = (loop.failed / loop.attempted, "ratio")
    if trace:
        metrics.update(layer_metrics(tracer, loop.loop_s, counters.as_dict()))
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems,
        "iterations": len(loop.iter_s),
        "loop_s": loop.loop_s,
        "metrics": metrics,
    }
