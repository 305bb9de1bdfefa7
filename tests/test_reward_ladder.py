"""The learned reward ranks policies as the true reward does, without RL.

A ladder of policies on point_mass runs from the scripted expert through
copies of it with N(0, sigma) action noise to zero action and uniform random
actions. An encoder is trained on expert demos against a pooled set of
non-expert episodes, and its similarity reward then scores held-out episodes
of every rung. The gate is the paper's claim that the learned reward compares
an agent with the expert meaningfully: it must order the rungs as the true
reward orders them, and follow the true reward step by step.

The floors are the minimum over encoder seeds 1-5 less a margin (CHANGES.md
records the run); the test trains seed 1 alone. The ladder tells a reward
that ranks backwards, not which class anchors InfoNCE: an update with the
expert and agent rows swapped ranks these rungs as well, and the oracle tests
of ``test_contrastive`` catch it. Pendulum is not gated: on the same ladder
and budget its 5-seed minimum was 0.29 for tau and 0.34 for Spearman.
"""

import numpy as np

from pcil import autodiff as ad
from pcil.contrastive import (
    ContrastiveBatch,
    Encoder,
    encoder_update,
    make_expert_reference,
    similarity_reward,
)
from pcil.envs import expert_policy, make_env, run_episode

#: The rungs, best first by intent: the expert's action noise sigma, or a
#: policy that ignores the state
RUNGS = [0.0, 0.1, 0.3, 0.6, 1.0, "zero", "uniform"]
#: The non-expert episodes pooled as the encoder's agent rows, one each
POOL = [0.3, 0.6, 1.0, "zero", "uniform"]
DEMO_EPISODES = 10
HELD_OUT_EPISODES = 2
UPDATES = 1000
ROWS = 64  # expert rows and agent rows per update
#: Only rung pairs whose true mean rewards differ by this much are ranked
SEPARATION = 0.05
SEED = 1
#: Seeds 1-5 at 1000 updates gave tau 1.00 each and Spearman 0.840-0.918. The
#: margins: 0.2 lets one of the 11 separated pairs turn, and 0.1 for Spearman
TAU_FLOOR = 0.80
SPEARMAN_FLOOR = 0.74


def rung_policy(env, rung, rng):
    dim = env.spec.action_dim
    if rung == "zero":
        return lambda obs: np.zeros(dim)
    if rung == "uniform":
        return lambda obs: rng.uniform(-1.0, 1.0, size=dim)
    expert = expert_policy(env)
    return lambda obs: expert(obs) + rng.normal(0.0, rung, size=dim)


def episodes(env, rung, reset_seeds):
    """States, next states and true rewards of one episode per reset seed,
    stacked; each episode's action noise is drawn from its reset seed."""
    steps = [step for seed in reset_seeds
             for step in run_episode(env, rung_policy(env, rung, np.random.default_rng(seed)),
                                     seed)[0]]
    return (np.array([s[0] for s in steps]), np.array([s[2] for s in steps]),
            np.array([s[3] for s in steps]))


def build_ladder(env):
    """Expert demo states, the pooled agent states, and each rung's held-out
    next states and true rewards."""
    demos = episodes(env, 0.0, 10000 + np.arange(DEMO_EPISODES))[0]
    pool = np.concatenate([episodes(env, rung, [20000 + k])[0] for k, rung in enumerate(POOL)])
    held_out = [episodes(env, rung, 30000 + HELD_OUT_EPISODES * k + np.arange(HELD_OUT_EPISODES))
                [1:] for k, rung in enumerate(RUNGS)]
    return demos, pool, held_out


def train(demos, pool, seed):
    encoder = Encoder(np.random.default_rng(seed), demos.shape[1], hidden_dim=64, embed_dim=32)
    adam = ad.AdamState.for_params(encoder.head, lr=1e-4)
    rng = np.random.default_rng(seed + 1000)
    for _ in range(UPDATES):
        batch = ContrastiveBatch(demos[rng.integers(0, len(demos), ROWS)],
                                 pool[rng.integers(0, len(pool), ROWS)])
        encoder_update(encoder, batch, adam, rng)
    return encoder


def ranks(x):
    """Ranks of ``x`` from 0, tied values sharing their mean rank."""
    order = np.argsort(x, kind="stable")
    _, first, counts = np.unique(x[order], return_index=True, return_counts=True)
    r = np.empty(len(x))
    r[order] = np.repeat(first + (counts - 1) / 2.0, counts)
    return r


def spearman(a, b):
    return float(np.corrcoef(ranks(a), ranks(b))[0, 1])


def separated_tau(true_means, learned_means):
    """Kendall's tau over the pairs whose true means differ by ``SEPARATION``
    or more: concordant pairs less discordant ones, over their number."""
    i, j = np.triu_indices(len(true_means), k=1)
    true_gap, learned_gap = true_means[i] - true_means[j], learned_means[i] - learned_means[j]
    separated = np.abs(true_gap) >= SEPARATION
    return float(np.mean(np.sign(true_gap[separated]) * np.sign(learned_gap[separated])))


def ladder_scores(encoder, demos, held_out):
    """Separated-pair tau over the rungs' mean rewards, and Spearman against
    the true reward over every held-out step; the learned reward scores next
    states, as the true one does, against the demos' reference."""
    reference = make_expert_reference(encoder, demos)
    learned = [similarity_reward(encoder, next_states, reference) for next_states, _ in held_out]
    true = [rewards for _, rewards in held_out]
    tau = separated_tau(np.array([r.mean() for r in true]), np.array([r.mean() for r in learned]))
    return tau, spearman(np.concatenate(learned), np.concatenate(true))


def test_learned_reward_ranks_the_ladder_as_the_true_reward():
    demos, pool, held_out = build_ladder(make_env("point_mass"))
    tau, rho = ladder_scores(train(demos, pool, SEED), demos, held_out)
    assert tau >= TAU_FLOOR
    assert rho >= SPEARMAN_FLOOR
