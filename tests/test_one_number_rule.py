"""One rule for a caller's numbers, at every public entry point that takes them.

``pcil._checks.real_float64`` is the rule's one home. A string array, a
boolean array, an object array, a complex array, a list or a deque with a
boolean among its numbers or a ragged Python list handed to a public function is
rejected with a ``ValueError`` (or a typed subclass) that names the argument,
and the call changes nothing: no value is parsed from a string, no boolean
is read as 1.0, no ``None`` becomes NaN. This is the one place the suite
checks the rule at each entry point; ``test_design_guards`` keeps the
coercing idiom, a float64 ``np.asarray``, out of the library, and the dtype
kinds the rule takes for real numbers in ``_checks`` alone.
"""

import array
import re
from collections import deque

import numpy as np
import pytest

from pcil import _checks
from pcil import autodiff as ad
from pcil._checks import real_float64
from pcil.checkpoint import save_checkpoint
from pcil.contrastive import (
    ContrastiveBatch,
    Encoder,
    al_gap,
    encoder_update,
    make_expert_reference,
    similarity_reward,
)
from pcil.divergence import inner_objective, validate_distribution
from pcil.envs import expert_policy, make_env, run_episode
from pcil.replay import ReplayBuffer, Transition, save_demos


def _object_array(shape):
    """Numbers and a None in an object array: float64 would read the None as NaN."""
    values = np.full(shape, 0.5, dtype=object)
    values.flat[0] = None
    return values


def _boolean_in_a_list(shape):
    """Numbers in nested Python lists, the last one ``True``: numpy stacks it as
    1.0. The last axis holds one number more, so that ``True`` is among numbers
    where an entry point takes one number too."""
    values = np.full(shape, 0.5, dtype=object)
    values = np.concatenate([values, values[..., :1]], axis=-1)
    values.flat[-1] = True
    return values.tolist()


def _boolean_in_a_deque(shape):
    """``_boolean_in_a_list``'s numbers with a deque at every level: numpy
    stacks a deque as it stacks a list, the ``True`` as 1.0 among them."""
    def deques(level):
        return deque(map(deques, level)) if isinstance(level, list) else level
    return deques(_boolean_in_a_list(shape))


def _ragged_list(shape):
    """Numbers in nested Python lists, and after them a row one number longer
    than the last axis: numpy stacks it to no array."""
    values = np.full(shape, 0.5)
    return [*values.tolist(), [0.5] * (values.shape[-1] + 1)]


#: Each kind of value that is no array of real numbers, as a maker of one of a
#: given shape, and what the rule's error says of it after "must hold real numbers"
BAD = {
    "str": (lambda shape: np.full(shape, "0.5"), ", not dtype <U3"),
    "bool": (lambda shape: np.ones(shape, dtype=bool), ", not dtype bool"),
    "object": (_object_array, ", not dtype object"),
    "complex": (lambda shape: np.full(shape, 0.5 + 0.0j), ", not dtype complex128"),
    "bool_in_a_list": (_boolean_in_a_list, ", not a boolean among them"),
    "bool_in_a_deque": (_boolean_in_a_deque, ", not a boolean among them"),
    "ragged_list": (_ragged_list, " in rows of one shape"),
}


def _encoder():
    return Encoder(np.random.default_rng(0), state_dim=3, hidden_dim=8, embed_dim=4)


def _encoder_state(enc, *more):
    return {name: value.copy() for name, value in enc.head.items()}, enc.norm_violations, more


def _rng_state(rng):
    return rng.bit_generator.state


def _filled_buffer():
    buf = ReplayBuffer(capacity=4, seed=0)
    for i in range(3):
        buf.push(Transition(np.full(3, float(i)), np.array([0.1 * i]), np.full(3, i + 0.5),
                            0.5, i == 1))
    return buf


def _ring(buf):
    return (len(buf), buf._next, buf._episode_now, buf._state.copy(), buf._action.copy(),
            buf._next_state.copy(), buf._reward_env.copy(), _rng_state(buf._rng))


# Each case makes its objects, then returns the failing call (taking the maker
# of the bad value), the start of its error, which names the argument, and a
# snapshot of the state the call must leave as it was. The error goes on with
# the rule's own words.


def _step(env_name):
    def case(tmp_path):
        env = make_env(env_name)
        state = env.reset(0)
        return (lambda bad: env.step(state, bad(env.spec.action_dim)),
                "action must hold real numbers", lambda: (state.vector.copy(), state.step_index))
    return case


def _run_episode(tmp_path):
    env = make_env("pendulum")
    return (lambda bad: run_episode(env, lambda obs: bad(env.spec.action_dim), seed=0),
            "action must hold real numbers", lambda: None)


def _expert_policy(env_name):
    def case(tmp_path):
        env = make_env(env_name)
        policy = expert_policy(env)
        return (lambda bad: policy(bad(env.spec.state_dim)),
                "observation must hold real numbers", lambda: None)
    return case


def _reward_from_observation(env_name):
    def case(tmp_path):
        env = make_env(env_name)
        return (lambda bad: env.reward_from_observation(bad((5, env.spec.state_dim))),
                "observation must hold real numbers", lambda: None)
    return case


def _embed(tmp_path):
    enc = _encoder()
    return (lambda bad: enc.embed(bad((2, 3))), "encoder inputs must hold real numbers",
            lambda: _encoder_state(enc, dict(enc._workspace)))


def _similarity_reward(argument):
    def case(tmp_path):
        enc = _encoder()
        ref = make_expert_reference(enc, np.ones((2, 3)))
        if argument == "rows":
            return (lambda bad: similarity_reward(enc, bad((2, 3)), ref),
                    "encoder inputs must hold real numbers", lambda: _encoder_state(enc, ref))
        return (lambda bad: similarity_reward(enc, np.ones((2, 3)), bad(4)),
                "reference must hold real numbers", lambda: _encoder_state(enc, ref))
    return case


def _make_expert_reference(tmp_path):
    enc = _encoder()
    return (lambda bad: make_expert_reference(enc, bad((2, 3))),
            "encoder inputs must hold real numbers", lambda: _encoder_state(enc))


def _al_gap(argument):
    def case(tmp_path):
        enc = _encoder()
        other = np.ones((2, 3))
        call = ((lambda bad: al_gap(enc, bad((2, 3)), other)) if argument == "expert"
                else (lambda bad: al_gap(enc, other, bad((2, 3)))))
        return call, "encoder inputs must hold real numbers", lambda: _encoder_state(enc)
    return case


def _encoder_update(argument):
    def case(tmp_path):
        enc = _encoder()
        adam = ad.AdamState.for_params(enc.head, lr=1e-3)
        rng = np.random.default_rng(0)
        other = np.ones((2, 3))

        def call(bad):
            rows = bad((2, 3))
            batch = (ContrastiveBatch(rows, other) if argument == "expert"
                     else ContrastiveBatch(other, rows))
            encoder_update(enc, batch, adam, rng)

        return call, "encoder inputs must hold real numbers", lambda: _encoder_state(
            enc, adam.step_count, {k: v.copy() for k, v in adam.first_moment.items()},
            _rng_state(rng))
    return case


def _tape_leaf(tmp_path):
    tape = ad.Tape()
    ad.tsum(tape.leaf(np.ones(2)))
    return (lambda bad: tape.leaf(bad(2)), "leaf value must hold real numbers",
            lambda: (tape.num_ops, tape._ops is not None))  # still live


def _parameter_set(tmp_path):
    params = ad.ParameterSet({"w": np.ones(3)})

    def call(bad):
        params["w"] = bad(3)
    return (call, "parameter 'w' must hold real numbers",
            lambda: {name: value.copy() for name, value in params.items()})


def _push(field):
    def case(tmp_path):
        buf = _filled_buffer()
        width = 1 if field == "action" else 3

        def call(bad):
            values = {"state": np.zeros(3), "action": np.zeros(1), "next_state": np.zeros(3)}
            values[field] = bad(width)
            buf.push(Transition(**values, reward_env=0.5, done=False))
        return call, f"push: {field} must hold real numbers", lambda: _ring(buf)
    return case


def _nstep_rewards(tmp_path):
    batch = _filled_buffer().sample_nstep(4, n=2, gamma=0.9)
    return (lambda bad: batch.nstep_rewards(bad(batch.step_offset.shape), 0.9),
            "step_rewards must hold real numbers",
            lambda: {name: value.copy() for name, value in vars(batch).items()})


def _save_checkpoint(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, {"a": np.arange(3.0)})
    return (lambda bad: save_checkpoint(path, {"a": np.ones(2), "w": bad(3)}),
            "tensor 'w' is not an array of real numbers: it must hold real numbers",
            lambda: (path.read_bytes(), sorted(p.name for p in tmp_path.iterdir())))


def _save_demos(tmp_path):
    path = tmp_path / "demos.bin"
    return (lambda bad: save_demos(path, [Transition(bad(3), np.zeros(1), np.zeros(3), 0.5, True)]),
            "transition 0: 'state' must hold real numbers",
            lambda: sorted(p.name for p in tmp_path.iterdir()))


def _validate_distribution(tmp_path):
    return (lambda bad: validate_distribution(bad(2)),
            "a distribution must hold real numbers", lambda: None)


def _inner_objective(tmp_path):
    return (lambda bad: inner_objective(bad(2), [0.5, 0.5], [0.5, 0.5]),
            "g must hold real numbers", lambda: None)


ENTRY_POINTS = {
    "step[point_mass]": _step("point_mass"),
    "step[pendulum]": _step("pendulum"),
    "run_episode": _run_episode,
    "expert_policy[point_mass]": _expert_policy("point_mass"),
    "expert_policy[pendulum]": _expert_policy("pendulum"),
    "reward_from_observation[point_mass]": _reward_from_observation("point_mass"),
    "reward_from_observation[pendulum]": _reward_from_observation("pendulum"),
    "Encoder.embed": _embed,
    "similarity_reward[rows]": _similarity_reward("rows"),
    "similarity_reward[reference]": _similarity_reward("reference"),
    "make_expert_reference": _make_expert_reference,
    "al_gap[expert]": _al_gap("expert"),
    "al_gap[agent]": _al_gap("agent"),
    "encoder_update[expert]": _encoder_update("expert"),
    "encoder_update[agent]": _encoder_update("agent"),
    "Tape.leaf": _tape_leaf,
    "ParameterSet": _parameter_set,
    "push[state]": _push("state"),
    "push[action]": _push("action"),
    "push[next_state]": _push("next_state"),
    "nstep_rewards": _nstep_rewards,
    "save_checkpoint": _save_checkpoint,
    "save_demos": _save_demos,
    "validate_distribution": _validate_distribution,
    "inner_objective[g]": _inner_objective,
}


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_rejects_values_that_are_not_real_numbers(entry, kind, tmp_path):
    call, start, state = ENTRY_POINTS[entry](tmp_path)
    make, words = BAD[kind]
    before = state()
    with pytest.raises(ValueError, match=re.escape(start + words)):
        call(make)
    np.testing.assert_equal(state(), before)


@pytest.mark.parametrize("call", [
    lambda tmp_path: validate_distribution([True, 0.0]),
    lambda tmp_path: save_checkpoint(tmp_path / "ckpt.bin", {"w": [0.5, True]}),
], ids=["validate_distribution", "save_checkpoint"])
def test_a_boolean_in_a_list_is_rejected_where_its_value_would_pass(call, tmp_path):
    # read as 1.0 the boolean would make a valid distribution and a finite tensor
    with pytest.raises(ValueError, match="must hold real numbers, not a boolean"):
        call(tmp_path)
    assert list(tmp_path.iterdir()) == []


class _Row(list):
    """A list subclass, which numpy stacks as it stacks a list."""


class _Sequence:
    """A sequence that is no list, which numpy stacks item by item."""

    def __init__(self, values):
        self.values = values

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def _listed(one):
    """``one`` held each way a level of a sequence can hold a value that numpy
    stacks with numbers: a boolean makes each case a float64 array holding
    1.0 for it, as a number does."""
    return {
        "flat": [0.5, one],
        "tuple": (0.5, one),
        "in_a_row": [[0.5, 1.0], [0.5, one]],
        "array_among_rows": [[0.5, 1.0], np.array([one, one])],
        "row_among_arrays": [np.array([0.5, 1.0]), [0.5, one]],
        "array_among_arrays": [np.array([0.5, 1.0]), np.array([one, one])],
        "zero_d_array_among_numbers": [np.array(one), 0.5],
        "in_a_list_subclass": [_Row([0.5, 1.0]), _Row([0.5, one])],
        "deque": deque([0.5, one]),
        "in_a_deque": [deque([0.5, one])],
        "in_a_sequence_of_its_own": [_Sequence([0.5, 1.0]), _Sequence([0.5, one])],
    }


@pytest.mark.parametrize("case", _listed(1.0))
def test_a_boolean_is_found_at_any_level_of_a_list(case):
    for boolean in (True, np.True_):
        with pytest.raises(ValueError, match="^x must hold real numbers, not a boolean among them$"):
            real_float64(_listed(boolean)[case], "x")
    for number in (1.0, 1, np.float32(1.0), np.uint8(1)):
        value = _listed(number)[case]
        got = real_float64(value, "x")
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.asarray(value, dtype=np.float64))


@pytest.mark.parametrize("array", [
    np.ones((2, 3)), np.asfortranarray(np.ones((2, 3))), np.ones((4, 6))[::2, 1::3], np.array(0.5),
], ids=["c_order", "fortran_order", "strided_view", "zero_d"])
def test_a_float64_array_comes_back_as_it_is(array):
    # the per-step case of every workload: no copy, no conversion
    assert real_float64(array, "x") is array


@pytest.mark.parametrize("value", [
    array.array("d", [0.5, 1.0]), memoryview(np.array([0.5, 1.0])),
    np.array([0.5, 1.0], np.float32), np.array([[0.5, 1.0]]).view(np.matrix),
], ids=["array_module", "memoryview", "float32_array", "array_subclass"])
def test_an_array_numpy_reads_whole_is_not_walked(value, monkeypatch):
    # its dtype shows a boolean: a walk of its values would only cost time
    monkeypatch.setattr(_checks, "_holds_a_boolean", lambda values: pytest.fail("walked"))
    np.testing.assert_array_equal(real_float64(value, "x").ravel(), [0.5, 1.0])
