"""One rule for a caller's numbers, at every public entry point that takes them.

``pcil._checks.real_float64`` is the rule's one home. A string array, a
boolean array, an object array, a Python list with a boolean among its
numbers or a ragged Python list handed to a public function is rejected
with a ``ValueError`` (or a typed subclass) that names the argument, and the
call changes nothing: no value is parsed from a string, no boolean is read
as 1.0, no ``None`` becomes NaN. AST guards keep the coercing idiom, a
float64 ``np.asarray``, out of the library, and the dtype kinds the rule
takes for real numbers in ``_checks`` alone.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from pcil import autodiff as ad
from pcil._checks import real_float64
from pcil.checkpoint import save_checkpoint
from pcil.contrastive import (
    ContrastiveBatch,
    Encoder,
    al_gap,
    encoder_update,
    interpolate_pairs,
    make_expert_reference,
    similarity_reward,
)
from pcil.divergence import validate_distribution
from pcil.envs import expert_policy, make_env
from pcil.replay import ReplayBuffer, Transition, save_demos

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "pcil").glob("*.py"))


def _object_array(shape):
    """Numbers and a None in an object array: float64 would read the None as NaN."""
    values = np.full(shape, 0.5, dtype=object)
    values.flat[0] = None
    return values


def _boolean_in_a_list(shape):
    """Numbers in nested Python lists, the last one ``True``: numpy stacks it as 1.0."""
    values = np.full(shape, 0.5, dtype=object)
    values.flat[-1] = True
    return values.tolist()


def _ragged_list(shape):
    """Numbers in nested Python lists, and after them a row one number longer
    than the last axis: numpy stacks it to no array."""
    values = np.full(shape, 0.5)
    return [*values.tolist(), [0.5] * (values.shape[-1] + 1)]


BAD = {
    "str": lambda shape: np.full(shape, "0.5"),
    "bool": lambda shape: np.ones(shape, dtype=bool),
    "object": _object_array,
    "bool_in_a_list": _boolean_in_a_list,
    "ragged_list": _ragged_list,
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


# Each case makes its objects, then returns the failing call (taking the bad
# value), the pattern its error must match, which names the argument, and a
# snapshot of the state the call must leave as it was.


def _step(env_name):
    def case(tmp_path):
        env = make_env(env_name)
        state = env.reset(0)
        return (lambda bad: env.step(state, bad(env.spec.action_dim)),
                "action must hold real numbers", lambda: (state.vector.copy(), state.step_index))
    return case


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


def _interpolate_pairs(argument):
    def case(tmp_path):
        rng = np.random.default_rng(0)
        other = np.ones((2, 3))
        call = ((lambda bad: interpolate_pairs(bad((2, 3)), other, rng)) if argument == "expert"
                else (lambda bad: interpolate_pairs(other, bad((2, 3)), rng)))
        return call, f"{argument} inputs must hold real numbers", lambda: _rng_state(rng)
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
            "tensor 'w' is not an array of real numbers",
            lambda: (path.read_bytes(), sorted(p.name for p in tmp_path.iterdir())))


def _save_demos(tmp_path):
    path = tmp_path / "demos.bin"
    return (lambda bad: save_demos(path, [Transition(bad(3), np.zeros(1), np.zeros(3), 0.5, True)]),
            "transition 0: 'state' must be a list of numbers",
            lambda: sorted(p.name for p in tmp_path.iterdir()))


def _validate_distribution(tmp_path):
    return (lambda bad: validate_distribution(bad(2)),
            "a distribution must hold real numbers", lambda: None)


ENTRY_POINTS = {
    "step[point_mass]": _step("point_mass"),
    "step[pendulum]": _step("pendulum"),
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
    "interpolate_pairs[expert]": _interpolate_pairs("expert"),
    "interpolate_pairs[agent]": _interpolate_pairs("agent"),
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
}


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_rejects_values_that_are_not_real_numbers(entry, kind, tmp_path):
    call, pattern, state = ENTRY_POINTS[entry](tmp_path)
    before = state()
    with pytest.raises(ValueError, match=re.escape(pattern)):
        call(BAD[kind])
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


def _listed(one):
    """``one`` held each way a level of a list or tuple can hold a value that
    numpy stacks with numbers: a boolean makes each case a float64 array
    holding 1.0 for it, as a number does."""
    return {
        "flat": [0.5, one],
        "tuple": (0.5, one),
        "in_a_row": [[0.5, 1.0], [0.5, one]],
        "array_among_rows": [[0.5, 1.0], np.array([one, one])],
        "row_among_arrays": [np.array([0.5, 1.0]), [0.5, one]],
        "array_among_arrays": [np.array([0.5, 1.0]), np.array([one, one])],
        "zero_d_array_among_numbers": [np.array(one), 0.5],
        "in_a_list_subclass": [_Row([0.5, 1.0]), _Row([0.5, one])],
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


# ---------------------------------------------------------------------------
# the guards: no library module coerces with a float64 np.asarray, and only
# _checks names the dtype kinds of real numbers
# ---------------------------------------------------------------------------

#: ``dtype`` values that make ``np.asarray`` parse strings, booleans and None
#: into float64. An explicit byte order (``"<f8"``) is left alone: the
#: checkpoint writer uses it to lay out an array the rule has already checked.
FLOAT64_NAMES = {"float", "float64", "double", "float_", "f8", "d"}


def _is_float64(node) -> bool:
    if isinstance(node, ast.Name):  # float
        return node.id in FLOAT64_NAMES
    if isinstance(node, ast.Attribute):  # np.float64
        return (node.attr in FLOAT64_NAMES and isinstance(node.value, ast.Name)
                and node.value.id in {"np", "numpy"})
    return isinstance(node, ast.Constant) and node.value in FLOAT64_NAMES  # "float64"


def _is_asarray(func) -> bool:
    if isinstance(func, ast.Name):  # from numpy import asarray
        return func.id == "asarray"
    return (isinstance(func, ast.Attribute) and func.attr == "asarray"
            and isinstance(func.value, ast.Name) and func.value.id in {"np", "numpy"})


def coercing_calls(source: str) -> list[str]:
    """The calls of ``np.asarray`` with a float64 ``dtype``, by keyword or as the
    second argument, in ``source``, as ``line: call``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and _is_asarray(node.func)):
            continue
        dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args[1:2]
        if any(map(_is_float64, dtypes)):
            found.append((node.lineno, ast.unparse(node)))
    return [f"{line}: {call}" for line, call in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_coercing_float64_asarray(path):
    assert coercing_calls(path.read_text()) == []


def test_guard_finds_every_planted_coercion():
    source = '''
import numpy as np
from numpy import asarray
def convert(x):
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(x, dtype=float)
    c = numpy.asarray(x, np.float64)
    d = asarray(x, dtype="float64")
    e = np.asarray(x), np.asarray(x, dtype=np.int64), np.asarray(x, dtype="<f8")
    f = real_float64(x, "x"), np.array(x, dtype=float), other.asarray(x, dtype=float)
    return np.asarray(np.asarray(x), dtype=np.double)
'''
    assert coercing_calls(source) == [
        "5: np.asarray(x, dtype=np.float64)", "6: np.asarray(x, dtype=float)",
        "7: numpy.asarray(x, np.float64)", "8: asarray(x, dtype='float64')",
        "11: np.asarray(np.asarray(x), dtype=np.double)"]


def names_of(source: str, name: str) -> list[int]:
    """The lines of ``source`` that name ``name``: as a variable, an attribute
    or an import."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.ImportFrom) and name in {a.name for a in node.names}):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "_checks.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_checks_names_the_real_kinds(path):
    # a second reader of REAL_KINDS is a second copy of the number rule
    assert names_of(path.read_text(), "REAL_KINDS") == []


def test_kinds_guard_finds_every_planted_name():
    source = '''
from ._checks import REAL_KINDS, real_float64
from pcil import _checks
def kinds(x, REAL="iuf"):
    ok = x.dtype.kind in REAL_KINDS
    return ok or x.dtype.kind in _checks.REAL_KINDS, "REAL_KINDS", real_float64(x, "x")
'''
    assert names_of(source, "REAL_KINDS") == [2, 5, 6]
