import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from pcil import autodiff as ad
from gradcheck import check_gradients, primitive_cases


def test_matmul_hand_arithmetic():
    tape = ad.Tape()
    a = tape.constant([[1.0, 2.0], [3.0, 4.0]])
    b = tape.constant([[1.0], [1.0]])
    out = ad.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_logsumexp_stability_identity():
    tape = ad.Tape()
    x = tape.constant([1000.0, 1000.0])
    out = ad.logsumexp(x)
    assert out.data == pytest.approx(1000.0 + np.log(2.0), abs=1e-12)


def test_sphere_normalize_345():
    tape = ad.Tape()
    v = tape.constant([3.0, 4.0])
    out = ad.sphere_normalize(v)
    np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-15)


def test_backward_square():
    tape = ad.Tape()
    x = tape.leaf(np.array(3.0))
    out = ad.mul(x, x)
    tape.backward(out)
    assert x.grad == pytest.approx(6.0, abs=1e-12)


def test_sphere_normalize_tangential_projection():
    c = np.array([0.0, 1.0])

    def build(tape, leaves):
        return ad.tsum(ad.mul(ad.sphere_normalize(leaves[0]), tape.constant(c)))

    tape = ad.Tape()
    v = tape.leaf(np.array([1.0, 0.0]))
    out = build(tape, [v])
    tape.backward(out)
    np.testing.assert_allclose(v.grad, [0.0, 1.0], atol=1e-12)
    check_gradients(build, [np.array([1.0, 0.0])])


def test_mean_tanh_linear_vs_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        w = rng.uniform(-1, 1, size=(4, 4))
        x = rng.uniform(-1, 1, size=(1, 4))

        def build(tape, leaves):
            return ad.tmean(ad.tanh(ad.matmul(tape.constant(x), leaves[0])))

        err = check_gradients(build, [w])
        assert err < 1e-4


# Each case keeps a fixed id, the primitive's position in the registry when
# the suite was first written, so deleting a primitive renames no other case.
CASE_IDS = {
    "add": "0", "sub": "1", "mul": "2", "matmul": "5", "tanh": "7",
    "relu": "8", "softplus": "10", "sqrt": "13", "sum": "14",
    "mean": "15", "logsumexp": "16", "sphere_normalize": "18",
    "concat": "19", "reshape": "20", "transpose": "21", "div": "22", "row_slice": "23",
}


@pytest.mark.parametrize("name", CASE_IDS, ids=CASE_IDS.__getitem__)
def test_primitive_gradients_match_finite_differences(name):
    # 100 random instances per primitive, h=1e-5, relative tolerance 1e-4
    # each primitive draws from its own seed stream
    for trial in range(100):
        rng = np.random.default_rng(1000 * int(CASE_IDS[name]) + trial)
        cases = {n: (build, arrays) for n, build, arrays in primitive_cases(rng)}
        check_gradients(*cases[name])


def made_ops(source: str) -> set[str]:
    """The op names of the ``_make("<op>", ...)`` calls in ``source``; a call
    whose op is not a string literal shows as ``line N: not a literal``."""
    ops = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_make":
            op = node.args[0] if node.args else None
            literal = isinstance(op, ast.Constant) and isinstance(op.value, str)
            ops.add(op.value if literal else f"line {node.lineno}: not a literal")
    return ops


def test_primitive_registry_is_complete():
    # every op the module records has a gradient-check case, and every case
    # checks a recorded op or ``mean`` (a ``mul`` of a ``sum``)
    ops = made_ops(Path(ad.__file__).read_text())
    names = {name for name, _, _ in primitive_cases(np.random.default_rng(0))}
    assert ops - names == set()
    assert names - ops == {"mean"}
    assert names == set(CASE_IDS)


def test_made_ops_reads_every_make_call():
    source = '''
def add(a, b):
    return _make("add", tape, a.data + b.data, (a, b), vjps)
def tmean(a):
    return mul(tsum(a), 0.5)
def odd(a, op):
    node = _make(op, a.tape, a.data, (a,), ())
    return other._make("attribute", a), make("plain", a)
class Tape:
    def leaf(self, data):
        return _make("leaf", self, data, (), ())
'''
    assert made_ops(source) == {"add", "line 7: not a literal", "leaf"}


def test_sphere_normalize_unit_norm_invariant():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        v = rng.uniform(-3, 3, size=(4, n))
        norms = np.linalg.norm(v, axis=1)
        v = v[norms >= 1e-6]
        if not len(v):
            continue
        tape = ad.Tape()
        out = ad.sphere_normalize(tape.constant(v))
        assert np.all(np.abs(np.linalg.norm(out.data, axis=1) - 1.0) <= 1e-9)


def test_sphere_normalize_tiny_input_stays_bounded():
    tape = ad.Tape()
    v = tape.leaf(np.array([1e-9, 0.0]))
    out = ad.sphere_normalize(v)
    assert np.all(np.isfinite(out.data))
    tape.backward(ad.tsum(out))
    assert np.all(np.isfinite(v.grad))


@pytest.mark.parametrize("rows", [
    [[1e200, 1e200]],
    [[1e300] * 64],
    [[1e300] * 64, [3.0, 4.0] + [0.0] * 62],
], ids=["pair_of_1e200", "row_of_1e300", "mixed_batch"])
def test_sphere_normalize_row_whose_square_overflows_is_unit(rows):
    x = np.array(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.sphere_normalize(ad.Tape().constant(x)).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, rtol=0.0, atol=1e-15)
    if len(x) > 1:  # the ordinary row is normalised as it is on its own
        alone = ad.sphere_normalize(ad.Tape().constant(x[1:])).data
        np.testing.assert_array_equal(out[1:], alone)


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(3)
        tape = ad.Tape()
        w = tape.leaf(rng.uniform(-1, 1, size=(5, 5)))
        x = tape.constant(rng.uniform(-1, 1, size=(2, 5)))
        y = ad.tmean(ad.tanh(ad.matmul(x, w)))
        tape.backward(y)
        return w.grad

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)  # bitwise


def test_backward_rejects_non_scalar():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3))
    y = ad.mul(x, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(y)


def test_second_backward_on_a_tape_raises():
    tape = ad.Tape()
    x = tape.leaf(np.array(3.0))
    out = ad.mul(x, x)
    tape.backward(out)
    with pytest.raises(ad.TapeConsumedError, match="already run backward"):
        tape.backward(out)
    assert x.grad == pytest.approx(6.0, abs=1e-12)  # the leaf keeps its gradient


def test_recording_on_a_consumed_tape_raises():
    tape = ad.Tape()
    x = tape.leaf(np.array([1.0, 2.0]))
    tape.backward(ad.tsum(x))
    with pytest.raises(ad.TapeConsumedError, match="already run backward"):
        ad.mul(x, x)
    with pytest.raises(ad.TapeConsumedError, match="already run backward"):
        tape.leaf(np.ones(2))


def test_num_ops_survives_backward():
    tape = ad.Tape()
    w = tape.leaf(np.ones((3, 2)))
    x = tape.constant(np.ones((4, 3)))
    out = ad.tmean(ad.relu(ad.matmul(x, w)))
    before = tape.num_ops
    assert before == 4  # matmul, relu, and the sum and mul of tmean
    tape.backward(out)
    assert tape.num_ops == before


@pytest.mark.parametrize("in_place", [False, True], ids=["new_array", "in_place"])
def test_relu_vjp_is_g_times_x_positive_bit_for_bit(in_place):
    # exact zeros of both signs, tiny and ordinary negatives, and negative
    # adjoints, so every masked entry of the expected VJP is a -0.0
    x = np.array([[1.5, 0.0, -0.0, -2.0], [-1e-300, 1e-300, 3.0, -0.5]])
    g = np.array([[-1.0, -2.0, -3.0, -4.0], [-0.5, -0.25, -2.0, -8.0]])
    expected = g * (x > 0)
    assert np.signbit(expected[expected == 0.0]).all() and (expected == 0.0).sum() == 5
    tape = ad.Tape()
    leaf = tape.leaf(x)
    pre = ad.add(leaf, 0.0)  # a node of its own that the in-place ReLU may overwrite
    out = ad.relu(pre, out=pre.data if in_place else None)
    tape.backward(ad.tsum(ad.mul(out, g)))
    np.testing.assert_array_equal(leaf.grad.view(np.uint64), expected.view(np.uint64))


def test_backward_frees_interior_nodes():
    tape = ad.Tape()
    w = tape.leaf(np.ones((3, 2)))
    hidden = ad.relu(ad.matmul(tape.constant(np.ones((4, 3))), w))
    out = ad.tsum(hidden)
    tape.backward(out)
    assert hidden.parents == () and hidden.vjps == () and hidden.grad is None
    np.testing.assert_array_equal(w.grad, np.full((3, 2), 4.0))


def test_shape_mismatch_rejected():
    tape = ad.Tape()
    a = tape.constant(np.ones((2, 3)))
    b = tape.constant(np.ones((2, 3)))
    with pytest.raises(ValueError, match="matmul"):
        ad.matmul(a, b)


def test_non_finite_rejected():
    tape = ad.Tape()
    with pytest.raises(ad.NonFiniteError):
        tape.leaf(np.array([1.0, np.nan]))
    x = tape.constant(np.array([1e200]))
    with pytest.raises(ad.NonFiniteError):
        ad.mul(x, x)  # overflows to inf


# primitive -> (the op that overflows, a graph in which it does)
OVERFLOWS = {
    "add": ("add", lambda t: ad.add(t.constant([1e308]), t.constant([1e308]))),
    "sub": ("sub", lambda t: ad.sub(t.constant([1e308]), t.constant([-1e308]))),
    "mul": ("mul", lambda t: ad.mul(t.constant([1e200]), t.constant([1e200]))),
    "div": ("div", lambda t: ad.div(t.constant([1e200]), t.constant([1e-200]))),
    "matmul": ("matmul", lambda t: ad.matmul(t.constant([[1e200, 1e200]]),
                                             t.constant([[1e200], [-1e200]]))),
    "sum": ("sum", lambda t: ad.tsum(t.constant([1e308, 1e308]))),
    "mean": ("sum", lambda t: ad.tmean(t.constant([1e308, 1e308]))),
}


@pytest.mark.parametrize("name", OVERFLOWS)
def test_overflow_raises_the_typed_error_not_a_warning(name):
    # with warnings as errors, numpy's RuntimeWarning must not escape first
    op, build = OVERFLOWS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ad.NonFiniteError, match=f"'{op}'"):
            build(ad.Tape())


def test_logsumexp_of_a_row_wider_than_float64_is_finite_without_a_warning():
    # x - max overflows to -inf on the far entry, whose exp is then exactly 0
    tape = ad.Tape()
    x = tape.leaf([[-1e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.logsumexp(x, axis=1)
        tape.backward(ad.tsum(out))
    np.testing.assert_array_equal(out.data, [1e308])
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0]])


def test_overflowing_adjoint_is_left_for_adam_to_skip():
    # the forward is finite, d/db of (a / b) / b overflows in the backward pass
    params = ad.ParameterSet({"b": np.array([1e-300])})
    state = ad.AdamState.for_params(params)
    tape = ad.Tape()
    b = params.watch(tape)["b"]
    out = ad.tsum(ad.div(ad.div(tape.constant([1e-300]), b), b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tape.backward(out)
        ad.adam_step(params, {"b": b.grad}, state)
    assert not np.all(np.isfinite(b.grad))
    assert state.skipped == 1 and params["b"][0] == 1e-300


def test_workspace_backward_keeps_shared_adjoints_apart():
    # x feeds three ops, and the adjoint of y passes through to both parents of
    # an add, so a sum that wrote into an adjoint another consumer still reads
    # would corrupt the result
    x0 = np.random.default_rng(5).uniform(-1, 1, size=(2, 3))
    tape = ad.Tape()
    x = tape.leaf(x0)
    y = ad.mul(x, x)
    z = ad.add(y, y)
    tape.backward(ad.tsum(ad.add(ad.mul(z, ad.mul(x, 3.0)), ad.reshape(ad.transpose(z), (2, 3)))))
    np.testing.assert_allclose(x.grad, 18.0 * x0 * x0 + 4.0 * x0, rtol=1e-14)


def test_cross_tape_operands_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = t1.leaf(np.ones(2))
    b = t2.leaf(np.ones(2))
    with pytest.raises(ValueError, match="tape"):
        ad.add(a, b)


def test_backward_of_another_tapes_node_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    out = ad.tsum(t2.leaf(np.ones(2)))
    with pytest.raises(ValueError, match="does not belong to this tape"):
        t1.backward(out)
    t1.leaf(np.ones(1))  # the rejected call left both tapes live
    t2.backward(out)


def test_op_without_a_tensor_operand_rejected():
    with pytest.raises(TypeError, match="at least one operand must be a Tensor"):
        ad.add(np.ones(2), 1.0)


@pytest.mark.parametrize("op", [
    lambda t: ad.matmul(t.constant(np.ones(3)), t.constant(np.ones((3, 2)))),
    lambda t: ad.matmul(t.constant(np.ones((2, 3))), t.constant(np.ones(3))),
    lambda t: ad.transpose(t.constant(np.ones(3))),
    lambda t: ad.row_slice(t.constant(np.ones((2, 3, 1))), 0, 1),
], ids=["matmul_left", "matmul_right", "transpose", "row_slice"])
def test_two_d_ops_reject_another_rank(op):
    with pytest.raises(ValueError, match="2-D"):
        op(ad.Tape())


def test_sqrt_of_a_negative_input_rejected():
    tape = ad.Tape()
    with pytest.raises(ValueError, match="non-negative"):
        ad.sqrt(tape.leaf(np.array([4.0, -1e-300])))


def test_empty_concat_rejected():
    with pytest.raises(ValueError, match="at least one tensor"):
        ad.concat([])


def test_parameter_set_copy_is_independent():
    params = ad.ParameterSet({"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)})
    copy = params.copy()
    assert copy.names() == params.names()
    for name in params:
        np.testing.assert_array_equal(copy[name], params[name])
        assert not np.shares_memory(copy[name], params[name])
    copy["w"] += 1.0  # in place, as a Polyak update writes a target
    params["b"][:] = 5.0
    np.testing.assert_array_equal(params["w"], np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(copy["b"], np.zeros(3))


def test_mlp_init_bounds():
    rng = np.random.default_rng(9)
    params = ad.mlp_params(rng, [16, 4])
    bound = 1.0 / np.sqrt(16)
    assert np.all(np.abs(params["layer0.w"]) <= bound)
    assert np.all(np.abs(params["layer0.b"]) <= bound)


@pytest.mark.parametrize("sizes", [[3], [3, 0, 1], [3, 8, 0],
                                   [3, True, 2], [3, 4.0, 2], [3.0, 2], [3, "4", 2]])
def test_mlp_params_rejects_a_missing_or_empty_layer(sizes):
    with pytest.raises(ValueError, match="an MLP needs|at least 1"):
        ad.mlp_params(np.random.default_rng(0), sizes)


def test_mlp_params_draws_each_weight_then_its_bias():
    params = ad.mlp_params(np.random.default_rng(3), (4, np.int64(5), 2))
    rng = np.random.default_rng(3)
    for i, (fan_in, fan_out) in enumerate([(4, 5), (5, 2)]):
        bound = 1.0 / np.sqrt(fan_in)
        np.testing.assert_array_equal(params[f"layer{i}.w"],
                                      rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        np.testing.assert_array_equal(params[f"layer{i}.b"], rng.uniform(-bound, bound, size=fan_out))


def critic_head(seed=0):
    """A critic-shaped MLP: its last layer, of width 1, has no ReLU."""
    return ad.mlp_params(np.random.default_rng(seed), [5, 64, 64, 1])


#: Rows per ``mlp_infer`` block at the critic head's hidden width of 64
CRITIC_BLOCK = ad._INFER_BLOCK_BYTES // (8 * 64)


def plain_mlp(params, x):
    """Reference oracle: the MLP as plain numpy expressions, one layer at a time."""
    layers = list(ad.mlp_layers(params))
    for i, (w, b, _) in enumerate(layers):
        x = x @ w + b
        if i < len(layers) - 1:
            x = np.maximum(x, 0.0)
    return x


class TestMLP:
    def test_layers_in_order_with_a_relu_after_all_but_the_last(self):
        params = ad.mlp_params(np.random.default_rng(1), [5, 7, 6, 1])
        layers = list(ad.mlp_layers(params))
        assert [w.shape for w, _, _ in layers] == [(5, 7), (7, 6), (6, 1)]
        assert [b.shape for _, b, _ in layers] == [(7,), (6,), (1,)]
        assert [relu for _, _, relu in layers] == [True, True, False]
        assert all(layers[i][0] is params[name]
                   for i, name in enumerate(n for n in params if n.endswith(".w")))
        tape = ad.Tape()
        nodes = params.watch(tape)
        assert [w for w, _, _ in ad.mlp_layers(nodes)] == [nodes[n] for n in nodes if n.endswith(".w")]

    @pytest.mark.parametrize("rows", [
        CRITIC_BLOCK - 1, CRITIC_BLOCK, CRITIC_BLOCK + 1, 2 * CRITIC_BLOCK + 1, 5000])
    def test_infer_walks_row_blocks(self, rows):
        block = CRITIC_BLOCK
        assert block == 1024
        params = critic_head(seed=2)
        workspace = {}
        x = np.random.default_rng(rows).uniform(-2, 2, size=(rows, 5))
        out = ad.mlp_infer(params, x, workspace)
        assert out.shape == (rows, 1)
        assert (out < 0.0).any() and (out > 0.0).any()  # no ReLU on the last layer
        kept = out.copy()
        blocks = np.concatenate([ad.mlp_infer(params, x[i:i + block], workspace)
                                 for i in range(0, rows, block)])
        np.testing.assert_array_equal(out, blocks)
        np.testing.assert_allclose(out, plain_mlp(params, x), rtol=0.0, atol=1e-12)
        tape = ad.Tape()
        graph, _ = ad.mlp_forward(tape.constant(x), params.watch(tape), {})
        np.testing.assert_allclose(out, graph.data, rtol=0.0, atol=1e-12)
        ad.mlp_infer(params, x[::-1], workspace)
        np.testing.assert_array_equal(out, kept)
        assert sum(buf.nbytes for buf in workspace.values()) <= 2 * ad._INFER_BLOCK_BYTES

    def test_infer_reuses_two_buffers(self):
        params = critic_head(seed=3)
        rng = np.random.default_rng(4)
        workspace = {}
        ad.mlp_infer(params, rng.uniform(-2, 2, size=(20, 5)), workspace)
        buffers = dict(workspace)
        assert len(buffers) == 2
        for rows in (7, 13, 20, 1, 20):  # grow, shrink and repeat up to the first count
            ad.mlp_infer(params, rng.uniform(-2, 2, size=(rows, 5)), workspace)
            assert workspace.keys() == buffers.keys()
            assert all(workspace[k] is buf for k, buf in buffers.items())
        ad.mlp_infer(params, rng.uniform(-2, 2, size=(21, 5)), workspace)  # grows both, once
        grown = dict(workspace)
        assert grown.keys() == buffers.keys()
        assert all(grown[k] is not buf for k, buf in buffers.items())
        ad.mlp_infer(params, rng.uniform(-2, 2, size=(4, 5)), workspace)
        assert all(workspace[k] is buf for k, buf in grown.items())

    def test_workspace_forward_matches_fresh_forward(self):
        # the forward keeps each hidden layer's output and no mask; the output
        # is > 0 exactly where the fresh forward's layer, before its ReLU, is
        params = critic_head(seed=6)
        rng = np.random.default_rng(7)
        workspace, infer_workspace = {}, {}
        for rows in (7, 7, 4, 9):  # reuse, fewer rows, then more
            x = rng.uniform(-2, 2, size=(rows, 5))
            fresh = ad.Tape()
            out, layers = ad.mlp_forward(fresh.constant(x), params.watch(fresh), {})
            tape = ad.Tape()
            out_w, layers_w = ad.mlp_forward(tape.constant(x), params.watch(tape), workspace)
            # the numpy form may run while the graph is live
            ad.mlp_infer(params, rng.uniform(-2, 2, size=(rows + 5, 5)), infer_workspace)
            np.testing.assert_array_equal(out_w.data, out.data)
            assert [hidden is None for _, hidden in layers_w] == [False, False, True]
            assert {role for _, role in workspace} == {"out"}
            pre, h = [], x  # each hidden layer's output before its ReLU, in numpy
            for w, b, _ in list(ad.mlp_layers(params))[:-1]:
                pre.append(h @ w + b)
                h = np.maximum(pre[-1], 0.0)
            for i, ((w, hidden), (w_w, hidden_w)) in enumerate(zip(layers[:-1], layers_w[:-1])):
                np.testing.assert_array_equal(hidden_w, hidden)
                assert np.shares_memory(hidden_w, workspace[(i, "out")])
                np.testing.assert_array_equal(hidden_w > 0.0, pre[i] > 0.0)
                np.testing.assert_array_equal(w_w.data, w.data)

    def test_forward_gradients_match_finite_differences(self):
        params = critic_head(seed=8)
        names = params.names()
        x = np.random.default_rng(9).uniform(-1, 1, size=(3, 5))
        weights = np.random.default_rng(10).normal(size=(3, 1))
        workspace = {}  # reused by every evaluation

        def build(tape, leaves):
            out, _ = ad.mlp_forward(leaves[0], dict(zip(names, leaves[1:])), workspace)
            return ad.tsum(ad.mul(out, tape.constant(weights)))

        check_gradients(build, [x] + [params[n].copy() for n in names])

    @pytest.mark.parametrize("case", ["hidden_minus_inf", "hidden_plus_inf", "output_plus_inf"])
    def test_overflowing_layer_raises_in_both_forms(self, case):
        # finite rows whose products overflow: a hidden -Inf that the ReLU would
        # turn into 0, a hidden +Inf that turns into NaN at the next layer, and
        # a +Inf in the last layer only, which has no ReLU and no next layer
        params = critic_head(seed=11)
        layers = list(ad.mlp_layers(params))
        row = np.full((1, 5), 1e308)
        if case == "hidden_minus_inf":
            layers[0][0][:] = -1.0
        elif case == "hidden_plus_inf":
            layers[0][0][:] = 1.0
        else:
            # the output is 1e300 * relu(sum of the row): finite for the other rows
            row = np.full((1, 5), 1e10)
            layers[0][0][:, 0], layers[0][1][0] = 1.0, 0.0
            layers[1][0][:], layers[1][1][:] = 0.0, 0.0
            layers[1][0][0, 0] = 1.0
            layers[2][0][:], layers[2][1][:] = 1e300, 0.0
        x = np.concatenate([np.random.default_rng(12).uniform(-2, 2, size=(4, 5)), row])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ad.NonFiniteError, match="'mlp_infer' produced non-finite values"):
                ad.mlp_infer(params, x, {})
            tape = ad.Tape()
            with pytest.raises(ad.NonFiniteError, match="produced non-finite values"):
                ad.mlp_forward(tape.constant(x), params.watch(tape), {})


class TestAdam:
    def make(self, lr=1e-3):
        params = ad.ParameterSet({"w": np.array([1.0, -2.0, 3.0])})
        state = ad.AdamState.for_params(params, lr=lr)
        return params, state

    @pytest.mark.parametrize("lr", [True, np.True_, np.nan, np.inf, -1.0, 0.0, "1e-3", None,
                                    np.array(1e-3)])
    def test_learning_rate_that_is_no_finite_positive_number_rejected(self, lr):
        # True would step with 1, NaN turn every parameter into NaN, -1.0 ascend
        match = re.escape(f"lr must be a finite real number above 0, got {lr!r}")
        with pytest.raises(ValueError, match=match):
            ad.AdamState(lr=lr)
        with pytest.raises(ValueError, match=match):
            self.make(lr=lr)

    @pytest.mark.parametrize("counter", ["step_count", "skipped", "first_moment", "second_moment"])
    def test_learning_rate_is_the_only_argument(self, counter):
        # counters or moments set by hand would put the bias correction off
        with pytest.raises(TypeError, match=counter):
            ad.AdamState(lr=1e-3, **{counter: 5})

    @pytest.mark.parametrize("lr", [1e-3, 1, np.float32(0.5), np.float64(1e-4)])
    def test_learning_rate_of_any_real_type_accepted(self, lr):
        params, state = self.make(lr=lr)
        ad.adam_step(params, {"w": np.ones(3)}, state)
        np.testing.assert_allclose(params["w"], np.array([1.0, -2.0, 3.0]) - float(lr), atol=1e-6)

    def test_zero_gradient_leaves_params_unchanged(self):
        params, state = self.make()
        before = params["w"].copy()
        ad.adam_step(params, {"w": np.zeros(3)}, state)
        np.testing.assert_array_equal(params["w"], before)
        assert state.step_count == 1

    def test_moments_decay(self):
        params, state = self.make()
        state.first_moment["w"][:] = 1.0
        state.second_moment["w"][:] = 1.0
        ad.adam_step(params, {"w": np.zeros(3)}, state)
        np.testing.assert_allclose(state.first_moment["w"], 0.9)
        np.testing.assert_allclose(state.second_moment["w"], 0.999)

    def test_first_step_bias_correction(self):
        # with correction the very first step has magnitude ~lr regardless of |g|
        params, state = self.make(lr=1e-3)
        before = params["w"].copy()
        g = np.array([0.04, -7.0, 0.5])
        ad.adam_step(params, {"w": g}, state)
        np.testing.assert_allclose(params["w"] - before, -1e-3 * np.sign(g), rtol=1e-6)

    def test_constant_gradient_fixed_point(self):
        params, state = self.make(lr=1e-3)
        g = np.array([0.3, -1.7, 0.002])
        for _ in range(500):
            before = params["w"].copy()
            ad.adam_step(params, {"w": g}, state)
        step = params["w"] - before
        np.testing.assert_allclose(step, -1e-3 * np.sign(g), rtol=1e-4)

    def test_non_finite_gradient_skips_update(self):
        params, state = self.make()
        before = params["w"].copy()
        ad.adam_step(params, {"w": np.array([1.0, np.nan, 0.0])}, state)
        np.testing.assert_array_equal(params["w"], before)
        assert state.skipped == 1
        assert state.step_count == 0

    @pytest.mark.parametrize("warnings_are_errors", [False, True], ids=["plain", "W_error"])
    @pytest.mark.parametrize("big", [1e200, -1e200, np.nextafter(ad._ADAM_GRAD_MAX, np.inf)],
                             ids=["1e200", "-1e200", "next_above_the_max"])
    def test_gradient_whose_square_overflows_skips_update(self, big, warnings_are_errors):
        # its second moment would be +inf, and that entry would never move again
        params, state = self.make()
        ad.adam_step(params, {"w": np.array([0.5, -0.1, 2.0])}, state)
        kept = (params["w"].copy(), state.first_moment["w"].copy(), state.second_moment["w"].copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error" if warnings_are_errors else "default")
            ad.adam_step(params, {"w": np.array([big, 1.0, 0.0])}, state)
        np.testing.assert_equal((params["w"], state.first_moment["w"], state.second_moment["w"]),
                                kept)
        assert (state.step_count, state.skipped) == (1, 1)

    def test_largest_gradient_whose_square_is_finite_steps(self):
        params, state = self.make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ad.adam_step(params, {"w": np.array([ad._ADAM_GRAD_MAX, -ad._ADAM_GRAD_MAX, 1.0])},
                         state)
        assert np.all(np.isfinite(state.second_moment["w"]))
        assert (state.step_count, state.skipped) == (1, 0)

    def test_steps_match_the_textbook_update(self):
        # the in-place update against the formula written out, bit for bit
        rng = np.random.default_rng(12)
        params = ad.ParameterSet({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)})
        state = ad.AdamState.for_params(params, lr=1e-2)
        value, m, v = ({k: params[k].copy() for k in params} for _ in range(3))
        for k in params:
            m[k][:] = v[k][:] = 0.0
        for t in range(1, 6):
            grads = {k: rng.normal(size=params[k].shape) for k in params}
            ad.adam_step(params, grads, state)
            c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * (g * g)
                value[k] = value[k] - 1e-2 * (m[k] / c1) / (np.sqrt(v[k] / c2) + 1e-8)
                np.testing.assert_array_equal(params[k], value[k])
                np.testing.assert_array_equal(state.first_moment[k], m[k])
                np.testing.assert_array_equal(state.second_moment[k], v[k])

    def test_missing_gradient_treated_as_zero(self):
        params, state = self.make()
        before = params["w"].copy()
        ad.adam_step(params, {}, state)
        np.testing.assert_array_equal(params["w"], before)

    @pytest.mark.parametrize("grads, message", [
        ({"W": np.ones(3)}, "gradient 'W' matches no parameter"),
        ({"w": np.ones((2, 3))}, r"gradient 'w' has shape \(2, 3\), the parameter \(3,\)"),
        ({"w": np.ones(1)}, r"gradient 'w' has shape \(1,\), the parameter \(3,\)"),
        ({"w": np.full(3, np.nan), "v": np.ones(3)}, "gradient 'v' matches no parameter"),
    ], ids=["misspelled_name", "broadcastable_shape", "shape_of_one", "before_the_finite_check"])
    def test_gradient_it_cannot_match_raises_and_changes_nothing(self, grads, message):
        params, state = self.make()
        assert ad.adam_step(params, {"w": np.array([0.5, -0.1, 2.0])}, state) is None
        kept = (params["w"].copy(), state.first_moment["w"].copy(),
                state.second_moment["w"].copy(), state.step_count, state.skipped)
        with pytest.raises(ValueError, match=message):
            ad.adam_step(params, grads, state)
        np.testing.assert_array_equal(params["w"], kept[0])
        np.testing.assert_array_equal(state.first_moment["w"], kept[1])
        np.testing.assert_array_equal(state.second_moment["w"], kept[2])
        assert (state.step_count, state.skipped) == kept[3:] == (1, 0)

    @pytest.mark.parametrize("kind", ["first", "second"])
    def test_moment_it_cannot_use_raises_and_changes_nothing(self, kind):
        # AdamState(lr=...) holds no moments; a step on it, or on a moment of
        # another shape, would count the step first and then fail
        params = ad.ParameterSet({"w": np.array([1.0, -2.0, 3.0])})
        if kind == "first":
            state = ad.AdamState(lr=1e-3)
        else:
            state = ad.AdamState.for_params(params, lr=1e-3)
            state.second_moment["w"] = np.zeros(1)
        kept = ({k: m.copy() for k, m in state.first_moment.items()},
                {k: m.copy() for k, m in state.second_moment.items()})
        with pytest.raises(ValueError, match=re.escape(
                f"adam_step: parameter 'w' has no {kind} moment of its shape (3,)")):
            ad.adam_step(params, {"w": np.ones(3)}, state)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])
        np.testing.assert_equal((state.first_moment, state.second_moment), kept)
        assert (state.step_count, state.skipped) == (0, 0)

    def test_shape_mismatch_in_a_two_d_parameter_is_not_broadcast(self):
        params = ad.ParameterSet({"w": np.ones((2, 3))})
        state = ad.AdamState.for_params(params, lr=1e-3)
        with pytest.raises(ValueError, match=r"gradient 'w' has shape \(3,\), the parameter \(2, 3\)"):
            ad.adam_step(params, {"w": np.array([1.0, -1.0, 0.5])}, state)
        np.testing.assert_array_equal(params["w"], np.ones((2, 3)))
        assert not state.first_moment["w"].any() and state.step_count == 0
