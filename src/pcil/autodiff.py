"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records every primitive applied to values derived from its
leaves, in execution order. Because operands always precede their results,
walking the record backwards visits each node exactly once in reverse
topological order; :meth:`Tape.backward` accumulates adjoints that way and
deposits them on the leaves. Tapes are cheap, single-use and single-threaded:
build one per training step, run one backward pass. That pass consumes the
tape: it drops the record and each node's links as soon as the node has
passed its adjoint on, so reference counting frees the graph during the pass
and only the leaves (with their ``.grad``) outlive it. A consumed tape raises
:class:`TapeConsumedError` if asked to record or differentiate again. Every
vector-Jacobian product returns an array of its own (or a view of its
input), and adjoints that meet at a node are summed into a new array.

Everything is float64. Non-finite values are rejected at every op boundary so
NaN/Inf can never propagate silently through a graph.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ._checks import is_integer, is_real, real_float64

_log = logging.getLogger(__name__)

# Below this input norm, sphere_normalize pads the denominator with _NORM_EPS
# so the division (and its gradient) stays bounded.
_NORM_CUTOFF = 1e-6
_NORM_EPS = 1e-8


#: Floating-point errors whose only effect is a NaN or Inf in the result.
#: The ops under it leave those to the finiteness check of ``_make`` (or, in
#: ``backward``, to ``adam_step``'s), so numpy neither warns first nor, under
#: ``-W error``, raises a RuntimeWarning instead of the typed error.
_quiet_fp = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_quiet_fp
def norm_and_denominator(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Norms along the last axis (kept as size 1) and the divisor that maps ``x``
    onto the unit sphere: the norm, padded by ``_NORM_EPS`` below ``_NORM_CUTOFF``.

    A finite row whose sum of squares overflows (entries of 1e200, say) has
    its norm recomputed after dividing it by its largest magnitude; every
    other row keeps the plain sum of squares.
    """
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    if np.isinf(norm).any():
        peak = np.abs(x).max(axis=-1, keepdims=True)
        scaled = x / peak
        rescaled = peak * np.sqrt((scaled * scaled).sum(axis=-1, keepdims=True))
        norm = np.where(np.isinf(norm) & np.isfinite(peak), rescaled, norm)
    return norm, np.where(norm < _NORM_CUTOFF, norm + _NORM_EPS, norm)


def workspace_buffer(workspace: dict, key, shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of ``shape`` on the flat array kept under ``key`` in
    ``workspace``: a view of its first ``prod(shape)`` items.

    The flat array is made on first use and made anew, larger, only when it
    is too small, so every smaller shape reuses it. As ``out``, it makes a
    mask from ``np.greater`` 0.0/1.0.
    """
    size = math.prod(shape)
    flat = workspace.get(key)
    if flat is None or flat.size < size:
        flat = workspace[key] = np.empty(size)
    return flat[:size].reshape(shape)


class NonFiniteError(ArithmeticError):
    """An operation produced (or was fed) NaN or Inf."""


class TapeConsumedError(RuntimeError):
    """A tape that has already run backward was asked to record or run again."""


class Tensor:
    """A node in a tape graph: a float64 array plus backward bookkeeping."""

    __slots__ = ("data", "tape", "parents", "vjps", "requires_grad", "grad", "op")

    def __init__(self, data, tape, parents=(), vjps=(), requires_grad=False, op="leaf"):
        self.data = data
        self.tape = tape
        self.parents = parents
        self.vjps = vjps
        self.requires_grad = requires_grad
        self.grad = None
        self.op = op

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"<Tensor {self.op} shape={self.data.shape}>"


class Tape:
    """Ordered record of primitive ops supporting one reverse pass.

    Every node holds its tape and the record holds every node, so a live tape
    is a reference cycle. ``backward`` breaks it: it takes the record off the
    tape and clears each node's parents, VJPs and adjoint once they are used.
    ``num_ops`` still reads the number of recorded ops afterwards.
    """

    def __init__(self):
        self._ops: list[Tensor] | None = []
        self._num_ops = 0

    @property
    def num_ops(self) -> int:
        return self._num_ops

    def _check_live(self) -> None:
        if self._ops is None:
            raise TapeConsumedError("this tape has already run backward")

    def leaf(self, data, requires_grad: bool = True) -> Tensor:
        self._check_live()
        arr = real_float64(data, "leaf value")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("leaf value contains NaN or Inf")
        return Tensor(arr, self, requires_grad=requires_grad)

    def constant(self, data) -> Tensor:
        return self.leaf(data, requires_grad=False)

    @_quiet_fp
    def backward(self, output: Tensor) -> None:
        """Accumulate d(output)/d(leaf) into ``.grad`` of every grad-enabled leaf.

        ``output`` must be a scalar (size-1) node on this tape. The pass
        consumes the tape: interior nodes lose their links and adjoints as it
        walks them, and a second call raises :class:`TapeConsumedError`. An
        adjoint that overflows is left non-finite for the optimiser to reject.
        """
        self._check_live()
        if output.tape is not self:
            raise ValueError("output node does not belong to this tape")
        if output.size != 1:
            raise ValueError(
                f"backward requires a scalar output, got shape {output.shape}"
            )
        ops, self._ops = self._ops, None
        output.grad = np.ones_like(output.data)
        while ops:
            node = ops.pop()
            g = node.grad
            if g is not None:
                for parent, vjp in zip(node.parents, node.vjps):
                    if not parent.requires_grad:
                        continue
                    pg = vjp(g)
                    parent.grad = pg if parent.grad is None else parent.grad + pg
            node.parents = node.vjps = ()
            node.grad = None


def _lift(tape: Tape, x) -> Tensor:
    if isinstance(x, Tensor):
        if x.tape is not tape:
            raise ValueError("operands belong to different tapes")
        return x
    return tape.constant(x)


def _tape_of(*args) -> Tape:
    for a in args:
        if isinstance(a, Tensor):
            return a.tape
    raise TypeError("at least one operand must be a Tensor")


def _make(op: str, tape: Tape, data: np.ndarray, parents, vjps) -> Tensor:
    # a primitive makes float64 data from float64 operands: it is not converted again
    tape._check_live()
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"'{op}' produced non-finite values")
    requires = any(p.requires_grad for p in parents)
    node = Tensor(data, tape, tuple(parents), tuple(vjps), requires, op)
    if requires:
        tape._ops.append(node)
        tape._num_ops += 1
    return node


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


@_quiet_fp
def add(a, b, out: np.ndarray | None = None) -> Tensor:
    """``a + b``; ``out``, if given, is the float64 array the sum is written to."""
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    data = np.add(a.data, b.data, out=out)
    return _make(
        "add", tape, data, (a, b),
        (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(g, b.data.shape)),
    )


@_quiet_fp
def sub(a, b) -> Tensor:
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    data = a.data - b.data
    return _make(
        "sub", tape, data, (a, b),
        (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(-g, b.data.shape)),
    )


@_quiet_fp
def mul(a, b, out: np.ndarray | None = None) -> Tensor:
    """``a * b``; ``out``, if given, is the float64 array the product is written to."""
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    data = np.multiply(a.data, b.data, out=out)
    return _make(
        "mul", tape, data, (a, b),
        (
            lambda g: _unbroadcast(g * b.data, a.data.shape),
            lambda g: _unbroadcast(g * a.data, b.data.shape),
        ),
    )


@_quiet_fp
def div(a, b) -> Tensor:
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    data = a.data / b.data
    return _make(
        "div", tape, data, (a, b),
        (
            lambda g: _unbroadcast(g / b.data, a.data.shape),
            lambda g: _unbroadcast(-g * data / b.data, b.data.shape),
        ),
    )


@_quiet_fp
def matmul(a, b, out: np.ndarray | None = None) -> Tensor:
    """``a @ b`` of 2-D operands; ``out``, if given, is the float64 array the
    product is written to."""
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(
            f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}"
        )
    data = np.matmul(a.data, b.data, out=out)
    return _make(
        "matmul", tape, data, (a, b),
        (lambda g: g @ b.data.T, lambda g: a.data.T @ g),
    )


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    return _make("tanh", a.tape, data, (a,), (lambda g: g * (1.0 - data * data),))


def relu(a: Tensor, out: np.ndarray | None = None) -> Tensor:
    """``max(a, 0)``; ``out``, if given, is the float64 array it is written to.

    The VJP multiplies by ``data > 0`` read from this output, which is > 0
    exactly where ``a`` is; no mask is stored.
    """
    data = np.maximum(a.data, 0.0, out=out)
    return _make("relu", a.tape, data, (a,), (lambda g: g * (data > 0.0),))


def softplus(a: Tensor) -> Tensor:
    data = np.logaddexp(0.0, a.data)
    x = a.data
    return _make(
        "softplus", a.tape, data, (a,),
        (lambda g: g * np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x))),),
    )


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise ValueError("sqrt requires non-negative inputs")
    data = np.sqrt(a.data)
    return _make("sqrt", a.tape, data, (a,), (lambda g: g * 0.5 / np.maximum(data, 1e-300),))


@_quiet_fp
def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    data = np.asarray(a.data.sum(axis=axis))
    shape = a.data.shape

    def vjp(g):
        return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape).copy()

    return _make("sum", a.tape, data, (a,), (vjp,))


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


@_quiet_fp
def logsumexp(a: Tensor, axis: int | None = None) -> Tensor:
    """Numerically stable log(sum(exp(a))) along ``axis``."""
    x = a.data
    m = np.max(x, axis=axis, keepdims=True)
    shifted = np.exp(x - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out = np.asarray((m + np.log(total)).squeeze() if axis is None else (m + np.log(total)).squeeze(axis=axis))
    softmax = shifted / total

    def vjp(g):
        return softmax * (g if axis is None else np.expand_dims(g, axis))

    return _make("logsumexp", a.tape, out, (a,), (vjp,))


def sphere_normalize(a: Tensor) -> Tensor:
    """Project rows (along the last axis) onto the unit sphere.

    Inputs with norm below 1e-6 get an epsilon-padded denominator instead of
    blowing up; everything else divides by the exact norm.
    """
    x = a.data
    norm, denom = norm_and_denominator(x)
    data = x / denom

    def vjp(g):
        inner = (g * x).sum(axis=-1, keepdims=True)
        coef = inner / (denom * denom * np.maximum(norm, 1e-300))
        return g / denom - x * coef

    return _make("sphere_normalize", a.tape, data, (a,), (vjp,))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    tape = _tape_of(*tensors)
    tensors = [_lift(tape, t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        sl = [slice(None)] * data.ndim
        sl[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
        sl = tuple(sl)
        return lambda g: g[sl]

    return _make("concat", tape, data, tuple(tensors), tuple(make_vjp(i) for i in range(len(tensors))))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.data.shape
    return _make("reshape", a.tape, a.data.reshape(shape), (a,), (lambda g: g.reshape(old),))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"transpose expects a 2-D operand, got shape {a.data.shape}")
    return _make("transpose", a.tape, a.data.T, (a,), (lambda g: g.T,))


def row_slice(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of a 2-D node, as a view; the VJP scatters back."""
    if a.data.ndim != 2:
        raise ValueError(f"row_slice expects a 2-D operand, got shape {a.data.shape}")
    shape = a.data.shape

    def vjp(g):
        full = np.zeros(shape)
        full[start:stop] = g
        return full

    return _make("row_slice", a.tape, a.data[start:stop], (a,), (vjp,))


# ---------------------------------------------------------------------------
# parameters, initialisation, MLP helpers: the one layer walk of every
# fully connected ReLU net, on a tape (mlp_forward) and in numpy (mlp_infer)
# ---------------------------------------------------------------------------


class ParameterSet:
    """Ordered mapping of names to float64 parameter arrays."""

    def __init__(self, arrays: Mapping[str, np.ndarray] | None = None):
        self._arrays: dict[str, np.ndarray] = {}
        if arrays:
            for name, value in arrays.items():
                self[name] = value

    def __setitem__(self, name: str, value) -> None:
        self._arrays[name] = real_float64(value, f"parameter {name!r}")

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)

    def __iter__(self):
        return iter(self._arrays)

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self):
        return self._arrays.items()

    def copy(self) -> "ParameterSet":
        return ParameterSet({k: v.copy() for k, v in self._arrays.items()})

    def watch(self, tape: Tape) -> dict[str, Tensor]:
        """Create one grad-enabled leaf per parameter on ``tape``."""
        return {name: tape.leaf(value) for name, value in self._arrays.items()}


#: Bytes per buffer of ``mlp_infer``'s layer walk: 256 rows at width 256, 1024
#: at width 64. Relabels took equal times with 128- to 2048-row blocks (2-vCPU
#: Xeon, 2 MiB L2 per core), so a larger budget would only hold more memory.
_INFER_BLOCK_BYTES = 512 * 1024


def mlp_params(rng: np.random.Generator, sizes: Sequence[int]) -> ParameterSet:
    """Parameters for a fully connected net with layer widths ``sizes``.

    Layer ``i`` is the weight ``layer{i}.w`` and the bias ``layer{i}.b``; only
    this module spells those names, every other reads them via ``mlp_layers``.
    Layer by layer, its weight and then its bias are drawn from ``rng``,
    uniform in +-1/sqrt(fan_in). Every width must be an integer of at least 1.
    """
    if len(sizes) < 2:
        raise ValueError("an MLP needs at least an input and an output width")
    if not all(is_integer(size) and size >= 1 for size in sizes):
        raise ValueError(f"every MLP width must be an integer of at least 1, got {list(sizes)}")
    params = ParameterSet()
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        bound = 1.0 / np.sqrt(fan_in)
        params[f"layer{i}.w"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[f"layer{i}.b"] = rng.uniform(-bound, bound, size=(fan_out,))
    return params


def mlp_layers(params):
    """Yield ``(w, b, relu_after)`` for every linear layer of ``params``, in order.

    ``params`` maps the names of ``mlp_params`` to numpy arrays (a
    ``ParameterSet``) or to tape nodes (what ``ParameterSet.watch`` returns)
    alike. Every layer but the last is followed by a ReLU.
    """
    count = sum(1 for name in params if name.endswith(".w"))
    for i in range(count):
        yield params[f"layer{i}.w"], params[f"layer{i}.b"], i < count - 1


def mlp_forward(x: Tensor, nodes, workspace: dict):
    """Tape forward of the MLP ``nodes`` (see ``mlp_layers``) on the rows of ``x``.

    Returns the output of the last layer and, for every layer in order, its
    weight node and its output after the ReLU that follows it (None for the
    last layer): that output is > 0 exactly where the ReLU passes gradient.

    Each layer's product, bias add and ReLU are computed in place in one
    array kept in the caller's ``workspace`` under ``(layer, "out")``
    (``workspace_buffer``), so forwards that reuse a workspace reuse its
    arrays. The product and sum nodes then hold the layer's output; no VJP
    reads their values, so the gradients stay exact. The next forward on the
    workspace overwrites its arrays, so the graph is valid only until then.
    """
    layers = []
    for i, (w, b, relu_after) in enumerate(mlp_layers(nodes)):
        y = workspace_buffer(workspace, (i, "out"), (x.shape[0], w.shape[1]))
        x = add(matmul(x, w, out=y), b, out=y)
        if relu_after:
            x = relu(x, out=y)
        layers.append((w, x.data if relu_after else None))
    return x, layers


@_quiet_fp
def mlp_infer(params, x: np.ndarray, workspace: dict) -> np.ndarray:
    """Numpy forward of the MLP ``params`` on the rows of ``x``, as a new array.

    Walks row blocks one after another: as many rows of the widest layer as
    fit in ``_INFER_BLOCK_BYTES``. Each hidden layer's product, bias add and
    ReLU run in place in the two arrays of ``workspace`` in turn (see
    ``workspace_buffer``), so they never hold more than 2 x that budget; the
    last layer writes the block's rows of the result. A layer whose output
    (before its ReLU) is not finite raises ``NonFiniteError`` and warns
    nothing, as ``mlp_forward`` raises for the same rows: a ReLU would hide a
    -Inf or NaN as 0.
    """
    layers = list(mlp_layers(params))
    block = max(1, _INFER_BLOCK_BYTES // (8 * max(w.shape[1] for w, _, _ in layers)))
    result = np.empty((len(x), layers[-1][0].shape[1]))
    for start in range(0, len(x), block):
        out = x[start:start + block]
        for i, (w, b, relu_after) in enumerate(layers):
            # layer i reads one buffer and writes the other; the last, the result
            if i < len(layers) - 1:
                y = workspace_buffer(workspace, i % 2, (len(out), w.shape[1]))
            else:
                y = result[start:start + len(out)]
            out = np.matmul(out, w, out=y)
            np.add(out, b, out=out)
            # NaN and -Inf show in the min; a hidden +Inf turns into NaN or
            # +-Inf at the next layer, so only the last needs its max as well
            if not (np.isfinite(out.min()) and (relu_after or np.isfinite(out.max()))):
                raise NonFiniteError(f"'mlp_infer' produced non-finite values in layer {i}")
            if relu_after:
                np.maximum(out, 0.0, out=out)
    return result


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


#: Adam's moment decay rates and denominator padding, the same for every network.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
#: The largest gradient entry, in magnitude, whose square (in the second
#: moment) is finite: any entry above it overflows, as a NaN or Inf entry is no number
_ADAM_GRAD_MAX = math.sqrt(np.finfo(np.float64).max)


@dataclass
class AdamState:
    """Adam moments and counters for one ParameterSet.

    The learning rate is the one setting, and the only argument; the counters
    and moments start empty, and the decay rates and the padding are the
    module constants ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``. An
    ``lr`` that is no finite real number above 0 raises ``ValueError``.
    """

    lr: float = 1e-4
    step_count: int = field(default=0, init=False)
    skipped: int = field(default=0, init=False)
    first_moment: dict = field(default_factory=dict, init=False)
    second_moment: dict = field(default_factory=dict, init=False)
    #: the two arrays ``adam_step`` computes its update in (see ``workspace_buffer``)
    workspace: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (is_real(self.lr) and 0.0 < self.lr < math.inf):  # NaN fails too
            raise ValueError(f"lr must be a finite real number above 0, got {self.lr!r}")

    @classmethod
    def for_params(cls, params: ParameterSet, lr: float = 1e-4) -> "AdamState":
        state = cls(lr=lr)
        for name, value in params.items():
            state.first_moment[name] = np.zeros_like(value)
            state.second_moment[name] = np.zeros_like(value)
        return state


def adam_step(params: ParameterSet, grads: Mapping[str, np.ndarray], state: AdamState) -> None:
    """One in-place Adam update with bias correction.

    A parameter without a gradient takes a zero one. A gradient whose name
    is no parameter's, or whose shape is not its parameter's, and a
    parameter with no first or second moment of its shape (a state made
    without ``AdamState.for_params``), raise ``ValueError`` naming it before
    anything changes. A gradient with an entry that is not finite, or whose
    square overflows (above ``_ADAM_GRAD_MAX``, about 1.34e154), skips the
    whole update (step count, moments and parameters untouched) and bumps
    ``state.skipped``.
    """
    for name, g in grads.items():
        if name not in params:
            raise ValueError(f"adam_step: gradient {name!r} matches no parameter")
        if g is not None and np.shape(g) != params[name].shape:
            raise ValueError(f"adam_step: gradient {name!r} has shape {np.shape(g)}, "
                             f"the parameter {params[name].shape}")
    for name, value in params.items():
        for kind, moments in (("first", state.first_moment), ("second", state.second_moment)):
            if getattr(moments.get(name), "shape", None) != value.shape:
                raise ValueError(f"adam_step: parameter {name!r} has no {kind} moment "
                                 f"of its shape {value.shape}")
    for name in params:
        g = grads.get(name)
        # a NaN fails the comparisons as an Inf does; min and max allocate no array
        if g is not None and not (-_ADAM_GRAD_MAX <= np.min(g, initial=0.0)
                                  <= np.max(g, initial=0.0) <= _ADAM_GRAD_MAX):
            state.skipped += 1
            _log.warning("adam_step: gradient for %r is not finite or its square overflows, "
                         "update skipped", name)
            return
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for name, value in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(value)
        m = state.first_moment[name]
        v = state.second_moment[name]
        step = workspace_buffer(state.workspace, 0, value.shape)
        denom = workspace_buffer(state.workspace, 1, value.shape)
        # in place, in the order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
        # value -= lr * (m/c1) / (sqrt(v/c2) + eps)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        np.multiply(g, g, out=step)
        step *= 1.0 - ADAM_BETA2
        v += step
        np.divide(m, c1, out=step)
        step *= state.lr
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        value -= step
