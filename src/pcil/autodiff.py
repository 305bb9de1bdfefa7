"""Reverse-mode automatic differentiation over dense float64 arrays.

A :class:`Tape` records every primitive applied to values derived from its
leaves, in execution order. Because operands always precede their results,
walking the record backwards visits each node exactly once in reverse
topological order; :meth:`Tape.backward` accumulates adjoints that way and
deposits them on the leaves. Tapes are cheap, single-use and single-threaded:
build one per training step, run one backward pass, throw it away.

Everything is float64. Non-finite values are rejected at every op boundary so
NaN/Inf can never propagate silently through a graph.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

_log = logging.getLogger(__name__)

# Below this input norm, sphere_normalize pads the denominator with _NORM_EPS
# so the division (and its gradient) stays bounded.
_NORM_CUTOFF = 1e-6
_NORM_EPS = 1e-8


def norm_and_denominator(x: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Norms along ``axis`` (kept as size 1) and the divisor that maps ``x`` onto
    the unit sphere: the norm, padded by ``_NORM_EPS`` below ``_NORM_CUTOFF``."""
    norm = np.sqrt((x * x).sum(axis=axis, keepdims=True))
    return norm, np.where(norm < _NORM_CUTOFF, norm + _NORM_EPS, norm)


class NonFiniteError(ArithmeticError):
    """An operation produced (or was fed) NaN or Inf."""


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

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


class Tape:
    """Ordered record of primitive ops supporting one reverse pass."""

    def __init__(self):
        self._ops: list[Tensor] = []

    @property
    def num_ops(self) -> int:
        return len(self._ops)

    def leaf(self, data, requires_grad: bool = True) -> Tensor:
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("leaf value contains NaN or Inf")
        return Tensor(arr, self, requires_grad=requires_grad)

    def constant(self, data) -> Tensor:
        return self.leaf(data, requires_grad=False)

    def backward(self, output: Tensor) -> None:
        """Accumulate d(output)/d(leaf) into ``.grad`` of every grad-enabled leaf.

        ``output`` must be a scalar (size-1) node on this tape.
        """
        if output.tape is not self:
            raise ValueError("output node does not belong to this tape")
        if output.size != 1:
            raise ValueError(
                f"backward requires a scalar output, got shape {output.shape}"
            )
        output.grad = np.ones_like(output.data)
        for node in reversed(self._ops):
            g = node.grad
            if g is None:
                continue
            for parent, vjp in zip(node.parents, node.vjps):
                if not parent.requires_grad:
                    continue
                pg = vjp(g)
                if parent.grad is None:
                    parent.grad = pg
                else:
                    parent.grad = parent.grad + pg

    def gradient(self, output: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
        """Run backward and return gradients for ``leaves`` (zeros if unused)."""
        self.backward(output)
        return [
            leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
            for leaf in leaves
        ]


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
    data = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"'{op}' produced non-finite values")
    requires = any(p.requires_grad for p in parents)
    node = Tensor(data, tape, tuple(parents), tuple(vjps), requires, op)
    if requires:
        tape._ops.append(node)
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


def add(a, b) -> Tensor:
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    data = a.data + b.data
    return _make(
        "add", tape, data, (a, b),
        (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(g, b.data.shape)),
    )


def sub(a, b) -> Tensor:
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    data = a.data - b.data
    return _make(
        "sub", tape, data, (a, b),
        (lambda g: _unbroadcast(g, a.data.shape), lambda g: _unbroadcast(-g, b.data.shape)),
    )


def mul(a, b) -> Tensor:
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    data = a.data * b.data
    return _make(
        "mul", tape, data, (a, b),
        (
            lambda g: _unbroadcast(g * b.data, a.data.shape),
            lambda g: _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make("scale", a.tape, a.data * c, (a,), (lambda g: g * c,))


def div(a, b) -> Tensor:
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data
    return _make(
        "div", tape, data, (a, b),
        (
            lambda g: _unbroadcast(g / b.data, a.data.shape),
            lambda g: _unbroadcast(-g * data / b.data, b.data.shape),
        ),
    )


def div_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    if c == 0.0:
        raise ZeroDivisionError("division by zero scalar")
    return scale(a, 1.0 / c)


def matmul(a, b) -> Tensor:
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
    data = a.data @ b.data
    return _make(
        "matmul", tape, data, (a, b),
        (lambda g: g @ b.data.T, lambda g: a.data.T @ g),
    )


def dot(a, b) -> Tensor:
    tape = _tape_of(a, b)
    a, b = _lift(tape, a), _lift(tape, b)
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ValueError(
            f"dot expects equal-length 1-D operands, got {a.data.shape} and {b.data.shape}"
        )
    data = np.array(a.data @ b.data)
    return _make(
        "dot", tape, data, (a, b),
        (lambda g: g * b.data, lambda g: g * a.data),
    )


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    return _make("tanh", a.tape, data, (a,), (lambda g: g * (1.0 - data * data),))


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)
    mask = a.data > 0.0
    return _make("relu", a.tape, data, (a,), (lambda g: g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-np.abs(a.data)))
    data = np.where(a.data >= 0.0, data, 1.0 - data)
    return _make("sigmoid", a.tape, data, (a,), (lambda g: g * data * (1.0 - data),))


def softplus(a: Tensor) -> Tensor:
    data = np.logaddexp(0.0, a.data)
    x = a.data
    return _make(
        "softplus", a.tape, data, (a,),
        (lambda g: g * np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x))),),
    )


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    return _make("exp", a.tape, data, (a,), (lambda g: g * data,))


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log requires strictly positive inputs")
    return _make("log", a.tape, np.log(a.data), (a,), (lambda g: g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise ValueError("sqrt requires non-negative inputs")
    data = np.sqrt(a.data)
    return _make("sqrt", a.tape, data, (a,), (lambda g: g * 0.5 / np.maximum(data, 1e-300),))


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    data = np.asarray(a.data.sum(axis=axis))
    shape = a.data.shape

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis), shape).copy()

    return _make("sum", a.tape, data, (a,), (vjp,))


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis), 1.0 / n)


def logsumexp(a: Tensor, axis: int | None = None) -> Tensor:
    """Numerically stable log(sum(exp(a))) along ``axis``."""
    x = a.data
    m = np.max(x, axis=axis, keepdims=True)
    shifted = np.exp(x - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out = np.asarray((m + np.log(total)).squeeze() if axis is None else (m + np.log(total)).squeeze(axis=axis))
    softmax = shifted / total

    def vjp(g):
        if axis is None:
            return softmax * g
        return softmax * np.expand_dims(g, axis)

    return _make("logsumexp", a.tape, out, (a,), (vjp,))


def sqnorm(a: Tensor, axis: int | None = None) -> Tensor:
    """Sum of squares, in full or along ``axis``."""
    data = np.asarray((a.data * a.data).sum(axis=axis))
    shape = a.data.shape

    def vjp(g):
        if axis is None:
            return 2.0 * a.data * g
        return 2.0 * a.data * np.expand_dims(g, axis)

    return _make("sqnorm", a.tape, data, (a,), (vjp,))


def sphere_normalize(a: Tensor, axis: int = -1) -> Tensor:
    """Project rows (along ``axis``) onto the unit sphere.

    Inputs with norm below 1e-6 get an epsilon-padded denominator instead of
    blowing up; everything else divides by the exact norm.
    """
    x = a.data
    norm, denom = norm_and_denominator(x, axis)
    data = x / denom

    def vjp(g):
        inner = (g * x).sum(axis=axis, keepdims=True)
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
    return _make("transpose", a.tape, a.data.T.copy(), (a,), (lambda g: g.T,))


#: Every differentiable primitive, for enumeration in gradient-check suites.
PRIMITIVES = (
    "add", "sub", "mul", "div", "scale", "div_scalar", "matmul", "dot", "tanh", "relu",
    "sigmoid", "softplus", "exp", "log", "sqrt", "sum", "mean", "logsumexp",
    "sqnorm", "sphere_normalize", "concat", "reshape", "transpose",
)


# ---------------------------------------------------------------------------
# parameters, initialisation, MLP helpers
# ---------------------------------------------------------------------------


class ParameterSet:
    """Ordered mapping of names to float64 parameter arrays."""

    def __init__(self, arrays: Mapping[str, np.ndarray] | None = None):
        self._arrays: dict[str, np.ndarray] = {}
        if arrays:
            for name, value in arrays.items():
                self[name] = value

    def __setitem__(self, name: str, value) -> None:
        self._arrays[name] = np.asarray(value, dtype=np.float64)

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


def linear_init(rng: np.random.Generator, fan_in: int, fan_out: int):
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] weight and bias."""
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    b = rng.uniform(-bound, bound, size=(fan_out,))
    return w, b


def mlp_params(rng: np.random.Generator, sizes: Sequence[int]) -> ParameterSet:
    """Parameters for a fully connected net with layer widths ``sizes``."""
    if len(sizes) < 2:
        raise ValueError("an MLP needs at least an input and an output width")
    params = ParameterSet()
    for i in range(len(sizes) - 1):
        w, b = linear_init(rng, sizes[i], sizes[i + 1])
        params[f"layer{i}.w"] = w
        params[f"layer{i}.b"] = b
    return params


def mlp_layer_count(params) -> int:
    return sum(1 for name in params if name.endswith(".w"))


_ACTIVATIONS_NP = {
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    None: lambda x: x,
}

_ACTIVATIONS_TAPE = {"relu": relu, "tanh": tanh, None: lambda x: x}


def mlp_apply(nodes: Mapping[str, Tensor], x: Tensor, hidden="relu", output=None) -> Tensor:
    """Forward through watched MLP parameters on the tape."""
    n = mlp_layer_count(nodes)
    act = _ACTIVATIONS_TAPE[hidden]
    for i in range(n):
        x = add(matmul(x, nodes[f"layer{i}.w"]), nodes[f"layer{i}.b"])
        if i < n - 1:
            x = act(x)
    return _ACTIVATIONS_TAPE[output](x)


def mlp_apply_np(params: ParameterSet, x: np.ndarray, hidden="relu", output=None) -> np.ndarray:
    """Inference-only forward pass, no tape overhead."""
    n = mlp_layer_count(params)
    act = _ACTIVATIONS_NP[hidden]
    x = np.asarray(x, dtype=np.float64)
    for i in range(n):
        x = x @ params[f"layer{i}.w"] + params[f"layer{i}.b"]
        if i < n - 1:
            x = act(x)
    return _ACTIVATIONS_NP[output](x)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam moments and counters for one ParameterSet."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    skipped: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ParameterSet, lr: float = 1e-4, **kw) -> "AdamState":
        state = cls(lr=lr, **kw)
        for name, value in params.items():
            state.first_moment[name] = np.zeros_like(value)
            state.second_moment[name] = np.zeros_like(value)
        return state


def adam_step(params: ParameterSet, grads: Mapping[str, np.ndarray], state: AdamState):
    """One in-place Adam update with bias correction.

    A non-finite gradient anywhere skips the whole update (moments and
    parameters untouched) and bumps ``state.skipped``.
    """
    for name in params:
        g = grads.get(name)
        if g is not None and not np.all(np.isfinite(g)):
            state.skipped += 1
            _log.warning("adam_step: non-finite gradient for %r, update skipped", name)
            return params, state
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, value in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(value)
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        value -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params, state
