"""Dense float64 tensors with reverse-mode autodiff on a per-thread tape.

Storage is contiguous row-major numpy.  Every differentiable operation
appends one node to the thread's tape; ``backward`` replays the tape once
in reverse creation order, accumulating gradients additively, and then
clears it.  Graphs are rebuilt on every forward pass, never cached.

A node may have several outputs.  ``custom_op`` records one computed
outside this module, with a hand-written pullback that takes one gradient
per output (zeros for an output the loss does not reach): the pattern of
a custom autograd function.  Each learned forecaster's kernel
composition is such a node, so its training step records three: it,
``channel_affine`` and ``mse_loss``.

A gradient array may be shared (``add`` hands one array to both inputs,
``reshape`` and ``transpose`` hand out views, a leaf keeps its ``.grad``
between calls), so ``backward`` never writes one: it sums out of place.
Only ``Adam.zero_grad`` gives a gradient array up for reuse, and only a
pullback that asks ``grad_buffer`` for it writes into it.

The generic ops (affine, sigmoid, concat, reshape, slice, transpose, add,
sub, broadcasting multiply, 1-d convolution, edge padding) record no node
on any path that trains or infers: they are the test suite's reference
tape and the inspection API (``model.channel_adapt``,
``baselines.moving_average_decompose``).
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ArgumentError, ReceptiveFieldError, ShapeError

_local = threading.local()


def _tape() -> list["TapeNode"]:
    tape = getattr(_local, "tape", None)
    if tape is None:
        tape = []
        _local.tape = tape
    return tape


def _grad_enabled() -> bool:
    return not getattr(_local, "no_grad", False)


@contextmanager
def no_grad():
    """Run forward computations without recording tape nodes."""
    prev = getattr(_local, "no_grad", False)
    _local.no_grad = True
    try:
        yield
    finally:
        _local.no_grad = prev


def clear_tape() -> None:
    _tape().clear()


class Tensor:
    """Value carrier: contiguous float64 buffer plus optional gradient."""

    __slots__ = ("data", "requires_grad", "grad", "_spare")

    def __init__(self, data, requires_grad: bool = False):
        # asarray with order="C" keeps 0-d scalars 0-d, unlike ascontiguousarray
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        # a gradient array Adam.zero_grad dropped, for grad_buffer to reuse
        self._spare: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


@dataclass
class Params:
    """A model's learnable tensors by name, in the order of the shapes
    they were built from: the order of checkpoints and of Adam's state.
    Each model kind subclasses it with its ``shapes`` and seeded ``init``."""

    tensors: dict[str, Tensor]

    @classmethod
    def from_arrays(cls, shapes: dict[str, tuple[int, ...]], arrays: dict[str, np.ndarray]):
        """Parameters wrapping ``arrays[name]`` for each name of ``shapes``."""
        return cls({name: Tensor(arrays[name], requires_grad=True) for name in shapes})

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())


class TapeNode:
    """One recorded operation: inputs, outputs, and a pullback closure
    taking one gradient per output and returning one per input."""

    __slots__ = ("op", "inputs", "outputs", "backward")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], outputs: tuple[Tensor, ...],
                 backward: Callable[..., tuple]):
        self.op = op
        self.inputs = inputs
        self.outputs = outputs
        self.backward = backward


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(op: str, inputs: tuple[Tensor, ...], out_data, backward: Callable[..., tuple]):
    """Wrap ``out_data`` (one array, or a tuple of arrays for an op with
    several outputs) in tensors and, if any input requires grad, append
    the node.  Returns one tensor, or a tuple of them."""
    requires = _grad_enabled() and any(t.requires_grad for t in inputs)
    many = isinstance(out_data, tuple)
    outs = tuple(Tensor(d, requires_grad=requires) for d in (out_data if many else (out_data,)))
    if requires:
        _tape().append(TapeNode(op, inputs, outs, backward))
    return outs if many else outs[0]


def custom_op(op: str, inputs: Sequence[Tensor], outputs: tuple[np.ndarray, ...],
              pullback: Callable[..., tuple]) -> tuple[Tensor, ...]:
    """Record an operation whose forward and pullback are computed outside
    this module, as one tape node with several outputs.

    ``outputs`` are the forward's arrays.  ``pullback`` takes one gradient
    per output, at the output's shape (zeros for an output the loss does
    not reach), and returns one dense gradient per input, or None.
    """
    return _record(op, tuple(inputs), tuple(outputs), pullback)


def grad_buffer(t: Tensor) -> np.ndarray:
    """Uninitialised storage for the whole of ``t``'s next gradient, for a
    pullback that writes every element: the spare ``Adam.zero_grad`` left
    on ``t`` when it is a writable C-contiguous float64 array of ``t``'s
    shape, else a new array.  A spare is handed out once; ``backward`` and
    ``Tensor.zero_grad`` never make one."""
    spare, t._spare = t._spare, None
    if (spare is not None and spare.shape == t.shape and spare.dtype == np.float64
            and spare.flags.c_contiguous and spare.flags.writeable):
        return spare
    return np.empty(t.shape)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Populate gradients of everything reachable from a scalar loss.

    Gradients accumulate additively across fan-out and across repeated
    backward calls; the tape is cleared afterwards.  A node runs if any of
    its outputs received a gradient; its pullback gets one gradient per
    output, zeros for an output that received none, and returns one dense
    gradient per input, at the input's shape, or None.
    """
    if loss.size != 1:
        raise ArgumentError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = _tape()
    seed = np.ones_like(loss.data)
    loss.grad = seed if loss.grad is None else loss.grad + seed
    for node in reversed(tape):
        gs = [t.grad for t in node.outputs]
        if all(g is None for g in gs):
            continue
        grads = node.backward(*(np.zeros(t.shape) if g is None else g
                                for t, g in zip(node.outputs, gs)))
        for t, gin in zip(node.inputs, grads):
            if gin is not None and t.requires_grad:
                t.grad = gin if t.grad is None else t.grad + gin
    tape.clear()


# ---------------------------------------------------------------------------
# elementwise / broadcasting arithmetic

def add(a, b) -> Tensor:
    return _broadcast_op("add", a, b, np.add, lambda g: g, lambda g: g)


def sub(a, b) -> Tensor:
    return _broadcast_op("sub", a, b, np.subtract, lambda g: g, lambda g: -g)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    return _broadcast_op("mul", a, b, np.multiply, lambda g: g * bd, lambda g: g * ad)


def _broadcast_op(op: str, a, b, fn: Callable, grad_a: Callable, grad_b: Callable) -> Tensor:
    """Elementwise ``fn(a, b)`` under numpy broadcasting.  ``grad_a`` and
    ``grad_b`` map the upstream gradient to each operand's gradient at the
    output's shape; backward then sums it over the broadcast axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def bw(g):
        ga = _unbroadcast(grad_a(g), a.shape) if a.requires_grad else None
        gb = _unbroadcast(grad_b(g), b.shape) if b.requires_grad else None
        return ga, gb

    return _record(op, (a, b), fn(a.data, b.data), bw)


def broadcast_mul(a: Tensor, gate: Tensor) -> Tensor:
    """Multiply by a gate whose last axis has extent 1.

    Used for channel-adaptive scaling: the gate broadcasts over the feature
    axis, and its gradient sums over that axis.
    """
    a, gate = _as_tensor(a), _as_tensor(gate)
    if gate.ndim == 0 or gate.shape[-1] != 1:
        raise ShapeError(f"broadcast_mul: gate's last axis must have extent 1, got shape {gate.shape}")
    return mul(a, gate)


def sum_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def bw(g):
        return (np.full(x.shape, float(g)),) if x.requires_grad else (None,)

    return _record("sum", (x,), np.asarray(x.data.sum()), bw)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function; saturates without overflow."""
    x = _as_tensor(x)
    xd = x.data
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bw(g):
        return (g * out * (1.0 - out),) if x.requires_grad else (None,)

    return _record("sigmoid", (x,), out, bw)


# ---------------------------------------------------------------------------
# shape manipulation

def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    old = x.shape

    def bw(g):
        return (g.reshape(old),) if x.requires_grad else (None,)

    return _record("reshape", (x,), x.data.reshape(shape), bw)


def transpose(x: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    x = _as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    axes = tuple(int(a) for a in axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        return (np.ascontiguousarray(g.transpose(inv)),) if x.requires_grad else (None,)

    return _record("transpose", (x,), np.ascontiguousarray(x.data.transpose(axes)), bw)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice along one axis; backward places the upstream
    gradient in a zero array of the input's shape."""
    x = _as_tensor(x)
    axis = axis % x.ndim
    if not (0 <= start < stop <= x.shape[axis]):
        raise ArgumentError(f"slice_axis: range [{start}, {stop}) invalid for axis {axis} of extent {x.shape[axis]}")
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)

    def bw(g):
        if not x.requires_grad:
            return (None,)
        gx = np.zeros(x.shape)
        gx[sl] = g
        return (gx,)

    return _record("slice", (x,), np.ascontiguousarray(x.data[sl]), bw)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along one axis; backward slices the upstream gradient."""
    if len(tensors) == 0:
        raise ArgumentError("concat: need at least one tensor")
    tensors = tuple(_as_tensor(t) for t in tensors)
    first = tensors[0]
    axis = axis % first.ndim
    for t in tensors[1:]:
        if t.ndim != first.ndim:
            raise ShapeError(f"concat: rank mismatch {first.shape} vs {t.shape}")
        for ax in range(first.ndim):
            if ax != axis and t.shape[ax] != first.shape[ax]:
                raise ShapeError(f"concat: axis {ax} disagrees, {first.shape} vs {t.shape}")
    extents = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + extents)

    def bw(g):
        grads = []
        sl = [slice(None)] * first.ndim
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl[axis] = slice(int(lo), int(hi))
                grads.append(np.ascontiguousarray(g[tuple(sl)]))
            else:
                grads.append(None)
        return tuple(grads)

    return _record("concat", tensors, np.concatenate([t.data for t in tensors], axis=axis), bw)


def pad_edge(x: Tensor, left: int, right: int) -> Tensor:
    """Replicate the first/last value along the trailing axis.

    Backward sums the gradient of each padded position into the edge it
    replicated.
    """
    x = _as_tensor(x)
    if left < 0 or right < 0:
        raise ArgumentError(f"pad_edge: negative padding ({left}, {right})")
    if x.shape[-1] < 1:
        raise ShapeError("pad_edge: cannot pad an empty axis")
    n = x.shape[-1]
    parts = []
    if left:
        parts.append(np.repeat(x.data[..., :1], left, axis=-1))
    parts.append(x.data)
    if right:
        parts.append(np.repeat(x.data[..., -1:], right, axis=-1))
    out = np.concatenate(parts, axis=-1) if len(parts) > 1 else x.data

    def bw(g):
        if not x.requires_grad:
            return (None,)
        gx = g[..., left:left + n].copy()
        if left:
            gx[..., :1] += g[..., :left].sum(axis=-1, keepdims=True)
        if right:
            gx[..., -1:] += g[..., left + n:].sum(axis=-1, keepdims=True)
        return (gx,)

    return _record("pad_edge", (x,), out, bw)


# ---------------------------------------------------------------------------
# dense layers

def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map over the last axis: ``out[..., g] = x[..., :] @ W + b``."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if weight.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-d, got {weight.shape}")
    f, g_dim = weight.shape
    if x.shape[-1] != f:
        raise ShapeError(f"linear: input feature axis {x.shape[-1]} != weight rows {f}")
    if bias.shape != (g_dim,):
        raise ShapeError(f"linear: bias shape {bias.shape} != ({g_dim},)")
    lead = x.shape[:-1]
    xf = x.data.reshape(-1, f)
    out = (xf @ weight.data + bias.data).reshape(lead + (g_dim,))

    def bw(g):
        g2 = g.reshape(-1, g_dim)
        gx = (g2 @ weight.data.T).reshape(x.shape) if x.requires_grad else None
        gw = xf.T @ g2 if weight.requires_grad else None
        gb = g2.sum(axis=0) if bias.requires_grad else None
        return gx, gw, gb

    return _record("linear", (x, weight, bias), out, bw)


# Rows per BLAS product in channel_affine's forward; fixed, so that every
# product has one shape whatever the batch size.
_ROWS = 16


def _affine_forward(xt: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``channel_affine``'s forward on arrays: windows ``xt [C, B, L]``, of
    any strides, through ``a [C, L, H]`` and ``b [C, H]`` to a new
    C-contiguous ``[B, H, C]``.  The windows are copied once, into the
    zero-padded ``[C, blocks * _ROWS, L]`` layout of the fixed-shape
    products."""
    channels, n, lookback = xt.shape
    blocks = -(-n // _ROWS)
    padded = np.zeros((channels, blocks * _ROWS, lookback))
    padded[:, :n] = xt
    rows = np.matmul(padded.reshape(channels, blocks, _ROWS, lookback), a[:, None])
    rows = rows.reshape(channels, blocks * _ROWS, a.shape[2])[:, :n]
    out = np.empty((n, a.shape[2], channels))
    np.add(rows.transpose(1, 2, 0), b.T, out=out)
    return out


def check_affine(x: tuple[int, ...], a: tuple[int, ...], b: tuple[int, ...] | None = None) -> None:
    """Raise ShapeError unless windows of shape ``x`` fit a kernel of shape
    ``a`` and a bias of shape ``b`` (by default the one that fits ``a``) in
    ``channel_affine``.  A forward that composes its kernel checks the
    kernel's shape first, so a failed check leaves no node on the tape."""
    b = (a[0], a[2]) if b is None and len(a) == 3 else b
    if len(x) != 3 or len(a) != 3 or a[:2] != (x[2], x[1]) or b != (a[0], a[2]):
        raise ShapeError(f"channel_affine: windows {x} do not match kernel {a} "
                         f"and bias {b}; expected [B, L, C], [C, L, H], [C, H]")


def channel_affine(x: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """Per-channel affine map of a batch of windows:
    ``out[n, h, c] = sum_l x[n, l, c] * a[c, l, h] + b[c, h]``, mapping
    ``[B, L, C]`` through ``a [C, L, H]`` and ``b [C, H]`` to ``[B, H, C]``.

    The forward zero-pads the batch to a multiple of ``_ROWS`` windows and
    multiplies it through BLAS as ``[C, k, _ROWS, L] @ [C, 1, L, H]``, so
    every product has the shape ``[_ROWS, L] @ [L, H]`` whatever the batch
    size.  OpenBLAS picks its kernels and summation order by a product's
    shape, not by the values in its other rows: with the shape fixed, a
    window's forecast is bit-identical alone or at any position in any
    batch.  That was measured with OpenBLAS at 1 and 2 threads; another
    BLAS (MKL outside its reproducible mode may vary with alignment) is
    checked by ``test_channel_affine_rows_do_not_depend_on_the_batch``.
    """
    x, a, b = _as_tensor(x), _as_tensor(a), _as_tensor(b)
    check_affine(x.shape, a.shape, b.shape)
    out = _affine_forward(x.data.transpose(2, 0, 1), a.data, b.data)

    def bw(g):
        gt = g.transpose(2, 0, 1)  # [C, B, H]
        gx = ga = gb = None
        if x.requires_grad:
            gx = np.ascontiguousarray(np.matmul(gt, a.data.transpose(0, 2, 1)).transpose(1, 2, 0))
        if a.requires_grad:
            ga = np.matmul(x.data.transpose(2, 1, 0), gt)
        if b.requires_grad:
            gb = np.ascontiguousarray(g.sum(axis=0).T)
        return gx, ga, gb

    return _record("channel_affine", (x, a, b), out, bw)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, dilation: int = 1) -> Tensor:
    """Strided, dilated cross-correlation with no implicit padding.

    Maps ``[N, Cin, L]`` to ``[N, Cout, Lout]`` with
    ``Lout = (L - (K-1)*dilation - 1)//stride + 1``.
    """
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if stride < 1 or dilation < 1:
        raise ArgumentError(f"conv1d: stride/dilation must be >= 1, got {stride}/{dilation}")
    if weight.ndim != 3:
        raise ShapeError(f"conv1d: weight must be [Cout, Cin, K], got {weight.shape}")
    c_out, c_in, k = weight.shape
    if bias.shape != (c_out,):
        raise ShapeError(f"conv1d: bias shape {bias.shape} != ({c_out},)")
    if x.ndim != 3:
        raise ShapeError(f"conv1d: input must be [N, Cin, L], got {x.shape}")
    xd = x.data
    n, cin_x, l_in = xd.shape
    if cin_x != c_in:
        raise ShapeError(f"conv1d: input channel axis {cin_x} != weight channel axis {c_in}")
    span = (k - 1) * dilation + 1
    if l_in < span:
        raise ReceptiveFieldError(
            f"conv1d: input length {l_in} shorter than receptive field {span} "
            f"(kernel {k}, dilation {dilation})")
    l_out = (l_in - span) // stride + 1
    w2 = weight.data.reshape(c_out, c_in * k)
    gather = (np.arange(l_out) * stride)[None, :] + (np.arange(k) * dilation)[:, None]
    cols = xd[:, :, gather].reshape(n, c_in * k, l_out)
    out = np.matmul(w2, cols) + bias.data[:, None]

    def bw(g):
        gw = gb = gx = None
        if weight.requires_grad:
            gw = np.tensordot(g, cols, axes=([0, 2], [0, 2])).reshape(c_out, c_in, k)
        if bias.requires_grad:
            gb = g.sum(axis=(0, 2))
        if x.requires_grad:
            dcols = np.matmul(w2.T, g).reshape(n, c_in, k, l_out)
            gx = np.zeros((n, c_in, l_in))
            for j in range(k):
                off = j * dilation
                gx[:, :, off:off + stride * (l_out - 1) + 1:stride] += dcols[:, :, j, :]
        return gx, gw, gb

    return _record("conv1d", (x, weight, bias), out, bw)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over all elements of the squared difference."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: shape mismatch {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    numel = diff.size

    def bw(g):
        scale = 2.0 * float(g) / numel
        gp = scale * diff if pred.requires_grad else None
        gt = -scale * diff if target.requires_grad else None
        return gp, gt

    return _record("mse", (pred, target), np.asarray(np.mean(diff * diff)), bw)
