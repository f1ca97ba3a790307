"""Reverse-mode autodiff over numpy arrays.

Dtype rule: a :class:`Tensor` built from float32 data stays float32 and any
other data becomes float64; an op computes in its operands' dtype (numpy's
promotion when they differ), and a Python number combined with a tensor takes
that tensor's dtype, so ``0.5 * x`` stays float32 for a float32 ``x`` under
numpy 1.x and 2.x alike. The buffers an op allocates take its input's dtype.
There is no global precision mode: a model computes, trains and takes its
gradients in the dtype of its parameters and inputs (``FontNet`` and ``NstNet``
in float32, the gradchecks in float64).

A forward pass records onto an explicit :class:`Graph` (used as a context
manager); :meth:`Graph.backward` replays the tape in reverse and writes
``.grad`` only into leaves that require it, a leaf being a tensor no recorded
op produced (parameters and inputs). Op outputs never get a ``.grad``: each
intermediate gradient is dropped as soon as its op's VJP has consumed it.
Without an active graph, ops run forward-only.

Every convolution-family product is a GEMM against im2col columns: the
zero-padded windows of a [B,C,H,W] input unrolled into [C*kh*kw, B*oh*ow],
the batch folded into the columns. The gathers (conv2d forward, conv2d's
input gradient at stride 1, deconv2d's input gradient and both kernel
gradients) never hold those columns whole or a padded copy of the input:
``_column_blocks`` streams them through one scratch buffer of at most
``IM2COL_BLOCK`` elements, padding per block in one zero-bordered slab, and
each block meets its own GEMM. A stride-1 conv2d's input gradient is itself
such a conv, of the output gradient with the flipped kernel. The scatters
(conv2d's input gradient at stride 2 or more, and deconv2d forward) are one
GEMM, then ``_col2im``, the unroll's exact adjoint, sums the columns back
into [B,C,H,W].

Tensors are treated as immutable after creation except for their ``grad``
buffer. A graph must stay confined to one thread; independent graphs over
disjoint parameters may run concurrently.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


class GraphError(RuntimeError):
    """Raised on tape misuse (non-scalar backward, consumed graph, ...)."""


@dataclass
class ChannelStats:
    """Per-channel (mean, std) pair.

    Holds batch-norm running statistics (plain arrays of shape [C]) as well
    as feature-map statistics and learned affine parameters on the style
    transfer paths, where both fields may be Tensors of shape [B, C].
    """

    mean: "np.ndarray | Tensor"
    std: "np.ndarray | Tensor"


def float_array(data) -> np.ndarray:
    """``data`` as a float array: float32 data stays float32, anything else becomes float64."""
    if getattr(data, "dtype", None) == np.float32:
        return np.asarray(data)
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """n-dimensional float32 or float64 array with optional gradient-tape participation.

    The data is ``float_array(data)``: float32 stays float32, the rest is float64.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = float_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

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

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return pow_scalar(self, exponent)

    def __getitem__(self, index):
        return take(self, index)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def abs(self):
        return tabs(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b) -> tuple:
    """Both operands as Tensors; a Python number takes the other operand's dtype."""
    if isinstance(b, Tensor) and isinstance(a, (int, float)):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    a = as_tensor(a)
    if isinstance(b, (int, float)):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    return a, as_tensor(b)


class _Node:
    __slots__ = ("out", "parents", "vjp")

    def __init__(self, out, parents, vjp):
        self.out = out
        self.parents = parents
        self.vjp = vjp


_ACTIVE = threading.local()


def _graph_stack() -> list:
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = _ACTIVE.stack = []
    return stack


class Graph:
    """Ordered tape of executed differentiable ops for one forward pass.

    Execution order is a topological order by construction, so backward
    visits each op exactly once in reverse. The tape is freed after
    backward; a graph is single-use.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._consumed = False

    def __enter__(self) -> "Graph":
        if self._consumed:
            raise GraphError("graph already consumed by backward")
        _graph_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _graph_stack().pop()
        if popped is not self:  # pragma: no cover - misuse guard
            raise GraphError("graph context exited out of order")
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``.grad`` of every requires_grad leaf.

        Leaves are the tensors no recorded op produced; op outputs get no
        ``.grad``. Each node is dropped from the tape as soon as it has been
        replayed, and with it its VJP closure and the gradient it consumed.
        """
        if self._consumed:
            raise GraphError("graph already consumed by backward")
        if not isinstance(loss, Tensor) or loss.size != 1:
            raise GraphError(
                f"backward requires a scalar loss, got shape {getattr(loss, 'shape', None)}"
            )
        self._consumed = True
        grads: dict[int, tuple[Tensor, np.ndarray]] = {
            id(loss): (loss, np.ones_like(loss.data))
        }
        nodes = self._nodes
        while nodes:
            node = nodes.pop()
            entry = grads.pop(id(node.out), None)
            if entry is None:
                continue  # not on the path from loss
            needs = tuple(p.requires_grad for p in node.parents)
            parent_grads = node.vjp(entry[1], needs)
            del entry
            for parent, pg in zip(node.parents, parent_grads):
                if pg is None:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = (parent, grads[key][1] + pg)
                else:
                    grads[key] = (parent, pg)
        for tensor, g in grads.values():  # leaves
            if tensor.requires_grad:
                tensor.grad = g if tensor.grad is None else tensor.grad + g


def _record(out: Tensor, parents: tuple, vjp) -> Tensor:
    stack = _graph_stack()
    if stack and any(p.requires_grad for p in parents):
        out.requires_grad = True
        stack[-1]._nodes.append(_Node(out, parents, vjp))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = Tensor(a.data + b.data)

    def vjp(g, needs):
        return (
            _unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(g, b.shape) if needs[1] else None,
        )

    return _record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = Tensor(a.data - b.data)

    def vjp(g, needs):
        return (
            _unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(-g, b.shape) if needs[1] else None,
        )

    return _record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = Tensor(a.data * b.data)

    def vjp(g, needs):
        return (
            _unbroadcast(g * b.data, a.shape) if needs[0] else None,
            _unbroadcast(g * a.data, b.shape) if needs[1] else None,
        )

    return _record(out, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = Tensor(a.data / b.data)

    def vjp(g, needs):
        return (
            _unbroadcast(g / b.data, a.shape) if needs[0] else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if needs[1] else None,
        )

    return _record(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(-a.data)

    def vjp(g, needs):
        return (-g,)

    return _record(out, (a,), vjp)


def pow_scalar(a, exponent) -> Tensor:
    a = as_tensor(a)
    p = float(exponent)
    out = Tensor(a.data ** p)

    def vjp(g, needs):
        return (g * p * a.data ** (p - 1.0),)

    return _record(out, (a,), vjp)


def tabs(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.abs(a.data))

    def vjp(g, needs):
        return (g * np.sign(a.data),)

    return _record(out, (a,), vjp)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = Tensor(np.sqrt(a.data))

    def vjp(g, needs):
        return (g * (0.5 / out.data),)

    return _record(out, (a,), vjp)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def vjp(g, needs):
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else axis
            g = np.expand_dims(g, tuple(ax % a.ndim for ax in axes))
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record(out, (a,), vjp)


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out = Tensor(a.data.mean(axis=axis, keepdims=keepdims))
    count = a.size / max(out.size, 1)

    def vjp(g, needs):
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else axis
            g = np.expand_dims(g, tuple(ax % a.ndim for ax in axes))
        return (np.broadcast_to(g / count, a.shape).copy(),)

    return _record(out, (a,), vjp)


def reshape(a, *shape) -> Tensor:
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = Tensor(a.data.reshape(shape))

    def vjp(g, needs):
        return (g.reshape(a.shape),)

    return _record(out, (a,), vjp)


def take(a, index) -> Tensor:
    """Slicing/indexing with gradient scattered back into place.

    An index holding an array or list may repeat an element, so its
    gradient is accumulated unbuffered; a basic index cannot repeat one.
    """
    a = as_tensor(a)
    out = Tensor(np.asarray(a.data[index]))
    advanced = any(isinstance(i, (list, np.ndarray))
                   for i in (index if isinstance(index, tuple) else (index,)))

    def vjp(g, needs):
        full = np.zeros_like(a.data)
        if advanced:
            np.add.at(full, index, g)
        else:
            full[index] += g
        return (full,)

    return _record(out, (a,), vjp)


def concat_channels(a, b) -> Tensor:
    """Concatenate two [B,C,H,W] tensors along the channel axis."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 4 or b.ndim != 4:
        raise ShapeError(f"concat_channels expects rank-4 tensors, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(
            f"concat_channels: batch/spatial mismatch between {a.shape} and {b.shape}"
        )
    c1 = a.shape[1]
    out = Tensor(np.concatenate([a.data, b.data], axis=1))

    def vjp(g, needs):
        return (
            g[:, :c1] if needs[0] else None,
            g[:, c1:] if needs[1] else None,
        )

    return _record(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    """max(a, slope * a) for a slope in [0, 1]; with slope 0, +inf maps to NaN."""
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu: slope must lie in [0, 1], got {slope}")
    a = as_tensor(a)
    y = slope * a.data
    out = Tensor(np.maximum(a.data, y, out=y))

    def vjp(g, needs):
        return (np.where(a.data >= 0, g, slope * g),)  # a float mask would widen float32 g

    return _record(out, (a,), vjp)


def relu(a) -> Tensor:
    return leaky_relu(a, 0.0)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    d = a.data
    y = np.empty_like(d)
    pos = d >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    y[~pos] = e / (1.0 + e)
    out = Tensor(y)

    def vjp(g, needs):
        return (g * y * (1.0 - y),)

    return _record(out, (a,), vjp)


# ---------------------------------------------------------------------------
# convolution machinery
# ---------------------------------------------------------------------------


# elements, not bytes, of the im2col scratch of _column_blocks: 1 MiB in
# float64, 512 KiB in float32
IM2COL_BLOCK = 1 << 17


def _windows(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Read-only view [C,kh,kw,B,oh,ow] of the windows of [B,C,H,W]."""
    b, c, h, w = x.shape
    sb, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(c, kh, kw, b, (h - kh) // stride + 1, (w - kw) // stride + 1),
        strides=(sc, sh, sw, sb, stride * sh, stride * sw), writeable=False)


def _pair(padding) -> tuple:
    """``padding`` per axis as ``(ph, pw)``; an int pads both axes alike."""
    return (padding, padding) if np.ndim(padding) == 0 else tuple(padding)


def _column_blocks(x: np.ndarray, kh: int, kw: int, stride: int, padding, dtype):
    """Yield ``(first, block)``: im2col columns ``first:first + n`` of [B,C,H,W],
    padded by ``padding`` = ``(ph, pw)`` (or one int) on each side, as a
    [C*kh*kw, n] block in ``dtype``. A negative padding crops the input by
    that many rows or columns on each side instead.

    Each block is unrolled into one scratch buffer of at most IM2COL_BLOCK
    elements, which the next block overwrites: whole batch items while one
    item fits (so each GEMM is as wide as it can be), else whole output rows
    of one item, at least one row. With padding, each block's input rows are
    first copied into one zero-bordered slab: its side columns are never
    written, and its rows above or below the input are zeroed per block.
    """
    ph, pw = _pair(padding)
    if ph < 0 or pw < 0:
        ch, cw = max(-ph, 0), max(-pw, 0)
        x = x[:, :, ch:x.shape[2] - ch, cw:x.shape[3] - cw]
        ph, pw = max(ph, 0), max(pw, 0)
    b, c, h, w = x.shape
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    k = c * kh * kw
    if not b:
        return
    items = IM2COL_BLOCK // max(k * oh * ow, 1)
    if items:
        blocks = [(i, min(i + items, b), 0, oh) for i in range(0, b, items)]
    else:
        rows = max(IM2COL_BLOCK // (k * ow), 1)
        blocks = [(i, i + 1, r, min(r + rows, oh)) for i in range(b) for r in range(0, oh, rows)]
    i0, i1, r0, r1 = blocks[0]  # the first block is the largest
    scratch = np.empty(k * (i1 - i0) * (r1 - r0) * ow, dtype=dtype)
    padded = ph or pw
    if padded:
        slab = np.zeros((i1 - i0, c, (r1 - r0 - 1) * stride + kh, w + 2 * pw), dtype=x.dtype)
    for i0, i1, r0, r1 in blocks:
        top = r0 * stride - ph  # input row of the block's first padded row
        span = (r1 - r0 - 1) * stride + kh
        if padded:
            src = slab[:i1 - i0, :, :span]
            lo = min(max(-top, 0), span)
            hi = min(max(h - top, lo), span)
            src[:, :, :lo] = 0.0
            src[:, :, hi:] = 0.0
            src[:, :, lo:hi, pw:pw + w] = x[i0:i1, :, top + lo:top + hi]
        else:
            src = x[i0:i1, :, top:top + span]
        windows = _windows(src, kh, kw, stride)
        n = (i1 - i0) * (r1 - r0) * ow
        cols = scratch[:k * n].reshape(windows.shape)
        cols[...] = windows
        yield (i0 * oh + r0) * ow, cols.reshape(k, n)


def _im2col_matmul(left: np.ndarray, x: np.ndarray, kh: int, kw: int, stride: int,
                   padding) -> tuple:
    """``(left @ im2col(x), oh, ow)``, one GEMM per block of _column_blocks."""
    b, _, h, w = x.shape
    ph, pw = _pair(padding)
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (w + 2 * pw - kw) // stride + 1
    dtype = np.result_type(left, x)
    out = np.empty((left.shape[0], b * oh * ow), dtype=dtype)
    for start, block in _column_blocks(x, kh, kw, stride, padding, dtype):
        np.matmul(left, block, out=out[:, start:start + block.shape[1]])
    return out, oh, ow


def _kernel_grad(rows: np.ndarray, x: np.ndarray, kh: int, kw: int, stride: int,
                 padding: int) -> np.ndarray:
    """``rows @ im2col(x).T``, summed over the blocks of _column_blocks."""
    dtype = np.result_type(rows, x)
    grad = np.zeros((rows.shape[0], x.shape[1] * kh * kw), dtype=dtype)
    for start, block in _column_blocks(x, kh, kw, stride, padding, dtype):
        grad += rows[:, start:start + block.shape[1]] @ block.T
    return grad


def _col2im(cols: np.ndarray, shape: tuple, kh: int, kw: int, stride: int,
            padding: int) -> np.ndarray:
    """Adjoint of the im2col unroll: sum columns back into a [B,C,H,W] array of ``shape``."""
    b, c, h, w = shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    blocks = cols.reshape(c, kh, kw, b, oh, ow)
    out = np.zeros((c, b, hp, wp), dtype=cols.dtype)
    for u in range(kh):
        for v in range(kw):
            out[:, :, u:u + (oh - 1) * stride + 1:stride,
                v:v + (ow - 1) * stride + 1:stride] += blocks[:, u, v]
    return out[:, :, padding:padding + h, padding:padding + w].transpose(1, 0, 2, 3)


def _rows(x: np.ndarray) -> np.ndarray:
    """[B,C,H,W] -> [C, B*H*W]: channels as GEMM rows, the batch folded into the columns."""
    return x.transpose(1, 0, 2, 3).reshape(x.shape[1], -1)


def _unrows(m: np.ndarray, b: int, h: int, w: int) -> np.ndarray:
    """[C, B*H*W] -> [B,C,H,W], the inverse of _rows."""
    return m.reshape(m.shape[0], b, h, w).transpose(1, 0, 2, 3)


def conv2d(x, w, b, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross-correlation of [B,Cin,H,W] with kernel [Cout,Cin,k,k] plus bias."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects rank-4 input/kernel, got {x.shape} and {w.shape}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"conv2d: padding must be >= 0, got {padding}")
    if w.shape[1] != x.shape[1]:
        raise ShapeError(
            f"conv2d: kernel expects {w.shape[1]} input channels, input has "
            f"{x.shape[1]} (input {x.shape}, kernel {w.shape})"
        )
    if b.shape != (w.shape[0],):
        raise ShapeError(f"conv2d: bias shape {b.shape} does not match {w.shape[0]} filters")
    kh, kw = w.shape[2], w.shape[3]
    if x.shape[2] + 2 * padding < kh or x.shape[3] + 2 * padding < kw:
        raise ShapeError(
            f"conv2d: padded input {x.shape} smaller than kernel {w.shape[2:]}"
        )
    wmat = w.data.reshape(w.shape[0], -1).astype(
        np.result_type(x.data, w.data, b.data), copy=False)
    y, oh, ow = _im2col_matmul(wmat, x.data, kh, kw, stride, padding)
    y += b.data[:, None]
    out = Tensor(_unrows(y, x.shape[0], oh, ow))

    def vjp(g, needs):
        gx = gw = gb = None
        grows = _rows(g)
        if needs[0] and stride == 1:
            # a stride-1 conv's input gradient is the conv of g with the
            # flipped kernel, channels swapped, padded by k - 1 - padding
            flipped = wmat.reshape(w.shape)[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gx = _unrows(_im2col_matmul(flipped.reshape(x.shape[1], -1), g, kh, kw, 1,
                                        (kh - 1 - padding, kw - 1 - padding))[0],
                         x.shape[0], x.shape[2], x.shape[3])
        elif needs[0]:
            gx = _col2im(wmat.T @ grows, x.shape, kh, kw, stride, padding)
        if needs[1]:
            gw = _kernel_grad(grows, x.data, kh, kw, stride, padding).reshape(w.shape)
        if needs[2]:
            gb = grows.sum(axis=1)
        return gx, gw, gb

    return _record(out, (x, w, b), vjp)


def deconv2d(x, w, b, stride: int = 1, padding: int = 0, output_padding: int = 0) -> Tensor:
    """Transposed convolution: the adjoint of conv2d with kernel [Cin,Cout,k,k]."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"deconv2d expects rank-4 input/kernel, got {x.shape} and {w.shape}")
    if stride < 1:
        raise ValueError(f"deconv2d: stride must be >= 1, got {stride}")
    if not 0 <= output_padding < stride:
        raise ValueError(
            f"deconv2d: output_padding must lie in [0, stride), got "
            f"{output_padding} with stride {stride}"
        )
    if w.shape[0] != x.shape[1]:
        raise ShapeError(
            f"deconv2d: kernel expects {w.shape[0]} input channels, input has "
            f"{x.shape[1]} (input {x.shape}, kernel {w.shape})"
        )
    if b.shape != (w.shape[1],):
        raise ShapeError(f"deconv2d: bias shape {b.shape} does not match {w.shape[1]} filters")
    kh, kw = w.shape[2], w.shape[3]
    out_h = (x.shape[2] - 1) * stride - 2 * padding + kh + output_padding
    out_w = (x.shape[3] - 1) * stride - 2 * padding + kw + output_padding
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"deconv2d: output extent {out_h}x{out_w} < 1 for input {x.shape}"
        )
    # deconv2d is the input gradient of the conv2d that maps its output to x
    wmat = w.data.reshape(w.shape[0], -1)
    xrows = _rows(x.data)
    y = _col2im(wmat.T @ xrows, (x.shape[0], w.shape[1], out_h, out_w), kh, kw, stride, padding)
    out = Tensor(y + b.data[:, None, None])

    def vjp(g, needs):
        gx = gw = gb = None
        if needs[0]:
            gx = _unrows(_im2col_matmul(wmat, g, kh, kw, stride, padding)[0],
                         x.shape[0], x.shape[2], x.shape[3])
        if needs[1]:
            gw = _kernel_grad(xrows, g, kh, kw, stride, padding).reshape(w.shape)
        if needs[2]:
            gb = g.sum(axis=(0, 2, 3))
        return gx, gw, gb

    return _record(out, (x, w, b), vjp)


def upsample_nearest(x, factor: int) -> Tensor:
    """Replicate each pixel of a [B,C,H,W] tensor into a factor x factor block."""
    x = as_tensor(x)
    if not isinstance(factor, int) or factor < 1:
        raise ValueError(f"upsample_nearest: factor must be a positive int, got {factor}")
    if x.ndim != 4:
        raise ShapeError(f"upsample_nearest expects rank-4 input, got {x.shape}")
    b, c, h, w = x.shape
    blocks = np.empty((b, c, h, factor, w, factor), dtype=x.data.dtype)
    blocks[...] = x.data[:, :, :, None, :, None]
    out = Tensor(blocks.reshape(b, c, h * factor, w * factor))

    def vjp(g, needs):
        # one copy of a strided phase, then in-place adds of the others
        gx = g[:, :, ::factor, ::factor].copy()
        for u in range(factor):
            for v in range(factor):
                if u or v:
                    gx += g[:, :, u::factor, v::factor]
        return (gx,)

    return _record(out, (x,), vjp)


def global_avg_pool(x) -> Tensor:
    """Spatial mean per channel: [B,C,H,W] -> [B,C,1,1]."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects rank-4 input, got {x.shape}")
    out = Tensor(x.data.mean(axis=(2, 3), keepdims=True))
    scale = 1.0 / (x.shape[2] * x.shape[3])

    def vjp(g, needs):
        return (np.broadcast_to(g * scale, x.shape).copy(),)

    return _record(out, (x,), vjp)


def fully_connected(x, w, b) -> Tensor:
    """Affine map of [B,Cin] by weight [Cout,Cin] and bias [Cout]."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"fully_connected: input {x.shape} incompatible with weight {w.shape}"
        )
    if b.shape != (w.shape[0],):
        raise ShapeError(f"fully_connected: bias shape {b.shape} does not match {w.shape[0]}")
    out = Tensor(x.data @ w.data.T + b.data)

    def vjp(g, needs):
        return (
            g @ w.data if needs[0] else None,
            g.T @ x.data if needs[1] else None,
            g.sum(axis=0) if needs[2] else None,
        )

    return _record(out, (x, w, b), vjp)


def bilinear_contract(style, w, content) -> Tensor:
    """Two-factor contraction out[b,k] = sum_rc style[b,r] w[r,k,c] content[b,c].

    Linear in each factor when the other is held fixed.
    """
    style, w, content = as_tensor(style), as_tensor(w), as_tensor(content)
    if style.ndim != 2 or content.ndim != 2 or w.ndim != 3:
        raise ShapeError(
            f"bilinear_contract expects [B,R], [R,K,C], [B,C]; got "
            f"{style.shape}, {w.shape}, {content.shape}"
        )
    if style.shape[0] != content.shape[0]:
        raise ShapeError(
            f"bilinear_contract: batch mismatch {style.shape[0]} vs {content.shape[0]}"
        )
    if style.shape[1] != w.shape[0] or content.shape[1] != w.shape[2]:
        raise ShapeError(
            f"bilinear_contract: factor dims {style.shape[1]}/{content.shape[1]} "
            f"do not match tensor {w.shape}"
        )
    mid = np.tensordot(style.data, w.data, axes=([1], [0]))  # (B, K, C)
    out = Tensor((mid * content.data[:, None, :]).sum(axis=2))

    def vjp(g, needs):
        gs = gw = gc = None
        if needs[0] or needs[1]:
            outer = g[:, :, None] * content.data[:, None, :]  # (B, K, C)
        if needs[0]:
            gs = np.tensordot(outer, w.data, axes=([1, 2], [1, 2]))
        if needs[1]:
            gw = np.tensordot(style.data, outer, axes=([0], [0]))
        if needs[2]:
            gc = (mid * g[:, :, None]).sum(axis=1)
        return gs, gw, gc

    return _record(out, (style, w, content), vjp)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


def batchnorm2d(x, gamma, beta, mode: str = "train",
                running_stats: ChannelStats | None = None,
                momentum: float = 0.1, epsilon: float = 1e-5) -> Tensor:
    """Per-channel normalization of [B,C,H,W] over batch and spatial axes.

    Train mode normalizes with batch statistics and folds them into
    ``running_stats`` by exponential moving average (on the variance), in the
    statistics' own dtype; eval mode normalizes with the running statistics,
    in the promoted dtype of ``x`` and those statistics.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if epsilon <= 0:
        raise ValueError(f"batchnorm2d: epsilon must be > 0, got {epsilon}")
    if mode not in ("train", "eval"):
        raise ValueError(f"batchnorm2d: mode must be 'train' or 'eval', got {mode!r}")
    if x.ndim != 4:
        raise ShapeError(f"batchnorm2d expects rank-4 input, got {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batchnorm2d: gamma/beta shapes {gamma.shape}/{beta.shape} do not "
            f"match {c} channels"
        )
    if mode == "eval":
        if running_stats is None:
            raise ValueError("batchnorm2d: eval mode requires running_stats")
        dtype = np.result_type(x.data, running_stats.mean, running_stats.std)
        mu = np.asarray(running_stats.mean, dtype=dtype)
        var = np.asarray(running_stats.std, dtype=dtype) ** 2
        inv = 1.0 / np.sqrt(var + epsilon)
        # gamma * ((x - mu) * inv) + beta, bitwise, in one output-sized array
        y = x.data - mu[:, None, None]
        y *= inv[:, None, None]
        y *= gamma.data[:, None, None]
        y += beta.data[:, None, None]
        out = Tensor(y)

        def vjp_eval(g, needs):
            gx = gg = gb = None
            if needs[0]:
                gx = g * (gamma.data * inv)[:, None, None]
            if needs[1]:
                xhat = (x.data - mu[:, None, None]) * inv[:, None, None]
                gg = (g * xhat).sum(axis=(0, 2, 3))
            if needs[2]:
                gb = g.sum(axis=(0, 2, 3))
            return gx, gg, gb

        return _record(out, (x, gamma, beta), vjp_eval)

    n = x.shape[0] * x.shape[2] * x.shape[3]
    mu = x.data.mean(axis=(0, 2, 3))
    var = x.data.var(axis=(0, 2, 3))
    if running_stats is not None:  # the running statistics keep their dtype
        mean, std = np.asarray(running_stats.mean), np.asarray(running_stats.std)
        running_stats.mean = ((1.0 - momentum) * mean + momentum * mu).astype(
            mean.dtype, copy=False)
        running_stats.std = np.sqrt((1.0 - momentum) * std ** 2 + momentum * var).astype(
            std.dtype, copy=False)
    inv = 1.0 / np.sqrt(var + epsilon)
    xhat = x.data - mu[:, None, None]
    xhat *= inv[:, None, None]
    y = gamma.data[:, None, None] * xhat
    y += beta.data[:, None, None]
    out = Tensor(y)

    def vjp(g, needs):
        gx = gg = gb = None
        if needs[0]:
            gxh = g * gamma.data[:, None, None]
            sum_gxh = gxh.sum(axis=(0, 2, 3), keepdims=True)
            sum_gxh_xhat = (gxh * xhat).sum(axis=(0, 2, 3), keepdims=True)
            gx = (inv[:, None, None] / n) * (n * gxh - sum_gxh - xhat * sum_gxh_xhat)
        if needs[1]:
            gg = (g * xhat).sum(axis=(0, 2, 3))
        if needs[2]:
            gb = g.sum(axis=(0, 2, 3))
        return gx, gg, gb

    return _record(out, (x, gamma, beta), vjp)
