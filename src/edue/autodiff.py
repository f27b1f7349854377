"""Dense-tensor engine with reverse-mode differentiation.

Tensors wrap numpy arrays; the canonical layout for network math is
rank-4 ``(batch, channels, height, width)``.  Operations executed while a
:class:`Tape` is active record a backward rule onto it; ``tape.backward``
consumes the tape, popping the rules in exact reverse order, so each op's
saved arrays are freed as soon as its rule has run.  Leaf gradients
accumulate across tapes; zeroing them is the caller's duty.  A forward-only
pass may run inside a :class:`Workspace`, whose one scratch buffer conv2d
then reuses instead of allocating its column matrix afresh on every call.

Only the op set the segmentation network and its losses need is
implemented.  No broadcasting: elementwise ops require identical shapes.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Workspace",
    "ShapeError",
    "Adam",
    "set_default_dtype",
    "default_dtype",
    "add",
    "sub",
    "scale",
    "square",
    "sqrt",
    "mean_all",
    "relu",
    "sigmoid",
    "conv2d",
    "upsample_nearest",
    "channel_norm",
    "concat_channels",
    "stack_first",
    "variance_along_first_axis",
    "bce_loss",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names both shapes."""


_state = threading.local()  # this thread's active .tape and .workspace


_DTYPE = np.float32


def set_default_dtype(dtype) -> None:
    """Set the float dtype for newly created tensors (float32 or float64).

    float64 exists for test configurations where finite-difference checks
    need tighter tolerances; production math runs at float32.
    """
    global _DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype!r}; use float32 or float64")
    _DTYPE = dt.type


def default_dtype():
    return _DTYPE


class Tensor:
    """A dense float array plus an optional gradient buffer.

    ``requires_grad`` marks a leaf whose gradient the caller wants; op
    outputs get it set automatically whenever any input carries it and a
    tape is active.  ``grad`` is allocated lazily (same shape as ``data``)
    the first time a backward pass reaches the tensor.
    """

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.name = name

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"


class Tape:
    """Ordered record of executed operations for one backward pass.

    Used as a context manager, one at a time per thread; ops executed
    inside append their backward rule, so the record order is a
    topological order of the compute DAG and reverse iteration is a valid
    backpropagation schedule.  One backward spends the tape.
    """

    def __init__(self):
        self.records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self.spent = False

    def __enter__(self) -> "Tape":
        assert Tape.active() is None, "a tape is already recording"
        _state.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _state.tape = None

    @staticmethod
    def active() -> "Tape | None":
        return getattr(_state, "tape", None)

    def record(self, out: Tensor, backward: Callable[[np.ndarray], None]) -> None:
        self.records.append((out, backward))

    def backward(self, root: Tensor) -> None:
        """Populate gradients of every recorded tensor reachable from root.

        Seeds the root with a gradient of ones and pops records in exact
        reverse recording order, dropping each rule, its saved arrays and
        its output's gradient once the rule has run; a spent tape raises.
        Leaf gradients accumulate across tapes (caller resets them).
        """
        if self.spent:
            raise RuntimeError("Tape.backward: this tape was already used by a backward pass")
        self.spent = True
        root.ensure_grad()
        root.grad += np.ones_like(root.data)
        while self.records:
            out, backward_fn = self.records.pop()
            if out.grad is not None:
                backward_fn(out.grad)
                out.grad = None


class Workspace:
    """One grow-only scratch buffer for forward-only passes.

    Used as a context manager, one at a time like :class:`Tape`.  While
    one is active and no tape is recording, conv2d builds its column
    matrix in ``buffer``, regrowing it when it is too small or of another
    dtype: nothing keeps the columns after the matmul, so one buffer
    serves every layer, chunk and model of a prediction and no call pays
    for fresh pages.  A tape's backward rule keeps its columns, so a
    recorded pass allocates its own.  Exit drops the buffer, so the
    memory lives no longer than the pass.
    """

    def __init__(self):
        self.buffer = np.empty(0)

    def __enter__(self) -> "Workspace":
        assert Workspace.active() is None, "a workspace is already active"
        _state.workspace = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _state.workspace = None
        self.buffer = np.empty(0)

    @staticmethod
    def active() -> "Workspace | None":
        return getattr(_state, "workspace", None)


def _finish(out_data: np.ndarray, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap an op result, recording its backward rule if a tape is active."""
    tape = Tape.active()
    needs = tape is not None and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = needs
    out.grad = None
    out.name = None
    if needs:
        tape.record(out, backward)
    return out


def _accum(parent: Tensor, contribution: np.ndarray) -> None:
    if parent.requires_grad:
        parent.ensure_grad()
        parent.grad += contribution


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: operand shapes differ: {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _finish(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)

    def backward(g):
        _accum(a, g)
        _accum(b, -g)

    return _finish(a.data - b.data, (a, b), backward)


def scale(a: Tensor, factor: float) -> Tensor:
    c = a.data.dtype.type(factor)

    def backward(g):
        _accum(a, g * c)

    return _finish(a.data * c, (a,), backward)


def square(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, g * (2.0 * a.data))

    return _finish(a.data * a.data, (a,), backward)


def sqrt(a: Tensor, shift: float = 0.0) -> Tensor:
    """Elementwise sqrt(x + shift); shift > 0 keeps the gradient finite at 0."""
    root = np.sqrt(a.data + a.data.dtype.type(shift))

    def backward(g):
        _accum(a, g * (0.5 / root))

    return _finish(root, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = np.asarray(a.data.mean(), dtype=a.data.dtype)

    def backward(g):
        _accum(a, np.full_like(a.data, g / n))

    return _finish(out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    # np.where branches on every element, slow when the mask follows the data;
    # fmax maps NaN to 0, and += 0 turns its -0.0 back into +0.0
    zero = a.data.dtype.type(0)
    out = np.fmax(a.data, zero)
    out += zero

    def backward(g):
        _accum(a, g * (a.data > 0))

    return _finish(out, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    # split by sign so exp never overflows
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)

    def backward(g):
        _accum(a, g * out * (1.0 - out))

    return _finish(out, (a,), backward)


# ---------------------------------------------------------------------------
# structural ops


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_channels: empty input list")
    base = parts[0].data.shape
    for p in parts[1:]:
        s = p.data.shape
        if len(s) != 4 or s[0] != base[0] or s[2:] != base[2:]:
            raise ShapeError(f"concat_channels: incompatible shapes {base} vs {s}")
    sizes = [p.data.shape[1] for p in parts]
    edges = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, edges[:-1], edges[1:]):
            _accum(p, g[:, lo:hi])

    return _finish(np.concatenate([p.data for p in parts], axis=1), tuple(parts), backward)


def stack_first(parts: Sequence[Tensor]) -> Tensor:
    """Stack same-shape tensors along a new leading axis."""
    if not parts:
        raise ShapeError("stack_first: empty input list")
    base = parts[0].data.shape
    for p in parts[1:]:
        if p.data.shape != base:
            raise ShapeError(f"stack_first: shapes differ: {base} vs {p.data.shape}")

    def backward(g):
        for i, p in enumerate(parts):
            _accum(p, g[i])

    return _finish(np.stack([p.data for p in parts], axis=0), tuple(parts), backward)


def variance_along_first_axis(stacked: Tensor) -> Tensor:
    """Population variance over the leading axis, per remaining coordinate."""
    n = stacked.data.shape[0]
    if n < 2:
        raise ShapeError(f"variance_along_first_axis: first extent must be >= 2, got {n}")
    centered = stacked.data - stacked.data.mean(axis=0, keepdims=True)
    out = np.mean(centered * centered, axis=0)

    def backward(g):
        # d var / d x_i = 2 (x_i - mean) / n; the mean's own dependence cancels
        _accum(stacked, (2.0 / n) * centered * g[None])

    return _finish(out.astype(stacked.data.dtype), (stacked,), backward)


def upsample_nearest(a: Tensor, factor: int) -> Tensor:
    if factor < 1:
        raise ShapeError(f"upsample_nearest: factor must be >= 1, got {factor}")
    if a.data.ndim != 4:
        raise ShapeError(f"upsample_nearest: need rank-4 input, got shape {a.data.shape}")
    b, c, h, w = a.data.shape
    out = np.repeat(np.repeat(a.data, factor, axis=2), factor, axis=3)

    def backward(g):
        folded = g.reshape(b, c, h, factor, w, factor).sum(axis=(3, 5))
        _accum(a, folded)

    return _finish(out, (a,), backward)


# ---------------------------------------------------------------------------
# convolution


# conv2d's gather and scatter copy this many bytes of columns per block of
# rows, so a block stays in cache across its k*k taps
_BLOCK_BYTES = 1 << 20


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of a (B,Cin,H,W) input with a (Cout,Cin,k,k) kernel.

    im2col: the input is copied once into a zero-padded channels-last
    scratch array, and each kernel tap (u, v) copies a strided window of
    it, whole runs of Cin values at a time, into the column matrix, one
    block of output rows at a time.  The columns are ordered (cin, kh, kw)
    to match the kernel's own layout.  The input gradient is scattered
    back through the same channels-last layout, one block of input rows
    at a time, so every input element still takes its terms tap by tap
    in (u, v) order.  Both orders are fixed: changing either reorders
    float sums, and a 5e-6 reordering moves the acceptance values.
    With no tape recording, the column matrix is built in the active
    :class:`Workspace`'s buffer, if any; the output never aliases it.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: need rank-4 input and kernel, got {x.data.shape} and {kernel.data.shape}")
    bsz, cin, h, w = x.data.shape
    cout, cin_k, kh, kw = kernel.data.shape
    if cin != cin_k:
        raise ShapeError(f"conv2d: input channels {x.data.shape} do not match kernel {kernel.data.shape}")
    if bias.data.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {bias.data.shape} does not match kernel {kernel.data.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d: invalid stride {stride} / padding {padding}")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: kernel {kernel.data.shape} does not fit input {x.data.shape} "
                         f"with stride {stride}, padding {padding}")

    dtype = x.data.dtype
    padded = (bsz, h + 2 * padding, w + 2 * padding, cin)
    xt = np.zeros(padded, dtype=dtype)
    xt[:, padding:padding + h, padding:padding + w] = x.data.transpose(0, 2, 3, 1)
    shape6 = (bsz, ho, wo, cin, kh, kw)
    scratch = Workspace.active() if Tape.active() is None else None
    size = math.prod(shape6)
    if scratch is not None and (scratch.buffer.dtype != dtype or scratch.buffer.size < size):
        scratch.buffer = np.empty(size, dtype=dtype)
    cols6 = (np.empty(shape6, dtype=dtype) if scratch is None
             else scratch.buffer[:size].reshape(shape6))
    rows = max(1, _BLOCK_BYTES // cols6[:, 0].nbytes)
    for i0 in range(0, ho, rows):
        i1 = min(i0 + rows, ho)
        for u in range(kh):
            for v in range(kw):
                cols6[:, i0:i1, :, :, u, v] = \
                    xt[:, u + stride * i0:u + stride * i1:stride, v:v + stride * wo:stride]
    # one BLAS matmul per pass
    cols = cols6.reshape(bsz * ho * wo, cin * kh * kw)
    w2 = kernel.data.reshape(cout, cin * kh * kw)
    out = cols @ w2.T
    out += bias.data
    out = out.reshape(bsz, ho, wo, cout).transpose(0, 3, 1, 2)

    def backward(g):
        nonlocal cols
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(bsz * ho * wo, cout)
        _accum(bias, g2.sum(axis=0))
        _accum(kernel, (g2.T @ cols).reshape(kernel.data.shape))
        cols = None  # free the columns before dcols takes as much
        if x.requires_grad:
            dcols = (g2 @ w2).reshape(bsz, ho, wo, cin, kh, kw)
            dxt = np.zeros(padded, dtype=dtype)
            for r0 in range(0, padded[1], rows * stride):
                r1 = r0 + rows * stride
                for u in range(kh):
                    # output rows [i0, i1) are those whose tap u lands in input rows [r0, r1)
                    i0, i1 = (min(ho, max(0, -(-(r - u) // stride))) for r in (r0, r1))
                    for v in range(kw):
                        dxt[:, u + stride * i0:u + stride * i1:stride, v:v + stride * wo:stride] += \
                            dcols[:, i0:i1, :, :, u, v]
            _accum(x, dxt[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2))

    return _finish(np.ascontiguousarray(out), (x, kernel, bias), backward)


def channel_norm(x: Tensor, gain: Tensor, shift: Tensor, epsilon: float = 1e-5) -> Tensor:
    """Normalize each (sample, channel) plane to zero mean / unit variance,
    then apply a learned per-channel affine."""
    if x.data.ndim != 4:
        raise ShapeError(f"channel_norm: need rank-4 input, got {x.data.shape}")
    c = x.data.shape[1]
    if gain.data.shape != (c,) or shift.data.shape != (c,):
        raise ShapeError(f"channel_norm: gain/shift must have shape ({c},), "
                         f"got {gain.data.shape} and {shift.data.shape}")
    # numpy's own var steps; x - mean is then scaled into xhat in place
    xhat = x.data - x.data.mean(axis=(2, 3), keepdims=True)
    var = (xhat * xhat).mean(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(epsilon))
    xhat *= inv
    out = xhat * gain.data[None, :, None, None]
    out += shift.data[None, :, None, None]

    def backward(g):
        _accum(shift, g.sum(axis=(0, 2, 3)))
        _accum(gain, (g * xhat).sum(axis=(0, 2, 3)))
        if x.requires_grad:
            gx = g * gain.data[None, :, None, None]
            m1 = gx.mean(axis=(2, 3), keepdims=True)
            m2 = (gx * xhat).mean(axis=(2, 3), keepdims=True)
            _accum(x, inv * (gx - m1 - xhat * m2))

    return _finish(out.astype(x.data.dtype, copy=False), (x, gain, shift), backward)


# ---------------------------------------------------------------------------
# losses


BCE_CLAMP = 1e-7


def bce_loss(probs: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross-entropy of probabilities against (possibly soft)
    targets; probabilities are clamped to [1e-7, 1 - 1e-7]."""
    _check_same_shape("bce_loss", probs, targets)
    lo = probs.data.dtype.type(BCE_CLAMP)
    hi = probs.data.dtype.type(1.0 - BCE_CLAMP)
    p = np.clip(probs.data, lo, hi)
    t = targets.data
    n = p.size
    out = np.asarray(np.mean(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))), dtype=p.dtype)

    def backward(g):
        inside = (probs.data > lo) & (probs.data < hi)
        dp = np.where(inside, (-t / p + (1.0 - t) / (1.0 - p)) / n, 0.0)
        _accum(probs, g * dp.astype(probs.data.dtype))
        # targets are labels; no gradient path

    return _finish(out, (probs, targets), backward)


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected adaptive-moment optimizer over named parameters, each
    created with a gradient buffer."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self._m = {k: np.zeros_like(p.data, dtype=np.float64) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data, dtype=np.float64) for k, p in self.params.items()}

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
            m = self._m[name]
            v = self._v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g.astype(np.float64) ** 2)
            update = (self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS))
            p.data -= update.astype(p.data.dtype)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
