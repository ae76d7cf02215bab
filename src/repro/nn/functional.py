"""Low-level array kernels for the NumPy neural-network substrate.

Everything here is a pure function on :class:`numpy.ndarray` values, written
with vectorized NumPy idioms (no per-element Python loops on the hot path).
The convolution kernels use the classic im2col/col2im lowering so the heavy
lifting happens inside BLAS matmuls.

The lowering itself is loop-free.  Every conv shape the substrate's models
produce is tiny (``(10, 6, 4, 4)`` is typical), so a loop of strided slice
copies per kernel offset spends its time on NumPy call overhead, not on
arithmetic.  Instead, :func:`im2col` is one gather and :func:`col2im` one
unbuffered scatter-add, each driven by a flat index plan that depends only
on the conv geometry.  Plans are built once per shape, cached, and
read-only, so every thread of a parallel backend can share them.  Both
kernels are bit-identical to the strided-loop formulation (a gather is a
copy; for the scatter-add see :func:`col2im`), in every compute dtype.

Hot-path kernels take an optional :class:`~repro.nn.compute.Workspace`:
when given, large intermediates (padded inputs, im2col columns, matmul
outputs) land in pooled buffers reused across steps instead of fresh
allocations.  The workspace path performs *exactly* the same arithmetic as
the allocating path — pooling is bit-transparent — and every buffer is
fully overwritten before it is read, so stale contents can never leak into
results.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .compute import Workspace

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "relu",
    "relu_grad",
    "gelu",
    "gelu_grad",
    "softmax",
    "log_softmax",
]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size {out} "
            f"(input={size}, kernel={kernel}, stride={stride}, pad={pad})"
        )
    return out


@lru_cache(maxsize=128)
def _window_plan(hp: int, wp: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """Flat index into one padded ``hp x wp`` plane of every column entry,
    in the columns' ``(i, j, oy, ox)`` order."""
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    rows = np.arange(kh)[:, None, None, None] + stride * np.arange(oh)[:, None]
    cols = np.arange(kw)[:, None, None] + stride * np.arange(ow)
    plan = (rows * wp + cols).reshape(-1)
    plan.flags.writeable = False
    return plan


# A scatter plan has one index per column entry, as large as the columns
# themselves, so fewer are kept than window plans.
@lru_cache(maxsize=32)
def _scatter_plan(
    planes: int, hp: int, wp: int, kh: int, kw: int, stride: int
) -> np.ndarray:
    """Flat index into a stack of ``planes`` padded planes of every column
    entry, in the columns' ``(plane, i, j, oy, ox)`` memory order."""
    window = _window_plan(hp, wp, kh, kw, stride)
    plan = (np.arange(planes)[:, None] * (hp * wp) + window).reshape(-1)
    plan.flags.writeable = False
    return plan


# repro: hotpath
def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, ws: Workspace | None = None
) -> tuple[np.ndarray, int, int]:
    """Lower sliding convolution windows into columns.

    One ``np.take`` of the padded input through the cached window plan.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    ws:
        Optional workspace: the padded input and the column buffer come
        from the pool instead of fresh allocations.

    Returns
    -------
    cols:
        Array of shape ``(N, C*kh*kw, OH*OW)``.
    oh, ow:
        Spatial output sizes.
    """
    if ws is None:
        ws = Workspace()
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    hp, wp = h + 2 * pad, w + 2 * pad
    if pad > 0:
        # The border is written only when the buffer is born (it is
        # always zero); the interior is rewritten every call.
        xp = ws.get("im2col_pad", (n, c, hp, wp), x.dtype, zero_first=True)
        xp[:, :, pad : pad + h, pad : pad + w] = x
        x = xp
    cols = ws.get("im2col_cols", (n, c * kh * kw, oh * ow), x.dtype)
    # mode="clip" (the plan is always in range) keeps np.take writing
    # straight into ``out``; the default "raise" stages it in a temporary.
    np.take(
        x.reshape(n * c, hp * wp),
        _window_plan(hp, wp, kh, kw, stride),
        axis=1,
        out=cols.reshape(n * c, kh * kw * oh * ow),
        mode="clip",
    )
    return cols, oh, ow


# repro: hotpath
def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    ws: Workspace | None = None,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into an image.

    Not an inverse — a pixel covered by several windows receives the sum
    of all their entries.  One ``np.add.at`` into a zeroed padded image,
    through the cached scatter plan.  ``ufunc.at`` applies its updates in
    index order and the plan lists the columns in their memory order
    ``(n, c, i, j, oy, ox)``, so every pixel sums its window hits in
    ascending kernel offset ``(i, j)``, starting from ``0.0``: the same
    additions in the same order as one strided ``+=`` per offset, hence
    bit-identical to it.
    """
    if ws is None:
        ws = Workspace()
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    xp = ws.get("col2im_xp", (n, c, hp, wp), cols.dtype)
    # Scatter-add target: must start from zero on every call.
    xp.fill(0.0)
    np.add.at(
        xp.reshape(-1),
        _scatter_plan(n * c, hp, wp, kh, kw, stride),
        cols.reshape(-1),
    )
    if pad > 0:
        return xp[:, :, pad : pad + h, pad : pad + w]
    return xp


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    pad: int,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """2-D convolution forward pass.

    Parameters
    ----------
    x:
        ``(N, C, H, W)`` input.
    weight:
        ``(F, C, kh, kw)`` filters.
    bias:
        ``(F,)`` or ``None``.
    ws:
        Optional workspace for the column and output buffers.

    Returns
    -------
    out:
        ``(N, F, OH, OW)``.
    cols:
        The im2col buffer, cached for the backward pass.
    """
    f, c, kh, kw = weight.shape
    cols, oh, ow = im2col(x, kh, kw, stride, pad, ws)
    wm = weight.reshape(f, c * kh * kw)
    n = x.shape[0]
    if ws is None:
        out = np.matmul(wm[None], cols)  # (N, F, OH*OW)
    else:
        out = ws.get("conv_out", (n, f, oh * ow), cols.dtype)
        np.matmul(wm[None], cols, out=out)
    if bias is not None:
        out += bias[None, :, None]
    return out.reshape(n, f, oh, ow), cols


def conv2d_backward(
    dout: np.ndarray,
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    weight: np.ndarray,
    stride: int,
    pad: int,
    with_bias: bool = True,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(dx, dweight, dbias)``; ``dbias`` is ``None`` when
    ``with_bias`` is false.
    """
    f, c, kh, kw = weight.shape
    n = dout.shape[0]
    dflat = dout.reshape(n, f, -1)  # (N, F, OH*OW)
    wm = weight.reshape(f, c * kh * kw)
    if ws is None:
        dw = np.einsum("nfo,nko->fk", dflat, cols).reshape(weight.shape)
        dcols = np.matmul(wm.T[None], dflat)  # (N, K, OH*OW)
    else:
        dw = ws.get("conv_dw", (f, c * kh * kw), weight.dtype)
        np.einsum("nfo,nko->fk", dflat, cols, out=dw)
        dw = dw.reshape(weight.shape)
        dcols = ws.get("conv_dcols", (n, c * kh * kw, dflat.shape[2]), cols.dtype)
        np.matmul(wm.T[None], dflat, out=dcols)
    dx = col2im(dcols, x_shape, kh, kw, stride, pad, ws)
    db = dflat.sum(axis=(0, 2)) if with_bias else None
    return dx, dw, db


# repro: hotpath
def relu(x: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Rectified linear unit."""
    if ws is None:
        return np.maximum(x, 0.0)
    out = ws.get("relu_out", x.shape, x.dtype)
    np.maximum(x, 0.0, out=out)
    return out


# repro: hotpath
def relu_grad(
    x: np.ndarray, dout: np.ndarray, ws: Workspace | None = None
) -> np.ndarray:
    """Gradient of ReLU with respect to its input."""
    if ws is None:
        return dout * (x > 0)
    mask = ws.get("relu_mask", x.shape, np.dtype(bool))
    np.greater(x, 0, out=mask)
    dx = ws.get("relu_dx", dout.shape, dout.dtype)
    np.multiply(dout, mask, out=dx)
    return dx


# A Python float (not a NumPy scalar) so NEP-50 weak promotion keeps
# float32 activations in float32.
_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation)."""
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def gelu_grad(x: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """Gradient of the tanh-approximated GELU."""
    t = np.tanh(_GELU_C * (x + 0.044715 * x**3))
    dt = (1.0 - t**2) * _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return dout * (0.5 * (1.0 + t) + 0.5 * x * dt)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    z = x - x.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))
