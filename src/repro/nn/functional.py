"""Vectorized numpy kernels for the IR layer set.

Layout convention: activations are ``(N, C, H, W)`` float batches; one
sample is a batch of one.  Convolution is implemented with an im2col
lowering (stride-trick view + one stacked GEMM), the standard way to get
near-BLAS throughput out of numpy; the window view avoids materializing
patch copies until the single reshape before the GEMM, per the "views
not copies" guidance.

Every kernel keeps one contract, which the tests assert with
``np.array_equal``: **batch-size invariance, bit-exact** — row ``i`` of
the output for an N-sample batch equals the output for sample ``i``
alone (N=1).  That constrains how the kernels may vectorize:

* windowed reductions (pooling) and row-wise reductions (softmax) reduce
  each sample's elements in the same runs whatever N is;
* the conv and fully-connected GEMMs are stacked matmuls
  (``(F, K) @ (N, K, M)``), so numpy runs the same 2-D BLAS call per
  sample; fusing the batch into one wide GEMM would let BLAS pick a
  different kernel by column count and change the accumulation order.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError


def _check_nchw(x: np.ndarray, who: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{who} expects an (N, C, H, W) array, got shape"
                         f" {x.shape}")


def _pad_hw(x: np.ndarray, pad: tuple[int, int]) -> np.ndarray:
    """Zero-pad the trailing two (spatial) axes of an NCHW array."""
    if pad == (0, 0):
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad[0], pad[0]), (pad[1], pad[1])))


def sliding_windows(x: np.ndarray, kernel: tuple[int, int],
                    stride: tuple[int, int]) -> np.ndarray:
    """Return a strided view ``(N, C, OH, OW, KH, KW)`` of all windows.

    The view shares memory with ``x``; callers must not write through it.
    """
    _check_nchw(x, "sliding_windows")
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    if kh > h or kw > w:
        raise ShapeError(
            f"window {kernel} does not fit input of shape {x.shape}")
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    sn, sc, srow, scol = x.strides
    return as_strided(
        x,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, srow * sh, scol * sw, srow, scol),
        writeable=False,
    )


def im2col(x: np.ndarray, kernel: tuple[int, int],
           stride: tuple[int, int] = (1, 1),
           pad: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Lower a batch to an ``(N, C*KH*KW, OH*OW)`` patch-matrix stack."""
    x = _pad_hw(x, pad)
    windows = sliding_windows(x, kernel, stride)
    n, c, oh, ow, kh, kw = windows.shape
    # (N, C, KH, KW, OH, OW) -> (N, C*KH*KW, OH*OW); the transpose is a
    # view, the reshape makes the single necessary copy.  Some windows
    # (KW=1 at stride 1, 1x1 at stride 2) reshape to a strided view
    # instead, which matmul would hand to its own loop rather than BLAS:
    # the patch matrix is always contiguous, so every conv GEMM runs
    # the same BLAS routine.
    return np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3)
                                .reshape(n, c * kh * kw, oh * ow))


def conv2d(x: np.ndarray, weights: np.ndarray,
           bias: np.ndarray | None = None,
           stride: tuple[int, int] = (1, 1),
           pad: tuple[int, int] = (0, 0)) -> np.ndarray:
    """2-D cross-correlation over all input channels — paper eq. (1).

    ``x`` is ``(N, C, H, W)`` and ``weights`` ``(F, C, KH, KW)``; the
    result is ``(N, F, OH, OW)``.  (Like Caffe and every accelerator in
    this space, the "convolution" does not flip the kernel.)
    """
    _check_nchw(x, "conv2d")
    if weights.ndim != 4:
        raise ShapeError(
            f"conv2d weights must be (F, C, KH, KW), got {weights.shape}")
    f, c, kh, kw = weights.shape
    if c != x.shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input has {x.shape[1]}, weights"
            f" expect {c}")
    if bias is not None and bias.shape != (f,):
        raise ShapeError(
            f"conv2d bias must have shape ({f},), got {bias.shape}")
    n = x.shape[0]
    h = x.shape[2] + 2 * pad[0]
    w = x.shape[3] + 2 * pad[1]
    oh = (h - kh) // stride[0] + 1
    ow = (w - kw) // stride[1] + 1
    cols = im2col(x, (kh, kw), stride, pad)
    out = np.matmul(weights.reshape(f, c * kh * kw), cols)
    if bias is not None:
        out += bias[:, None]
    return out.reshape(n, f, oh, ow)


def pool_pad_amounts(hw: tuple[int, int], kernel: tuple[int, int],
                     stride: tuple[int, int], pad: tuple[int, int],
                     ceil_mode: bool) -> tuple[int, int, int, int]:
    """Per-edge spatial padding for pooling: ``(ph, pw, extra_h, extra_w)``.

    ``extra_*`` is the ceil-mode extension on the bottom/right edge so the
    last window fits.  Shared by :func:`_pool_pad` and the execution-plan
    compiler (:mod:`repro.nn.plan`), which bakes the padded geometry into
    a reusable scratch buffer.
    """
    h, w = hw
    ph, pw = pad
    extra_h = extra_w = 0
    if ceil_mode:
        def need(size: int, k: int, s: int, p: int) -> int:
            span = size + 2 * p - k
            steps = -(-span // s)  # ceil division
            out = steps + 1
            if p > 0 and (out - 1) * s >= size + p:
                out -= 1
            return max(0, (out - 1) * s + k - (size + 2 * p))
        extra_h = need(h, kernel[0], stride[0], ph)
        extra_w = need(w, kernel[1], stride[1], pw)
    return ph, pw, extra_h, extra_w


def _pool_pad(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
              pad: tuple[int, int], fill: float,
              ceil_mode: bool) -> np.ndarray:
    """Pad the spatial axes for pooling; with ceil_mode, extend so the last
    window fits."""
    ph, pw, extra_h, extra_w = pool_pad_amounts(
        x.shape[-2:], kernel, stride, pad, ceil_mode)
    if ph == 0 and pw == 0 and extra_h == 0 and extra_w == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (ph, ph + extra_h),
                      (pw, pw + extra_w)), constant_values=fill)


def max_pool2d(x: np.ndarray, kernel: tuple[int, int],
               stride: tuple[int, int] | None = None,
               pad: tuple[int, int] = (0, 0),
               *, ceil_mode: bool = True) -> np.ndarray:
    """Max pooling — eq. (3) with the max operator."""
    _check_nchw(x, "max_pool2d")
    stride = kernel if stride is None else stride
    padded = _pool_pad(x, kernel, stride, pad, -np.inf, ceil_mode)
    windows = sliding_windows(padded, kernel, stride)
    return windows.max(axis=(4, 5))


def avg_pool2d(x: np.ndarray, kernel: tuple[int, int],
               stride: tuple[int, int] | None = None,
               pad: tuple[int, int] = (0, 0),
               *, ceil_mode: bool = True) -> np.ndarray:
    """Average pooling — eq. (3) with the mean operator.

    Padding elements (zeros) participate in the average, matching Caffe.
    """
    _check_nchw(x, "avg_pool2d")
    stride = kernel if stride is None else stride
    padded = _pool_pad(x, kernel, stride, pad, 0.0, ceil_mode)
    windows = sliding_windows(padded, kernel, stride)
    return windows.mean(axis=(4, 5))


def fully_connected(x: np.ndarray, weights: np.ndarray,
                    bias: np.ndarray | None = None) -> np.ndarray:
    """Fully-connected layer — eq. (4): ``(N, ...)`` → ``(N, F)``.

    Each sample is flattened implicitly and multiplied as a stacked
    ``(F, K) @ (N, K, 1)`` matmul — one matrix-vector product per sample,
    dispatched once.
    """
    n = x.shape[0]
    flat = x.reshape(n, -1)
    if weights.ndim != 2 or weights.shape[1] != flat.shape[1]:
        raise ShapeError(
            f"fc weights must be (N, {flat.shape[1]}), got {weights.shape}")
    if bias is not None and bias.shape != (weights.shape[0],):
        raise ShapeError(
            f"fc bias must have shape ({weights.shape[0]},), got"
            f" {bias.shape}")
    out = np.matmul(weights, flat[:, :, None])[:, :, 0]
    if bias is not None:
        out = out + bias
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit f(x) = max(0, x)."""
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid f(x) = 1 / (1 + e^-x), numerically stabilized."""
    out = np.empty_like(x, dtype=np.result_type(x, np.float32))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(x)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax normalization — eq. (5) without the log, per sample."""
    flat = x.reshape(x.shape[0], -1)
    shifted = flat - flat.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return (ex / ex.sum(axis=1, keepdims=True)).reshape(x.shape)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """LogSoftMax — the paper's normalization operator (eq. 5, log form),
    per sample."""
    flat = x.reshape(x.shape[0], -1)
    shifted = flat - flat.max(axis=1, keepdims=True)
    return (shifted -
            np.log(np.exp(shifted).sum(axis=1, keepdims=True))) \
        .reshape(x.shape)


# -- gather-index kernels (the execution-plan path) ---------------------------
#
# The stride-trick kernels above re-derive the window geometry on every
# call.  When the same (shape, dtype) configuration recurs — steady-state
# serving runs identical layer shapes millions of times — the geometry can
# be compiled once into a flat gather-index map and replayed with a single
# ``take``.  The map indexes into one *flattened padded* sample, so a
# batch replays it row-wise (``np.take(flat2d, map, axis=1)``) for any N.
# Output values are bit-identical to the stride-trick kernels: a gather is
# a pure data movement, and the downstream GEMM sees the same operand
# values in the same logical order.


def im2col_index_map(in_shape: tuple[int, int, int],
                     kernel: tuple[int, int],
                     stride: tuple[int, int] = (1, 1),
                     pad: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Gather map for :func:`im2col`: ``(C*KH*KW, OH*OW)`` flat indices.

    Indexes into one flattened zero-padded ``(C, H+2PH, W+2PW)`` sample;
    ``np.take(padded.reshape(n, -1), map, axis=1)`` equals
    ``im2col(x, ...)`` bit for bit.
    """
    c, h, w = in_shape
    kh, kw = kernel
    sh, sw = stride
    hp, wp = h + 2 * pad[0], w + 2 * pad[1]
    if kh > hp or kw > wp:
        raise ShapeError(
            f"window {kernel} does not fit padded input ({c}, {hp}, {wp})")
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    ci = np.arange(c).reshape(c, 1, 1, 1, 1)
    khi = np.arange(kh).reshape(1, kh, 1, 1, 1)
    kwi = np.arange(kw).reshape(1, 1, kw, 1, 1)
    ohi = np.arange(oh).reshape(1, 1, 1, oh, 1)
    owi = np.arange(ow).reshape(1, 1, 1, 1, ow)
    flat = ci * (hp * wp) + (ohi * sh + khi) * wp + (owi * sw + kwi)
    return np.ascontiguousarray(flat.reshape(c * kh * kw, oh * ow))
