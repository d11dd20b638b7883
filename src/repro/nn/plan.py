"""Shape-specialized execution plans for the reference engine.

Steady-state serving (the AFI's whole reason to exist) runs the *same*
network shapes millions of times, yet the stride-trick kernels in
:mod:`repro.nn.functional` re-derive im2col geometry, padding and weight
layout on every call.  Following the sejits_caffe idea — lazily
specialize each kernel per (shape, dtype) configuration and cache the
compiled result — this module compiles in two levels:

* each layer once into an :class:`ExecutionPlan`: the window-gather
  geometry, pre-packed weight matrices and pre-broadcast bias columns.
  Plans are immutable, and each belongs to the pass compiled with it;
* each network once into a :class:`CompiledPass`, which **binds** its
  plans per (thread, batch size): :meth:`ExecutionPlan.bind` takes the
  plan's scratch for ``N`` rows from the thread's :class:`Arena`,
  reading a fixed source buffer (the producer's scratch), and returns a
  flat list of numpy calls whose operands are all fixed.  A warm pass
  copies its input once into the bound input buffer and runs that list;
  nothing else is looked up, checked or allocated.

The arena holds one buffer of :data:`ARENA_ROWS` rows per *role*: the
plan's layer config, input shape and dtype, plus which of the plan's
buffers it is.  Every pass and every batch size on a thread binds
prefix views (``buf[:n]``, still C-contiguous) of the same buffers, so
two engines over the same network with different weights (two FPGA
slots) share one working set, and a new batch size costs a step list,
not memory.  A zero- or ``-inf``-bordered staging buffer is shared only
with its own role, whose steps rewrite the same interior.  Batches
above :data:`ARENA_ROWS` run in chunks of that many rows; batch-size
invariance makes that exact.

Conv plans fill their patch scratch by one of two strategies, chosen
per layer from the output width: rows at least :data:`STRIDED_MIN_OW`
wide copy windows out of strided views of the source in two stages
(unfold the rows, then copy every (kh, kw) block, one contiguous
``OH·OW`` run at vertical stride 1); narrower rows replay a flat index
map (:func:`~repro.nn.functional.im2col_index_map`) with ``take``,
whose per-element cost wins over a copy loop with so short an inner
run.  Max-pool plans fold ``np.maximum`` over window views of their
source, rows first, with no gather at all.

A conv(+bias+activation) followed by a max-pool that needs no padding
becomes one bound *stage*: the pool reads the GEMM output in place and,
when every bias is finite and the activation is ReLU or none, bias and
activation run on the pooled tensor.  That is exact: round-to-nearest
``x + b`` and ReLU are both monotone, so they commute with ``max``.

Replay is **bit-identical** to the unplanned kernels: every gather
moves the same values into the same logical order, the GEMMs see the
same 2-D operands, max is exact and associative, and softmax runs the
oracle's ufunc sequence.  Average pooling is the one windowed kernel
whose accumulation order *would* change under a gathered copy (``mean``
pairs partial sums differently on contiguous data than on a strided
view), so avg-pool plans replay the stride-trick kernel unchanged.

The engine memoizes its :class:`CompiledPass` per (weight generation,
input shape, dtype) and compiles a new one, every layer afresh, when
any of them changes; :meth:`~repro.frontend.weights.WeightStore.set`
bumps the generation, so a stale plan is never replayed.  There is no
second, per-layer cache: every fleet slot unpacks its own weight store,
so plans could only ever be shared between engines over one store.
:data:`LEDGER` counts layers compiled (misses) and layers replayed by
warm passes (hits); the ``condor_plan_cache_{hits,misses}_total``
series read it at collect time.

Plans hold no mutable state, so engines on different threads may share
one pass.  Arenas and the bindings over them are per thread.  A buffer
lives while some binding views it: an arena holds its buffers weakly,
and a :class:`CompiledPass` holds its bindings, so both go with the
last engine that used them.
"""

from __future__ import annotations

import threading
import time
import weakref
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import ShapeError
from repro.ir.layers import (
    Activation,
    ActivationLayer,
    ConvLayer,
    FlattenLayer,
    FullyConnectedLayer,
    InputLayer,
    Layer,
    PoolLayer,
    PoolOp,
    SoftmaxLayer,
)
from repro.ir.shapes import TensorShape
from repro.nn import functional as F
from repro.nn.blas import blas_threads
from repro.obs import REGISTRY, span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.frontend.weights import WeightStore

__all__ = [
    "ACTIVATIONS",
    "ARENA_ROWS",
    "Arena",
    "CompiledPass",
    "ExecutionPlan",
    "LEDGER",
    "PlanLedger",
    "compile_pass",
    "compile_plan",
    "default_plan_cache",
]

#: Output width from which conv plans copy windows in two stages
#: instead of gathering them by an index map (measured crossover on the
#: zoo's layers; the strategies fill the scratch with identical values).
STRIDED_MIN_OW = 8

#: Rows every arena buffer holds: the largest batch one binding covers
#: (the benchmarks' batch of 32; serving batches are at most 8).
#: Larger batches run in chunks of this many rows.  Serving touches
#: only the first rows of each buffer, so only those stay in cache.
ARENA_ROWS = 32

#: Point-wise activation kernels, shared by the plans and the oracle.
ACTIVATIONS = {
    Activation.RELU: F.relu,
    Activation.SIGMOID: F.sigmoid,
    Activation.TANH: F.tanh,
}

PLAN_HITS = REGISTRY.counter(
    "condor_plan_cache_hits_total",
    "Layers replayed by warm compiled passes (no compile)")
PLAN_MISSES = REGISTRY.counter(
    "condor_plan_cache_misses_total",
    "Layers compiled into execution plans")
PLAN_COMPILES = REGISTRY.counter(
    "condor_plan_compiles_total",
    "Execution plans compiled, by layer kind")
PLAN_COMPILE_SECONDS = REGISTRY.summary(
    "condor_plan_compile_seconds",
    "Wall seconds spent compiling execution plans")

#: A bound step: one numpy call whose operands were fixed at bind time.
Step = Callable[[], object]


def _activation_steps(kind: Activation, buf: np.ndarray) -> list[Step]:
    """Bound activation, in place on ``buf``."""
    if kind is Activation.RELU:
        return [partial(np.maximum, buf, 0.0, out=buf)]
    if kind is Activation.TANH:
        return [partial(np.tanh, buf, out=buf)]
    if kind is Activation.SIGMOID:
        return [partial(_into, buf, F.sigmoid, buf)]
    return []


def _into(out: np.ndarray, fn: Callable[[np.ndarray], np.ndarray],
          src: np.ndarray) -> None:
    """Run an allocating kernel and copy its result into scratch."""
    np.copyto(out, fn(src))


def _interior(buf: np.ndarray, pad: tuple[int, int],
              hw: tuple[int, int]) -> np.ndarray:
    """The unpadded ``(H, W)`` window of a padded ``(N, C, HP, WP)``
    staging buffer."""
    (ph, pw), (h, w) = pad, hw
    return buf[:, :, ph:ph + h, pw:pw + w]


# -- scratch ------------------------------------------------------------------


class Arena:
    """Scratch for one thread: a buffer of ``rows`` rows per role.

    :meth:`take` returns the first ``n`` rows of the buffer of
    ``(owner, tag)``, allocating it on first use — zeroed or filled
    with ``fill`` when the caller relies on a constant border.  Buffers
    are held weakly, each living while some binding views it.
    """

    def __init__(self, rows: int = ARENA_ROWS):
        self.rows = rows
        self._buffers: "weakref.WeakValueDictionary[tuple, np.ndarray]" \
            = weakref.WeakValueDictionary()

    def take(self, owner: tuple, tag: str, n: int,
             shape: tuple[int, ...], dtype: np.dtype,
             fill: float | None = None) -> np.ndarray:
        if not 1 <= n <= self.rows:
            raise ShapeError(f"an arena of {self.rows} rows cannot bind"
                             f" {n}")
        dtype = np.dtype(dtype)
        key = (owner, tag, tuple(shape), dtype.str, fill)
        buf = self._buffers.get(key)
        if buf is None:
            # np.zeros maps fresh zero pages, so untouched rows cost no
            # memory; np.full writes every row
            full = (self.rows,) + tuple(shape)
            buf = np.empty(full, dtype) if fill is None \
                else np.zeros(full, dtype) if fill == 0 \
                else np.full(full, fill, dtype)
            self._buffers[key] = buf
        return buf[:n]


_ARENAS = threading.local()


def _thread_arena() -> Arena:
    arena = getattr(_ARENAS, "arena", None)
    if arena is None:
        arena = _ARENAS.arena = Arena()
    return arena


# -- plan objects -------------------------------------------------------------


class ExecutionPlan:
    """One compiled layer: precomputed, immutable geometry.

    :meth:`bind` takes scratch from an :class:`Arena` for a
    C-contiguous ``(N, *in_shape)`` source buffer of ``dtype`` and
    returns ``(steps, out)``: the numpy calls that compute the layer
    from whatever the source holds when they run, and the C-contiguous
    array they leave the result in (plan scratch, or a view of the
    source).  ``out_shape`` and ``out_dtype`` describe one sample of
    that result.  ``role`` keys the plan's arena buffers: plans with
    the same layer config, input shape and dtype (the same layer of two
    engines) share them.
    """

    kind = "plan"

    def __init__(self, layer: Layer, in_shape: tuple[int, ...],
                 dtype: np.dtype, out_shape: tuple[int, ...],
                 steps: tuple[str, ...], out_dtype: np.dtype | None = None):
        self.layer_name = layer.name
        self.in_shape = in_shape
        self.dtype = dtype
        self.out_shape = out_shape
        self.out_dtype = dtype if out_dtype is None else np.dtype(out_dtype)
        self.steps = steps
        self.role = (layer, in_shape, np.dtype(dtype).str)

    def _check(self, src: np.ndarray) -> None:
        """Reject a source the bound steps would misread: a reshape of
        a non-contiguous buffer copies it once, at bind time, and a
        dtype mismatch casts silently on every pass."""
        if src.shape[1:] != self.in_shape:
            raise ShapeError(
                f"plan for layer {self.layer_name!r} expects input shape"
                f" {self.in_shape}, got {src.shape[1:]}")
        if src.dtype != self.dtype or not src.flags.c_contiguous:
            raise ShapeError(
                f"plan for layer {self.layer_name!r} binds a C-contiguous"
                f" {self.dtype} source, got a"
                f"{'' if src.flags.c_contiguous else ' non-contiguous'}"
                f" {src.dtype} one")

    def bind(self, n: int, src: np.ndarray, arena: Arena | None = None) \
            -> tuple[list[Step], np.ndarray]:
        """Bind for ``n`` rows of ``src`` on ``arena`` (``None``: on
        private scratch sized for ``n``)."""
        raise NotImplementedError

    def _take(self, arena: Arena | None, tag: str, n: int,
              shape: tuple[int, ...], dtype: np.dtype,
              fill: float | None = None) -> np.ndarray:
        if arena is None:
            arena = Arena(rows=n)
        return arena.take(self.role, tag, n, shape, dtype, fill)

    def run_batch(self, xb: np.ndarray) -> np.ndarray:
        """Bind to ``xb`` and run once (a convenience for tests; the
        engine binds a whole :class:`CompiledPass` once and replays)."""
        xb = np.ascontiguousarray(xb, self.dtype)
        steps, out = self.bind(xb.shape[0], xb)
        for step in steps:
            step()
        return out

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.layer_name!r},"
                f" in={self.in_shape}, steps={'+'.join(self.steps)})")


class _InputPlan(ExecutionPlan):
    """Shape validation only — the declared network input."""

    kind = "input"

    def __init__(self, layer: InputLayer, in_shape, dtype):
        declared = tuple(layer.shape.as_tuple())
        if tuple(in_shape) != declared:
            raise ShapeError(
                f"input shape {tuple(in_shape)} does not match declared"
                f" {declared}")
        super().__init__(layer, declared, dtype, declared, ("check",))

    def bind(self, n, src, arena=None):
        self._check(src)
        return [], src


class _ConvPlan(ExecutionPlan):
    """im2col gather + packed-weight GEMM with fused bias and activation.

    ``bind(n, src, arena, pool)`` binds a conv→max-pool stage: the pool reads
    the GEMM output in place, and a finite bias and ReLU (or no
    activation) move after it.
    """

    kind = "conv"

    def __init__(self, layer: ConvLayer, in_shape, dtype,
                 weights: np.ndarray, bias: np.ndarray | None):
        c, h, w = in_shape
        f = weights.shape[0]
        kh, kw = layer.kernel
        ph, pw = layer.pad
        hp, wp = h + 2 * ph, w + 2 * pw
        oh = (hp - kh) // layer.stride[0] + 1
        ow = (wp - kw) // layer.stride[1] + 1
        out_dtype = np.result_type(dtype, weights.dtype)

        self._kernel, self._stride, self._pad = \
            layer.kernel, layer.stride, layer.pad
        self._cols_shape = (c * kh * kw, oh * ow)
        self._index_map = None if ow >= STRIDED_MIN_OW else \
            F.im2col_index_map(in_shape, layer.kernel, layer.stride,
                               layer.pad)
        self._packed = np.ascontiguousarray(
            weights.reshape(f, -1).astype(out_dtype, copy=False))
        self._bias_col = None if bias is None else \
            np.ascontiguousarray(bias[:, None].astype(out_dtype,
                                                      copy=False))
        self._activation = layer.activation
        #: bias and activation commute with max (see the module doc)
        self._commutes_with_max = \
            self._activation in (Activation.NONE, Activation.RELU) and \
            (bias is None or bool(np.isfinite(self._bias_col).all()))
        self._padded_shape = (c, hp, wp)
        steps = ["pad"] if (ph, pw) != (0, 0) else []
        steps += ["gather"] if self._index_map is not None \
            else ["unfold", "copy"]
        steps.append("gemm")
        if self._bias_col is not None:
            steps.append("bias")
        if self._activation is not Activation.NONE:
            steps.append(self._activation.value)
        super().__init__(layer, tuple(in_shape), dtype, (f, oh, ow),
                         tuple(steps), out_dtype)

    def _bind_cols(self, n: int, src: np.ndarray, arena: Arena | None) \
            -> tuple[list[Step], np.ndarray]:
        """Steps that fill the ``(N, C·KH·KW, OH·OW)`` patch scratch."""
        steps: list[Step] = []
        if self._pad != (0, 0):
            padded = self._take(arena, "pad", n, self._padded_shape,
                                self.dtype, fill=0.0)
            steps.append(partial(np.copyto,
                                 _interior(padded, self._pad,
                                           self.in_shape[1:]), src))
            src = padded
        cols = self._take(arena, "cols", n, self._cols_shape, self.dtype)
        if self._index_map is not None:
            steps.append(partial(src.reshape(n, -1).take, self._index_map,
                                 1, cols))
            return steps, cols
        # two stages: first unfold rows[n, c, j, h, x] = src[n, c, h,
        # j + sw·x], then copy every (i, j) block of cols out of
        # rows[n, c, j, i + sh·y, x] — one contiguous OH·OW run at sh = 1
        (c, hp, _), (kh, kw), (sh, sw) = \
            self._padded_shape, self._kernel, self._stride
        _, oh, ow = self.out_shape
        sn, sc, srow, scol = src.strides
        rows = self._take(arena, "rows", n, (c, kw, hp, ow), self.dtype)
        steps.append(partial(np.copyto, rows, as_strided(
            src, rows.shape, (sn, sc, scol, srow, scol * sw),
            writeable=False)))
        rn, rc, rj, rh, rx = rows.strides
        steps.append(partial(
            np.copyto, cols.reshape(n, c, kh, kw, oh, ow),
            as_strided(rows, (n, c, kh, kw, oh, ow),
                       (rn, rc, rh, rj, rh * sh, rx), writeable=False)))
        return steps, cols

    def _epilogue(self, buf: np.ndarray) -> list[Step]:
        """Bias and activation, in place on an ``(N, F, ...)`` buffer."""
        steps: list[Step] = []
        if self._bias_col is not None:
            steps.append(partial(np.add, buf, self._bias_col, out=buf))
        return steps + _activation_steps(self._activation, buf)

    def bind(self, n, src, arena=None, pool: "_MaxPoolPlan | None" = None):
        self._check(src)
        steps, cols = self._bind_cols(n, src, arena)
        f = self.out_shape[0]
        out = self._take(arena, "out", n, (f, self._cols_shape[1]),
                         self.out_dtype)
        steps.append(partial(np.matmul, self._packed, cols, out=out))
        late = pool is not None and self._commutes_with_max
        if not late:
            steps += self._epilogue(out)
        out = out.reshape((n,) + self.out_shape)
        if pool is None:
            return steps, out
        pool_steps, pooled = pool.bind(n, out, arena)
        steps += pool_steps
        if late:
            steps += self._epilogue(pooled.reshape(n, f, -1))
        return steps, pooled


class _MaxPoolPlan(ExecutionPlan):
    """Separable, (kh, kw)-ordered ``np.maximum`` fold over window views.

    Rows first: ``rows[.., h, x] = max_j src[.., h, x·sw + j]``, then
    ``out[.., y, x] = max_i rows[.., y·sh + i, x]``.  That is the
    oracle's window maximum in the same element order, only associated
    differently, and ``np.maximum`` (first NaN wins, else the later of
    two equal values) is associative, so the result is bit-identical.
    """

    kind = "max-pool"

    def __init__(self, layer: PoolLayer, in_shape, dtype):
        c, h, w = in_shape
        stride = layer.stride
        assert stride is not None
        ph, pw, eh, ew = F.pool_pad_amounts((h, w), layer.kernel, stride,
                                            layer.pad, layer.ceil_mode)
        hp, wp = h + 2 * ph + eh, w + 2 * pw + ew
        self._padded_shape = (c, hp, wp)
        self._pad = (ph, pw)
        #: reads its source in place: no padding, no ceil extension
        self.unpadded = (hp, wp) == (h, w)
        kh, kw = layer.kernel
        if kh > hp or kw > wp:
            raise ShapeError(f"window {layer.kernel} does not fit input"
                             f" of shape {self._padded_shape}")
        oh = (hp - kh) // stride[0] + 1
        ow = (wp - kw) // stride[1] + 1
        self._kernel, self._stride = layer.kernel, stride
        steps = [] if self.unpadded else ["pad"]
        super().__init__(layer, tuple(in_shape), np.dtype(dtype),
                         (c, oh, ow), tuple(steps + ["max-w", "max-h"]))

    def bind(self, n, src, arena=None):
        self._check(src)
        steps: list[Step] = []
        if not self.unpadded:
            padded = self._take(arena, "pad", n, self._padded_shape,
                                self.dtype, fill=-np.inf)
            steps.append(partial(np.copyto,
                                 _interior(padded, self._pad,
                                           self.in_shape[1:]), src))
            src = padded
        (kh, kw), (sh, sw) = self._kernel, self._stride
        c, oh, ow = self.out_shape
        # only the rows some window reads
        src = src[:, :, :(oh - 1) * sh + kh]
        cols = [src[:, :, :, j::sw][..., :ow] for j in range(kw)]
        if kw == 1:
            rows = cols[0]
        else:
            rows = self._take(arena, "rows", n, (c, src.shape[2], ow),
                              self.dtype)
            steps += _max_fold(cols, rows)
        out = self._take(arena, "out", n, self.out_shape, self.dtype)
        steps += _max_fold(
            [rows[:, :, i::sh][:, :, :oh] for i in range(kh)], out)
        return steps, out


def _max_fold(views: list[np.ndarray], out: np.ndarray) -> list[Step]:
    """Bound left fold of ``np.maximum`` over ``views`` into ``out``."""
    if len(views) == 1:
        return [partial(np.copyto, out, views[0])]
    return [partial(np.maximum, views[0], views[1], out=out)] + \
        [partial(np.maximum, out, view, out=out) for view in views[2:]]


class _FCPlan(ExecutionPlan):
    """Bound-weight GEMV with fused bias and activation."""

    kind = "fc"

    def __init__(self, layer: FullyConnectedLayer, in_shape, dtype,
                 weights: np.ndarray, bias: np.ndarray | None):
        k = int(np.prod(in_shape))
        if weights.shape[1] != k:
            raise ShapeError(
                f"fc weights must be (N, {k}), got {weights.shape}")
        out_dtype = np.result_type(dtype, weights.dtype)
        self._weights = np.ascontiguousarray(
            weights.astype(out_dtype, copy=False))
        self._bias = None if bias is None else \
            np.ascontiguousarray(bias.astype(out_dtype, copy=False))
        self._activation = layer.activation
        steps = ["gemv"]
        if self._bias is not None:
            steps.append("bias")
        if self._activation is not Activation.NONE:
            steps.append(self._activation.value)
        super().__init__(layer, tuple(in_shape), np.dtype(dtype),
                         (weights.shape[0], 1, 1), tuple(steps), out_dtype)

    def bind(self, n, src, arena=None):
        self._check(src)
        out = self._take(arena, "out", n, self.out_shape, self.out_dtype)
        steps: list[Step] = [partial(
            np.matmul, self._weights, src.reshape(n, -1)[:, :, None],
            out=out.reshape(n, -1, 1))]
        flat = out.reshape(n, -1)
        if self._bias is not None:
            steps.append(partial(np.add, flat, self._bias, out=flat))
        return steps + _activation_steps(self._activation, flat), out


class _FlattenPlan(ExecutionPlan):
    """Pure reshape — a view of the producer's output."""

    kind = "flatten"

    def __init__(self, layer: FlattenLayer, in_shape, dtype):
        super().__init__(layer, tuple(in_shape), np.dtype(dtype),
                         (int(np.prod(in_shape)), 1, 1), ("reshape",))

    def bind(self, n, src, arena=None):
        self._check(src)
        return [], src.reshape((n,) + self.out_shape)


class _SoftmaxPlan(ExecutionPlan):
    """(Log-)softmax into scratch, with the ufunc sequence of
    :func:`~repro.nn.functional.softmax` /
    :func:`~repro.nn.functional.log_softmax`."""

    kind = "softmax"

    def __init__(self, layer: SoftmaxLayer, in_shape, dtype):
        self._log = layer.log
        steps = ("max", "sub", "exp", "sum", "log", "sub") if layer.log \
            else ("max", "sub", "exp", "sum", "div")
        super().__init__(layer, tuple(in_shape), np.dtype(dtype),
                         tuple(in_shape), steps)

    def bind(self, n, src, arena=None):
        self._check(src)
        flat = src.reshape(n, -1)
        out = self._take(arena, "out", n, self.out_shape, self.dtype)
        shifted = out.reshape(n, -1)
        peak = self._take(arena, "peak", n, (1,), self.dtype)
        total = self._take(arena, "total", n, (1,), self.dtype)
        steps: list[Step] = [
            partial(np.maximum.reduce, flat, 1, None, peak, True),
            partial(np.subtract, flat, peak, out=shifted),
        ]
        if self._log:
            ex = self._take(arena, "exp", n, shifted.shape[1:],
                            self.dtype)
            steps += [partial(np.exp, shifted, out=ex),
                      partial(np.add.reduce, ex, 1, None, total, True),
                      partial(np.log, total, out=total),
                      partial(np.subtract, shifted, total, out=shifted)]
        else:
            steps += [partial(np.exp, shifted, out=shifted),
                      partial(np.add.reduce, shifted, 1, None, total,
                              True),
                      partial(np.divide, shifted, total, out=shifted)]
        return steps, out


class _OraclePlan(ExecutionPlan):
    """Replays an unplanned kernel, copying its result into scratch.

    Used where precomputation cannot help (standalone activations) or
    would break bit-identity (avg pooling: ``mean`` over a gathered
    contiguous copy pairs partial sums differently than over the strided
    window view).
    """

    kind = "oracle"

    def __init__(self, layer: Layer, in_shape, dtype, step: str,
                 fn: Callable[[np.ndarray], np.ndarray],
                 out_dtype: np.dtype | None = None):
        super().__init__(
            layer, tuple(in_shape), np.dtype(dtype),
            layer.output_shape(TensorShape(*in_shape)).as_tuple(),
            (step,), out_dtype)
        self._fn = fn

    def bind(self, n, src, arena=None):
        self._check(src)
        out = self._take(arena, "out", n, self.out_shape, self.out_dtype)
        return [partial(_into, out, self._fn, src)], out


# -- compilation --------------------------------------------------------------

def _compile(layer: Layer, in_shape: tuple[int, ...], dtype: np.dtype,
             weights: "WeightStore") -> ExecutionPlan:
    if isinstance(layer, InputLayer):
        return _InputPlan(layer, in_shape, dtype)
    if isinstance(layer, ConvLayer):
        return _ConvPlan(
            layer, in_shape, dtype,
            weights.get(layer.name, "weights"),
            weights.get(layer.name, "bias") if layer.bias else None)
    if isinstance(layer, PoolLayer):
        assert layer.stride is not None
        if layer.op is PoolOp.MAX:
            return _MaxPoolPlan(layer, in_shape, dtype)
        kernel, stride, pad = layer.kernel, layer.stride, layer.pad
        ceil = layer.ceil_mode
        return _OraclePlan(
            layer, in_shape, dtype, "oracle-avg-pool",
            lambda xb: F.avg_pool2d(xb, kernel, stride, pad,
                                    ceil_mode=ceil))
    if isinstance(layer, ActivationLayer):
        # F.sigmoid computes in at least float32
        return _OraclePlan(
            layer, in_shape, dtype, layer.kind.value,
            ACTIVATIONS[layer.kind],
            np.result_type(dtype, np.float32)
            if layer.kind is Activation.SIGMOID else dtype)
    if isinstance(layer, FlattenLayer):
        return _FlattenPlan(layer, in_shape, dtype)
    if isinstance(layer, FullyConnectedLayer):
        return _FCPlan(
            layer, in_shape, dtype,
            weights.get(layer.name, "weights"),
            weights.get(layer.name, "bias") if layer.bias else None)
    if isinstance(layer, SoftmaxLayer):
        return _SoftmaxPlan(layer, in_shape, dtype)
    raise TypeError(f"unknown layer type {type(layer).__name__}")


def compile_plan(layer: Layer, in_shape: tuple[int, ...],
                 weights: "WeightStore",
                 dtype: np.dtype | type = np.float32) -> ExecutionPlan:
    """Compile one layer for one (input shape, floating dtype)
    configuration."""
    dtype = np.dtype(dtype)
    if not np.issubdtype(dtype, np.floating):
        raise TypeError(f"plans compile floating dtypes only, got {dtype}")
    blas_threads()
    start = time.perf_counter()
    with span("plan.compile", layer=layer.name, kind=layer.type_name):
        plan = _compile(layer, tuple(in_shape), dtype, weights)
    PLAN_COMPILE_SECONDS.observe(time.perf_counter() - start)
    PLAN_COMPILES.inc(kind=plan.kind)
    LEDGER.record_miss()
    return plan


# -- the compiled pass --------------------------------------------------------


class _BoundPass:
    """One (thread, batch size) binding of a :class:`CompiledPass`."""

    __slots__ = ("input", "stages", "steps", "output")

    def __init__(self, input: np.ndarray, stages: list[list[Step]],
                 output: np.ndarray):
        self.input = input
        self.stages = stages
        self.steps = [step for stage in stages for step in stage]
        self.output = output


class CompiledPass:
    """A whole network compiled for one (input shape, dtype).

    Groups the layer plans into stages — a conv followed by a max-pool
    that reads it in place fuses into one, named ``conv+pool`` — and
    binds every stage once per (thread, batch size) on the thread's
    :class:`Arena`: at most :data:`ARENA_ROWS` bindings per thread,
    all over the same buffers.
    """

    def __init__(self, plans: Sequence[ExecutionPlan]):
        self.plans = tuple(plans)
        self.in_shape = self.plans[0].in_shape
        self.dtype = self.plans[0].dtype
        self.out_shape = self.plans[-1].out_shape
        self.out_dtype = self.plans[-1].out_dtype
        stages: list[tuple[ExecutionPlan, ...]] = []
        rest = list(self.plans)
        while rest:
            plan = rest.pop(0)
            if isinstance(plan, _ConvPlan) and rest \
                    and isinstance(rest[0], _MaxPoolPlan) \
                    and rest[0].unpadded:
                stages.append((plan, rest.pop(0)))
            else:
                stages.append((plan,))
        self._stages = tuple(stages)
        #: span names of the stages, e.g. ``("data", "conv1+pool1", ...)``
        self.stage_names = tuple("+".join(p.layer_name for p in stage)
                                 for stage in stages)
        self._tls = threading.local()

    def _bind(self, n: int) -> _BoundPass:
        arena = _thread_arena()
        x = inp = arena.take(("input", self.in_shape, self.dtype.str),
                             "x", n, self.in_shape, self.dtype)
        stages = []
        for plan, *fused in self._stages:
            steps, x = plan.bind(n, x, arena, *fused)
            stages.append(steps)
        return _BoundPass(inp, stages, x)

    def _bound(self, n: int) -> _BoundPass:
        bindings = getattr(self._tls, "bindings", None)
        if bindings is None:
            bindings = self._tls.bindings = {}
        bound = bindings.get(n)
        if bound is None:
            bound = bindings[n] = self._bind(n)
        return bound

    def run(self, xb: np.ndarray, traced: bool = False) -> np.ndarray:
        """Run an ``(N, *in_shape)`` batch, in chunks of
        :data:`ARENA_ROWS` rows; returns a fresh array.

        ``traced`` runs stage by stage, each under an ``engine.layer``
        span named after its layers.
        """
        n = xb.shape[0]
        if n <= ARENA_ROWS:
            return self._replay(xb, traced).copy()
        out = self._result(n)
        for start in range(0, n, ARENA_ROWS):
            np.copyto(out[start:start + ARENA_ROWS],
                      self._replay(xb[start:start + ARENA_ROWS], traced))
        return out

    def _replay(self, xb: np.ndarray, traced: bool) -> np.ndarray:
        """Run at most :data:`ARENA_ROWS` rows on their binding; returns
        the bound output, which the thread's next pass overwrites."""
        bound = self._bound(xb.shape[0])
        np.copyto(bound.input, xb)
        if traced:
            for name, stage in zip(self.stage_names, bound.stages):
                with span("engine.layer", layer=name):
                    for step in stage:
                        step()
        else:
            for step in bound.steps:
                step()
        return bound.output

    def _result(self, n: int) -> np.ndarray:
        """The ``(n, *out_shape)`` array a chunked pass fills and
        returns."""
        return np.empty((n,) + self.out_shape, self.out_dtype)


def compile_pass(layers: Sequence[Layer], in_shape: tuple[int, ...],
                 dtype: np.dtype, store: "WeightStore") -> CompiledPass:
    """Compile every layer's plan, each on its producer's output shape
    and dtype, and group them into a :class:`CompiledPass`."""
    plans = []
    for layer in layers:
        plan = compile_plan(layer, in_shape, store, dtype)
        plans.append(plan)
        in_shape, dtype = plan.out_shape, plan.out_dtype
    return CompiledPass(plans)


# -- the ledger ---------------------------------------------------------------


class PlanLedger:
    """Process-wide plan counts: ``misses`` (layers compiled) and
    ``hits`` (layers replayed by warm passes, which the engine reports
    one call per pass)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {"hits": 0, "misses": 0}

    def record_hit(self, count: int) -> None:
        with self._lock:
            self._counts["hits"] += count

    def record_miss(self) -> None:
        with self._lock:
            self._counts["misses"] += 1

    def stats(self) -> dict:
        with self._lock:
            return dict(self._counts)


LEDGER = PlanLedger()
PLAN_HITS.add_source(lambda: {(): LEDGER.stats()["hits"]})
PLAN_MISSES.add_source(lambda: {(): LEDGER.stats()["misses"]})


def default_plan_cache() -> PlanLedger:
    """The process-wide :data:`LEDGER`, which the
    ``condor_plan_cache_*`` series read."""
    return LEDGER
