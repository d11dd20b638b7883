"""Shape-specialized execution plans for the reference engine.

Steady-state serving (the AFI's whole reason to exist) runs the *same*
layer shapes millions of times, yet the stride-trick kernels in
:mod:`repro.nn.functional` re-derive im2col geometry, padding and weight
layout on every call.  Following the sejits_caffe idea — lazily
specialize each kernel per (shape, dtype) configuration and cache the
compiled result — this module compiles each layer once into an
:class:`ExecutionPlan`:

* a window gather, by one of two strategies chosen per layer from its
  output width: rows at least :data:`STRIDED_MIN_OW` wide stage the
  input in the padded scratch and fill the patch scratch with one
  ``np.copyto`` from a window view
  (:func:`~repro.nn.functional.sliding_windows`) built once over it;
  narrower rows replay a flat index map
  (:func:`~repro.nn.functional.im2col_index_map` /
  :func:`~repro.nn.functional.pool_index_map`) with ``take``, whose
  per-element cost wins over a copy loop with so short an inner run;
* pre-packed weight matrices and pre-broadcast bias columns;
* pre-allocated padded-input / patch-matrix / output scratch buffers,
  kept per batch size;
* a fused conv+bias+ReLU step list replayed with in-place kernels.

Replay is **bit-identical** to the unplanned kernels: both gather
strategies move the same values into the same logical order, the GEMMs
see the same 2-D operands, and max is an exact (order-independent)
reduction.  Average
pooling is the one windowed kernel whose accumulation order *would*
change under a gathered copy (``mean`` pairs partial sums differently on
contiguous data than on a strided view), so avg-pool plans replay the
stride-trick kernel unchanged.

:class:`PlanCache` is a bounded LRU keyed by (weight-store token,
per-layer weight version, layer config, input shape, dtype).  Mutating a
layer's blobs through :meth:`~repro.frontend.weights.WeightStore.set`
bumps its version, so stale plans can never be replayed; they age out of
the LRU.  The ``condor_plan_cache_*`` series read its counts at collect
time.

Plans are safe to replay from multiple threads at once: the compiled
geometry (index maps, packed weights, bias columns) is immutable and
shared, while the mutable scratch buffers live in per-thread storage
(:class:`_BatchScratch`), allocated lazily on each thread's first replay.
Engines on different threads may therefore share one :class:`PlanCache`
— including the process-wide :func:`default_plan_cache` — at the cost
of one scratch set per (plan, thread, batch size).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

import numpy as np

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
from repro.nn import functional as F
from repro.obs import REGISTRY, span
from repro.util.sync import new_lock, new_rlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.frontend.weights import WeightStore

__all__ = [
    "ACTIVATIONS",
    "ExecutionPlan",
    "PlanCache",
    "compile_plan",
    "default_plan_cache",
]

DEFAULT_CAPACITY = 256

#: Output width from which conv and max-pool plans gather windows by a
#: strided copy instead of an index map (measured crossover on the zoo's
#: layers; the two strategies fill the scratch with identical values).
STRIDED_MIN_OW = 8

#: Distinct batch sizes a plan keeps scratch for (serving traffic runs a
#: few stable batch sizes; anything beyond rotates out LRU-style).
MAX_BATCH_VARIANTS = 4

#: Point-wise activation kernels, shared by the plans and the oracle.
ACTIVATIONS = {
    Activation.RELU: F.relu,
    Activation.SIGMOID: F.sigmoid,
    Activation.TANH: F.tanh,
}

PLAN_HITS = REGISTRY.counter(
    "condor_plan_cache_hits_total",
    "Execution-plan cache hits (plan replayed without recompiling)")
PLAN_MISSES = REGISTRY.counter(
    "condor_plan_cache_misses_total",
    "Execution-plan cache misses (a plan had to be compiled)")
PLAN_COMPILES = REGISTRY.counter(
    "condor_plan_compiles_total",
    "Execution plans compiled, by layer kind")
PLAN_EVICTIONS = REGISTRY.counter(
    "condor_plan_cache_evictions_total",
    "Execution plans evicted by the LRU capacity bound")
PLAN_INVALIDATIONS = REGISTRY.counter(
    "condor_plan_cache_invalidations_total",
    "Execution plans dropped by explicit invalidation")
PLAN_ENTRIES = REGISTRY.gauge(
    "condor_plan_cache_entries",
    "Execution plans currently cached (all caches in the process)")
PLAN_COMPILE_SECONDS = REGISTRY.histogram(
    "condor_plan_compile_seconds",
    "Wall seconds spent compiling execution plans")


def _activate(kind: Activation, out: np.ndarray) -> None:
    """Fused activation, in place on a plan's output scratch."""
    if kind is Activation.RELU:
        np.maximum(out, 0.0, out=out)
    elif kind is not Activation.NONE:
        out[...] = ACTIVATIONS[kind](out)


# -- plan objects -------------------------------------------------------------


class ExecutionPlan:
    """One compiled layer: precomputed geometry + scratch + replay steps.

    ``run_batch`` takes an ``(N, *in_shape)`` batch and may return an
    array aliasing plan-owned scratch (``returns_scratch``); the engine
    copies the final network output before handing it to callers.
    """

    kind = "plan"
    returns_scratch = False

    def __init__(self, layer: Layer, in_shape: tuple[int, ...],
                 dtype: np.dtype, steps: tuple[str, ...]):
        self.layer_name = layer.name
        self.in_shape = in_shape
        self.dtype = dtype
        self.steps = steps

    def _check(self, shape: tuple[int, ...]) -> None:
        if shape[1:] != self.in_shape:
            raise ShapeError(
                f"plan for layer {self.layer_name!r} expects input shape"
                f" {self.in_shape}, got {shape[1:]}")

    def run_batch(self, xb: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.layer_name!r},"
                f" in={self.in_shape}, steps={'+'.join(self.steps)})")


class _InputPlan(ExecutionPlan):
    """Shape validation only — the declared network input."""

    kind = "input"

    def __init__(self, layer: InputLayer, in_shape, dtype):
        super().__init__(layer, tuple(layer.shape.as_tuple()), dtype,
                         ("check",))

    def run_batch(self, xb):
        self._check(tuple(xb.shape))
        return xb


class _BatchScratch:
    """Per-thread, per-batch-size scratch buffers.

    Replay scratch is write-hot, so a plan shared through a
    :class:`PlanCache` gives every replaying thread its own buffers
    (thread-local, so the LRU bookkeeping needs no lock), and each
    thread keeps them for at most :data:`MAX_BATCH_VARIANTS` batch sizes.
    Everything else on a plan is immutable after compilation.
    """

    __slots__ = ("_make", "_tls")

    def __init__(self, make: Callable[[int], tuple]):
        self._make = make
        self._tls = threading.local()

    def get(self, n: int) -> tuple:
        variants = getattr(self._tls, "variants", None)
        if variants is None:
            variants = self._tls.variants = OrderedDict()
        bufs = variants.get(n)
        if bufs is None:
            bufs = variants[n] = self._make(n)
            while len(variants) > MAX_BATCH_VARIANTS:
                variants.popitem(last=False)
        else:
            variants.move_to_end(n)
        return bufs


class _ConvPlan(ExecutionPlan):
    """im2col gather + packed-weight GEMM with fused bias and activation."""

    kind = "conv"
    returns_scratch = True

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

        self._kernel, self._stride = layer.kernel, layer.stride
        self._cols_shape = (c * kh * kw, oh * ow)
        self._cols6_shape = (c, kh, kw, oh, ow)
        self._index_map = None if ow >= STRIDED_MIN_OW else \
            F.im2col_index_map(in_shape, layer.kernel, layer.stride,
                               layer.pad)
        self._packed = np.ascontiguousarray(
            weights.reshape(f, -1).astype(out_dtype, copy=False))
        self._bias_col = None if bias is None else \
            np.ascontiguousarray(bias[:, None].astype(out_dtype,
                                                      copy=False))
        self._activation = layer.activation
        self._padded_shape = (c, hp, wp)
        padded = (ph, pw) != (0, 0)
        # the strided copy reads a window view precomputed over the
        # padded buffer, so it stages unpadded inputs there too
        self._needs_pad = padded or self._index_map is None
        if self._needs_pad:
            self._interior = (slice(None), slice(None), slice(ph, ph + h),
                              slice(pw, pw + w))
        self._out_shape = (f, oh * ow)
        self._out3_shape = (f, oh, ow)
        self._out_dtype = out_dtype
        self._scratch = _BatchScratch(self._make_scratch)
        steps = ["pad"] if padded else \
            ["stage"] if self._needs_pad else []
        steps += ["gather" if self._index_map is not None else "copy",
                  "gemm"]
        if self._bias_col is not None:
            steps.append("bias")
        if self._activation is not Activation.NONE:
            steps.append(self._activation.value)
        super().__init__(layer, tuple(in_shape), dtype, tuple(steps))

    def _make_scratch(self, n: int) -> tuple:
        pad_buf = windows = None
        if self._needs_pad:
            pad_buf = np.zeros((n,) + self._padded_shape, self.dtype)
            if self._index_map is None:
                # (N, C, KH, KW, OH, OW): the layout of ``cols``
                windows = F.sliding_windows(
                    pad_buf, self._kernel, self._stride) \
                    .transpose(0, 1, 4, 5, 2, 3)
        cols = np.empty((n,) + self._cols_shape, self.dtype)
        out = np.empty((n,) + self._out_shape, self._out_dtype)
        return (pad_buf, windows, cols,
                cols.reshape((n,) + self._cols6_shape), out,
                out.reshape((n,) + self._out3_shape))

    def run_batch(self, xb):
        self._check(tuple(xb.shape))
        n = xb.shape[0]
        pad_buf, windows, cols, cols6, out, out4d = self._scratch.get(n)
        src = xb
        if pad_buf is not None:
            pad_buf[self._interior] = xb
            src = pad_buf
        if windows is not None:
            np.copyto(cols6, windows)
        else:
            src.reshape(n, -1).take(self._index_map, axis=1, out=cols)
        np.matmul(self._packed, cols, out=out)
        if self._bias_col is not None:
            np.add(out, self._bias_col, out=out)
        _activate(self._activation, out)
        return out4d


class _MaxPoolPlan(ExecutionPlan):
    """Transposed window gather + one exact ``maximum.reduce`` pass."""

    kind = "max-pool"
    returns_scratch = True

    def __init__(self, layer: PoolLayer, in_shape, dtype):
        c, h, w = in_shape
        stride = layer.stride
        assert stride is not None
        ph, pw, eh, ew = F.pool_pad_amounts((h, w), layer.kernel, stride,
                                            layer.pad, layer.ceil_mode)
        hp, wp = h + 2 * ph + eh, w + 2 * pw + ew
        self._padded_shape = (c, hp, wp)
        oh = (hp - layer.kernel[0]) // stride[0] + 1
        ow = (wp - layer.kernel[1]) // stride[1] + 1
        kh, kw = layer.kernel
        self._kernel, self._stride = layer.kernel, stride
        self._gathered_shape = (kh * kw, c * oh * ow)
        self._gathered6_shape = (kh, kw, c, oh, ow)
        self._index_map = None if ow >= STRIDED_MIN_OW else \
            F.pool_index_map(self._padded_shape, layer.kernel, stride)
        padded = (hp, wp) != (h, w)
        self._needs_pad = padded or self._index_map is None
        if self._needs_pad:
            self._interior = (slice(None), slice(None), slice(ph, ph + h),
                              slice(pw, pw + w))
        self._out_len = c * oh * ow
        self._out3_shape = (c, oh, ow)
        self._scratch = _BatchScratch(self._make_scratch)
        steps = ["pad"] if padded else \
            ["stage"] if self._needs_pad else []
        gather = "gather" if self._index_map is not None else "copy"
        super().__init__(layer, tuple(in_shape), np.dtype(dtype),
                         tuple(steps + [gather, "max"]))

    def _make_scratch(self, n: int) -> tuple:
        pad_buf = windows = None
        if self._needs_pad:
            pad_buf = np.full((n,) + self._padded_shape, -np.inf,
                              self.dtype)
            if self._index_map is None:
                # (N, KH, KW, C, OH, OW): the layout of ``gathered``
                windows = F.sliding_windows(
                    pad_buf, self._kernel, self._stride) \
                    .transpose(0, 4, 5, 1, 2, 3)
        gathered = np.empty((n,) + self._gathered_shape, self.dtype)
        out = np.empty((n, self._out_len), self.dtype)
        return (pad_buf, windows, gathered,
                gathered.reshape((n,) + self._gathered6_shape), out,
                out.reshape((n,) + self._out3_shape))

    def run_batch(self, xb):
        self._check(tuple(xb.shape))
        n = xb.shape[0]
        pad_buf, windows, gathered, gathered6, out, out4d = \
            self._scratch.get(n)
        src = xb
        if pad_buf is not None:
            pad_buf[self._interior] = xb
            src = pad_buf
        if windows is not None:
            np.copyto(gathered6, windows)
        else:
            src.reshape(n, -1).take(self._index_map, axis=1, out=gathered)
        np.maximum.reduce(gathered, axis=1, out=out)
        return out4d


class _FCPlan(ExecutionPlan):
    """Bound-weight GEMV with fused bias and activation."""

    kind = "fc"
    returns_scratch = True

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
        self._features = weights.shape[0]
        self._out_dtype = out_dtype
        self._scratch = _BatchScratch(self._make_scratch)
        steps = ["gemv"]
        if self._bias is not None:
            steps.append("bias")
        if self._activation is not Activation.NONE:
            steps.append(self._activation.value)
        super().__init__(layer, tuple(in_shape), np.dtype(dtype),
                         tuple(steps))

    def _make_scratch(self, n: int) -> tuple:
        f = self._features
        out = np.empty((n, f, 1), self._out_dtype)
        return out, out.reshape(n, f), out.reshape(n, f, 1, 1)

    def run_batch(self, xb):
        self._check(tuple(xb.shape))
        n = xb.shape[0]
        out3, out2, out4 = self._scratch.get(n)
        np.matmul(self._weights, xb.reshape(n, -1)[:, :, None], out=out3)
        if self._bias is not None:
            np.add(out2, self._bias, out=out2)
        _activate(self._activation, out2)
        return out4


class _FlattenPlan(ExecutionPlan):
    """Pure reshape — a view of the predecessor's output."""

    kind = "flatten"
    returns_scratch = True

    def __init__(self, layer: FlattenLayer, in_shape, dtype):
        super().__init__(layer, tuple(in_shape), np.dtype(dtype),
                         ("reshape",))

    def run_batch(self, xb):
        return xb.reshape(xb.shape[0], -1, 1, 1)


class _OraclePlan(ExecutionPlan):
    """Replays an unplanned kernel with pre-bound arguments.

    Used where precomputation cannot help (point-wise activations,
    softmax) or would break bit-identity (avg pooling: ``mean`` over a
    gathered contiguous copy pairs partial sums differently than over
    the strided window view).
    """

    kind = "oracle"

    def __init__(self, layer: Layer, in_shape, dtype, step: str,
                 fn: Callable[[np.ndarray], np.ndarray]):
        super().__init__(layer, tuple(in_shape), np.dtype(dtype),
                         (step,))
        self._fn = fn

    def run_batch(self, xb):
        return self._fn(xb)


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
        if layer.op is PoolOp.MAX and np.issubdtype(dtype, np.floating):
            return _MaxPoolPlan(layer, in_shape, dtype)
        pool = F.max_pool2d if layer.op is PoolOp.MAX else F.avg_pool2d
        kernel, stride, pad = layer.kernel, layer.stride, layer.pad
        ceil = layer.ceil_mode
        return _OraclePlan(
            layer, in_shape, dtype, f"oracle-{layer.op.value}-pool",
            lambda xb: pool(xb, kernel, stride, pad, ceil_mode=ceil))
    if isinstance(layer, ActivationLayer):
        return _OraclePlan(layer, in_shape, dtype, layer.kind.value,
                           ACTIVATIONS[layer.kind])
    if isinstance(layer, FlattenLayer):
        return _FlattenPlan(layer, in_shape, dtype)
    if isinstance(layer, FullyConnectedLayer):
        return _FCPlan(
            layer, in_shape, dtype,
            weights.get(layer.name, "weights"),
            weights.get(layer.name, "bias") if layer.bias else None)
    if isinstance(layer, SoftmaxLayer):
        if layer.log:
            return _OraclePlan(layer, in_shape, dtype, "log-softmax",
                               F.log_softmax)
        return _OraclePlan(layer, in_shape, dtype, "softmax", F.softmax)
    raise TypeError(f"unknown layer type {type(layer).__name__}")


def compile_plan(layer: Layer, in_shape: tuple[int, ...],
                 weights: "WeightStore",
                 dtype: np.dtype | type = np.float32) -> ExecutionPlan:
    """Compile one layer for one (input shape, dtype) configuration."""
    dtype = np.dtype(dtype)
    start = time.perf_counter()
    with span("plan.compile", layer=layer.name, kind=layer.type_name):
        plan = _compile(layer, tuple(in_shape), dtype, weights)
    PLAN_COMPILE_SECONDS.observe(time.perf_counter() - start)
    PLAN_COMPILES.inc(kind=plan.kind)
    return plan


# -- the cache ----------------------------------------------------------------


class PlanCache:
    """Bounded LRU of compiled execution plans.

    Keys are ``(store token, layer weight version, layer, input shape,
    dtype)`` — layers are frozen dataclasses, so the layer itself hashes
    its full configuration (kind, kernel, stride, pad, activation).  The
    weight version makes stale plans unreachable the moment a blob is
    replaced; :meth:`invalidate` additionally drops them eagerly.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1,"
                             f" got {capacity}")
        self.capacity = capacity
        self._plans: OrderedDict[tuple, ExecutionPlan] = OrderedDict()
        self._lock = new_rlock("nn.plan.PlanCache")
        self._stats = {"hits": 0, "misses": 0, "compiles": 0,
                       "evictions": 0, "invalidations": 0}
        self._compile_seconds = 0.0
        with _CACHES_LOCK:
            _CACHES.append((self._stats, self._lock, weakref.ref(self)))

    @staticmethod
    def _key(layer: Layer, in_shape: tuple[int, ...],
             store: "WeightStore", dtype: np.dtype) -> tuple:
        return (store.token, store.version_of(layer.name), layer,
                tuple(in_shape), dtype.str)

    def record_hit(self, count: int) -> None:
        """Count ``count`` replays served without touching the cache
        dict (the engine memoizes resolved plans per layer and version,
        and reports one forward pass's memo hits in a single call)."""
        with self._lock:
            self._stats["hits"] += count

    def lookup(self, layer: Layer, in_shape: tuple[int, ...],
               store: "WeightStore",
               dtype: np.dtype | type = np.float32) -> ExecutionPlan:
        """Return the cached plan for this configuration, compiling on
        miss and evicting the least recently used entry when full."""
        dtype = np.dtype(dtype)
        key = self._key(layer, in_shape, store, dtype)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self._stats["hits"] += 1
                return plan
            self._stats["misses"] += 1
        start = time.perf_counter()
        plan = compile_plan(layer, in_shape, store, dtype)
        elapsed = time.perf_counter() - start
        with self._lock:
            self._stats["compiles"] += 1
            self._compile_seconds += elapsed
            if key not in self._plans:
                self._plans[key] = plan
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self._stats["evictions"] += 1
        return plan

    def invalidate(self, store: "WeightStore | None" = None,
                   layer: str | None = None) -> int:
        """Drop cached plans for ``store`` and/or ``layer`` (both
        ``None`` drops everything).  Returns the number dropped."""
        with self._lock:
            doomed = [
                key for key, plan in self._plans.items()
                if (store is None or key[0] == store.token)
                and (layer is None or plan.layer_name == layer)
            ]
            for key in doomed:
                del self._plans[key]
            self._stats["invalidations"] += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        self.invalidate()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def stats(self) -> dict:
        """Counters + current size (the ``plan_stats`` payload)."""
        with self._lock:
            out = dict(self._stats)
            out["entries"] = len(self._plans)
            out["capacity"] = self.capacity
            out["compile_seconds"] = self._compile_seconds
        return out


#: ``(_stats, _lock, weakref)`` of every cache ever built: the counters
#: sum all stats (staying monotonic), the entries gauge live sizes.  The
#: (reentrant) lock also serializes creating the default cache.
_CACHES: list[tuple[dict, object, weakref.ref]] = []
_CACHES_LOCK = new_rlock("nn.plan.caches")


def _caches() -> list[tuple[dict, object, weakref.ref]]:
    with _CACHES_LOCK:
        return list(_CACHES)


def _stat_source(stat: str):
    def read() -> dict:
        total = 0
        for stats, lock, _ in _caches():
            with lock:
                total += stats[stat]
        return {(): total}
    return read


PLAN_HITS.add_source(_stat_source("hits"))
PLAN_MISSES.add_source(_stat_source("misses"))
PLAN_EVICTIONS.add_source(_stat_source("evictions"))
PLAN_INVALIDATIONS.add_source(_stat_source("invalidations"))
PLAN_ENTRIES.set_function(lambda: sum(
    len(cache) for *_, ref in _caches() if (cache := ref()) is not None))

_DEFAULT_CACHE: PlanCache | None = None


def default_plan_cache() -> PlanCache:
    """The process-wide cache engines share unless given their own.

    Double-checked initialization: the steady-state path is a single
    unlocked read (the cache is published only after ``PlanCache()``
    returns, so a non-None value is always fully constructed), and
    racing first calls serialize on the module lock so exactly one
    instance is ever built.
    """
    global _DEFAULT_CACHE
    cache = _DEFAULT_CACHE
    if cache is not None:
        return cache
    with _CACHES_LOCK:
        if _DEFAULT_CACHE is None:
            _DEFAULT_CACHE = PlanCache()
        return _DEFAULT_CACHE
