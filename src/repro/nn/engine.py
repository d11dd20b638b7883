"""The reference engine: execute an IR network with numpy kernels.

This is the functional oracle for the generated accelerator and the software
baseline for the evaluation harness.

Two execution paths produce bit-identical outputs:

* the **oracle** path (:meth:`ReferenceEngine.run_layer` /
  :meth:`~ReferenceEngine.run_layer_batch`) — stride-trick kernels from
  :mod:`repro.nn.functional` that re-derive geometry on every call;
* the **planned** path — each (layer, input shape, dtype) configuration
  is compiled once into an :class:`repro.nn.plan.ExecutionPlan`
  (precomputed gather-index maps, packed weights, scratch buffers) and
  replayed from a process-wide LRU cache on every subsequent call.

Plans are on by default; ``REPRO_NO_PLAN_CACHE=1`` or
``ReferenceEngine(..., use_plans=False)`` falls back to the oracle.  The
engine hot loops deliberately allocate nothing shape-derived — all
scratch lives inside plans (enforced by the ``engine-plan-alloc`` lint
rule).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.frontend.weights import WeightStore
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
from repro.ir.network import Network
from repro.nn import functional as F
from repro.nn.plan import (
    ExecutionPlan,
    PlanCache,
    default_plan_cache,
    plans_disabled,
)
from repro.obs import current_recorder, span

_ACTIVATIONS = {
    Activation.RELU: F.relu,
    Activation.SIGMOID: F.sigmoid,
    Activation.TANH: F.tanh,
}


class ReferenceEngine:
    """Forward inference over a network with a weight store.

    ``plan_cache`` defaults to the process-wide cache, which is safe to
    share across threads — compiled plans keep their replay scratch in
    per-thread storage; pass a private
    :class:`~repro.nn.plan.PlanCache` only to isolate cache statistics
    or eviction behaviour.  ``use_plans`` forces the
    planned path on (``True``) or off (``False``); the default ``None``
    follows the ``REPRO_NO_PLAN_CACHE`` environment escape hatch.
    """

    def __init__(self, net: Network, weights: WeightStore, *,
                 plan_cache: PlanCache | None = None,
                 use_plans: bool | None = None):
        weights.validate(net)
        self.net = net
        self.weights = weights
        self.plan_cache = plan_cache if plan_cache is not None \
            else default_plan_cache()
        self._use_plans = use_plans
        #: layer name -> (weight version, in_shape, dtype, plan) — the
        #: steady-state fast path that skips the cache dict entirely.
        self._resolved: dict[str, tuple[int, tuple[int, ...], np.dtype,
                                        ExecutionPlan]] = {}

    # -- single-layer dispatch (the oracle path) -----------------------------

    def run_layer(self, layer: Layer, x: np.ndarray) -> np.ndarray:
        """Execute one layer on a (C, H, W) activation."""
        if isinstance(layer, InputLayer):
            expected = layer.shape.as_tuple()
            if tuple(x.shape) != expected:
                raise ShapeError(
                    f"input shape {tuple(x.shape)} does not match declared"
                    f" {expected}")
            return x
        if isinstance(layer, ConvLayer):
            out = F.conv2d(
                x,
                self.weights.get(layer.name, "weights"),
                self.weights.get(layer.name, "bias") if layer.bias else None,
                stride=layer.stride,
                pad=layer.pad,
            )
            if layer.activation is not Activation.NONE:
                out = _ACTIVATIONS[layer.activation](out)
            return out
        if isinstance(layer, PoolLayer):
            assert layer.stride is not None
            pool = F.max_pool2d if layer.op is PoolOp.MAX else F.avg_pool2d
            return pool(x, layer.kernel, layer.stride, layer.pad,
                        ceil_mode=layer.ceil_mode)
        if isinstance(layer, ActivationLayer):
            return _ACTIVATIONS[layer.kind](x)
        if isinstance(layer, FlattenLayer):
            return x.reshape(-1, 1, 1)
        if isinstance(layer, FullyConnectedLayer):
            out = F.fully_connected(
                x,
                self.weights.get(layer.name, "weights"),
                self.weights.get(layer.name, "bias") if layer.bias else None,
            )
            if layer.activation is not Activation.NONE:
                out = _ACTIVATIONS[layer.activation](out)
            return out.reshape(-1, 1, 1)
        if isinstance(layer, SoftmaxLayer):
            fn = F.log_softmax if layer.log else F.softmax
            return fn(x)
        raise TypeError(f"unknown layer type {type(layer).__name__}")

    def run_layer_batch(self, layer: Layer, x: np.ndarray) -> np.ndarray:
        """Execute one layer on an (N, C, H, W) batch.

        Bit-identical to mapping :meth:`run_layer` over the batch (see the
        accumulation-order notes in :mod:`repro.nn.functional`).
        """
        if isinstance(layer, InputLayer):
            expected = layer.shape.as_tuple()
            if tuple(x.shape[1:]) != expected:
                raise ShapeError(
                    f"input shape {tuple(x.shape[1:])} does not match"
                    f" declared {expected}")
            return x
        if isinstance(layer, ConvLayer):
            out = F.conv2d_batch(
                x,
                self.weights.get(layer.name, "weights"),
                self.weights.get(layer.name, "bias") if layer.bias else None,
                stride=layer.stride,
                pad=layer.pad,
            )
            if layer.activation is not Activation.NONE:
                out = _ACTIVATIONS[layer.activation](out)
            return out
        if isinstance(layer, PoolLayer):
            assert layer.stride is not None
            pool = F.max_pool2d_batch if layer.op is PoolOp.MAX \
                else F.avg_pool2d_batch
            return pool(x, layer.kernel, layer.stride, layer.pad,
                        ceil_mode=layer.ceil_mode)
        if isinstance(layer, ActivationLayer):
            return _ACTIVATIONS[layer.kind](x)
        if isinstance(layer, FlattenLayer):
            return x.reshape(x.shape[0], -1, 1, 1)
        if isinstance(layer, FullyConnectedLayer):
            out = F.fully_connected_batch(
                x,
                self.weights.get(layer.name, "weights"),
                self.weights.get(layer.name, "bias") if layer.bias else None,
            )
            if layer.activation is not Activation.NONE:
                out = _ACTIVATIONS[layer.activation](out)
            return out.reshape(x.shape[0], -1, 1, 1)
        if isinstance(layer, SoftmaxLayer):
            fn = F.log_softmax_batch if layer.log else F.softmax_batch
            return fn(x)
        raise TypeError(f"unknown layer type {type(layer).__name__}")

    # -- execution plans ------------------------------------------------------

    def plans_active(self) -> bool:
        """Whether forward passes replay compiled execution plans."""
        if self._use_plans is not None:
            return self._use_plans
        return not plans_disabled()

    def _plan_for(self, layer: Layer, in_shape: tuple[int, ...],
                  dtype: np.dtype) -> tuple[ExecutionPlan, int]:
        """Resolve the plan for one layer configuration.

        The per-engine memo makes the steady-state path a dict probe and
        a version compare; the shared LRU cache is only consulted when
        the memo misses (first call, weight mutation, shape change).
        Returns the plan and 1 on a memo hit, else 0; a pass sums these
        in a local (engines are shared across threads) and reports once.
        """
        version = self.weights.version_of(layer.name)
        memo = self._resolved.get(layer.name)
        if memo is not None:
            if memo[0] == version and memo[1] == in_shape \
                    and memo[2] == dtype:
                return memo[3], 1
        plan = self.plan_cache.lookup(layer, in_shape, self.weights, dtype)
        self._resolved[layer.name] = (version, in_shape, dtype, plan)
        return plan, 0

    def _post_layer(self, layer: Layer, out: np.ndarray) -> np.ndarray:
        """Per-sample/per-batch hook applied after every planned layer.

        The base engine is the identity; :class:`~repro.quant.apply.
        QuantizedEngine` rounds activations here so its dynamic
        per-tensor scales stay outside the shape-keyed plans.
        """
        return out

    def plan_stats(self) -> dict:
        """Plan-cache counters + this engine's resolution state."""
        stats = self.plan_cache.stats()
        stats["plans_active"] = self.plans_active()
        stats["resolved_layers"] = len(self._resolved)
        return stats

    def invalidate_plans(self) -> int:
        """Drop this engine's memo and its store's cached plans."""
        self._resolved.clear()
        return self.plan_cache.invalidate(store=self.weights)

    # -- network-level API ----------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run one sample through the whole network."""
        x = np.asarray(x, dtype=np.float32)
        if not self.plans_active():
            for layer in self.net.layers:
                x = self.run_layer(layer, x)
            return x
        owns_output = True
        hits = 0
        for layer in self.net.layers:
            plan, hit = self._plan_for(layer, tuple(x.shape), x.dtype)
            hits += hit
            out = plan.run(x)
            x = self._post_layer(layer, out)
            owns_output = not plan.returns_scratch or x is not out
        self.plan_cache.record_hit(hits)
        # never hand plan-owned scratch to the caller — the next forward
        # pass would overwrite it in place
        return x if owns_output else x.copy()

    def run(self, x: np.ndarray) -> np.ndarray:
        """Single-sample forward through the batched kernels."""
        x = np.asarray(x, dtype=np.float32)
        return self.run_batch(x[None])[0]

    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        """Run an (N, C, H, W) batch through the batched kernels.

        The whole batch moves through each layer at once (one im2col GEMM
        per conv layer, vectorized pool/activation/softmax), which amortizes
        the per-layer dispatch and GEMM setup over the batch; outputs are
        bit-identical to :meth:`forward` of each sample.
        """
        batch = np.asarray(batch, dtype=np.float32)
        if batch.ndim != 4:
            raise ShapeError(
                f"run_batch expects (N, C, H, W), got {batch.shape}")
        if current_recorder() is not None:
            return self._run_batch_traced(batch)
        if not self.plans_active():
            for layer in self.net.layers:
                batch = self.run_layer_batch(layer, batch)
            return batch
        x = batch
        owns_output = True
        hits = 0
        for layer in self.net.layers:
            plan, hit = self._plan_for(layer, tuple(x.shape[1:]), x.dtype)
            hits += hit
            out = plan.run_batch(x)
            x = self._post_layer(layer, out)
            owns_output = not plan.returns_scratch or x is not out
        self.plan_cache.record_hit(hits)
        return x if owns_output else x.copy()

    def _run_batch_traced(self, batch: np.ndarray) -> np.ndarray:
        """The :meth:`run_batch` body with per-layer spans.

        Kept as a separate method so the untraced hot path stays free
        of span plumbing: the engine only pays for tracing while a
        recorder is active (and the worker thread running this batch
        inherited it via ``contextvars.copy_context``, so these spans
        nest under the submitting request's span).  Same calls in the
        same order — outputs are bit-identical to the untraced path.
        """
        with span("engine.run_batch", batch=int(batch.shape[0]),
                  layers=len(self.net.layers)):
            if not self.plans_active():
                for layer in self.net.layers:
                    with span("engine.layer", layer=layer.name):
                        batch = self.run_layer_batch(layer, batch)
                return batch
            x = batch
            owns_output = True
            hits = 0
            for layer in self.net.layers:
                with span("engine.layer", layer=layer.name):
                    plan, hit = self._plan_for(layer, tuple(x.shape[1:]),
                                               x.dtype)
                    hits += hit
                    out = plan.run_batch(x)
                    x = self._post_layer(layer, out)
                    owns_output = not plan.returns_scratch or x is not out
            self.plan_cache.record_hit(hits)
            return x if owns_output else x.copy()

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        """Run an (N, C, H, W) batch (alias of :meth:`run_batch`)."""
        return self.run_batch(batch)

    def predict_batch(self, batch: np.ndarray) -> np.ndarray:
        """Class indices of the most probable outputs, shape ``(N,)``."""
        out = self.run_batch(batch)
        return np.argmax(out.reshape(out.shape[0], -1), axis=1)

    def activations(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Per-layer output activations for one sample (keyed by name).

        Always runs the oracle kernels: every layer output must survive
        the whole pass, which is exactly what plan scratch reuse forbids.
        """
        x = np.asarray(x, dtype=np.float32)
        outputs: dict[str, np.ndarray] = {}
        for layer in self.net.layers:
            x = self.run_layer(layer, x)
            outputs[layer.name] = x
        return outputs

    def predict(self, x: np.ndarray) -> int:
        """Class index of the most probable output.

        Routed through :meth:`run_batch` with a singleton batch so
        single-sample serving shares the batched kernels and the plan
        cache (bit-identical to ``argmax(forward(x))``).
        """
        x = np.asarray(x, dtype=np.float32)
        return int(self.predict_batch(x[None])[0])
