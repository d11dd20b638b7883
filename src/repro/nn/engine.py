"""The reference engine: execute an IR network with numpy kernels.

This is the functional oracle for the generated accelerator and the software
baseline for the evaluation harness.

Every pass runs an ``(N, C, H, W)`` batch; one sample is a batch of one.
A pass executes one of two ways, with bit-identical outputs:

* the **oracle** — :func:`run_layer` per layer, stride-trick kernels
  from :mod:`repro.nn.functional` that re-derive geometry on every call;
* the **planned** path — the network is compiled once per (input shape,
  dtype, weight generation) into a :class:`repro.nn.plan.CompiledPass`
  (one plan per layer, fused conv→max-pool stages) that the engine
  memoizes, binds once per thread and batch size, on scratch every
  pass of the thread shares, and replays as a flat list of numpy calls.

Plans are on by default; ``ReferenceEngine(..., use_plans=False)`` runs
the oracle.  The engine allocates nothing shape-derived — all scratch
lives in bound passes (enforced by the ``engine-plan-alloc`` lint rule).
Building an engine pins numpy's BLAS to one thread
(:mod:`repro.nn.blas`): the bits of a GEMM depend on the thread count.
"""

from __future__ import annotations

import contextlib

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
from repro.nn.blas import blas_threads
from repro.nn.plan import ACTIVATIONS, LEDGER, CompiledPass, compile_pass
from repro.obs import current_recorder, span

#: Stands in for a span while no recorder is active (reusable).
_NO_SPAN = contextlib.nullcontext()


def as_batch(batch: np.ndarray) -> np.ndarray:
    """``batch`` as a float32 (N, C, H, W) array with N >= 1."""
    batch = np.asarray(batch, dtype=np.float32)
    if batch.ndim != 4 or batch.shape[0] < 1:
        raise ShapeError(
            f"run_batch expects (N, C, H, W) with N >= 1, got"
            f" {batch.shape}")
    return batch


def run_layer(layer: Layer, weights: WeightStore,
              x: np.ndarray) -> np.ndarray:
    """Execute one layer on an (N, C, H, W) batch with the oracle kernels."""
    if isinstance(layer, InputLayer):
        expected = layer.shape.as_tuple()
        if tuple(x.shape[1:]) != expected:
            raise ShapeError(
                f"input shape {tuple(x.shape[1:])} does not match"
                f" declared {expected}")
        return x
    if isinstance(layer, ConvLayer):
        out = F.conv2d(
            x,
            weights.get(layer.name, "weights"),
            weights.get(layer.name, "bias") if layer.bias else None,
            stride=layer.stride,
            pad=layer.pad,
        )
        if layer.activation is not Activation.NONE:
            out = ACTIVATIONS[layer.activation](out)
        return out
    if isinstance(layer, PoolLayer):
        assert layer.stride is not None
        pool = F.max_pool2d if layer.op is PoolOp.MAX else F.avg_pool2d
        return pool(x, layer.kernel, layer.stride, layer.pad,
                    ceil_mode=layer.ceil_mode)
    if isinstance(layer, ActivationLayer):
        return ACTIVATIONS[layer.kind](x)
    if isinstance(layer, FlattenLayer):
        return x.reshape(x.shape[0], -1, 1, 1)
    if isinstance(layer, FullyConnectedLayer):
        out = F.fully_connected(
            x,
            weights.get(layer.name, "weights"),
            weights.get(layer.name, "bias") if layer.bias else None,
        )
        if layer.activation is not Activation.NONE:
            out = ACTIVATIONS[layer.activation](out)
        return out.reshape(x.shape[0], -1, 1, 1)
    if isinstance(layer, SoftmaxLayer):
        fn = F.log_softmax if layer.log else F.softmax
        return fn(x)
    raise TypeError(f"unknown layer type {type(layer).__name__}")


class ReferenceEngine:
    """Forward inference over a network with a weight store.

    An engine is safe to share across threads — its compiled pass binds
    on per-thread scratch.  ``use_plans=False`` runs the oracle kernels
    instead of compiled plans.
    """

    def __init__(self, net: Network, weights: WeightStore, *,
                 use_plans: bool = True):
        weights.validate(net)
        blas_threads()
        self.net = net
        self.weights = weights
        self._use_plans = use_plans
        #: ((weight generation, input shape, dtype), pass): the only
        #: plan cache, one tuple compare per warm pass.
        self._memo: tuple[tuple, CompiledPass] | None = None

    # -- execution plans ------------------------------------------------------

    def _compiled(self, x: np.ndarray) -> CompiledPass:
        """The compiled pass for ``x``'s per-sample shape and dtype.

        A warm pass is one tuple compare against the memo; it reports
        one plan hit per layer.  A new shape, dtype or weight generation
        compiles the whole pass again.
        """
        key = (self.weights.generation, x.shape[1:], x.dtype)
        memo = self._memo
        if memo is not None and memo[0] == key:
            LEDGER.record_hit(len(memo[1].plans))
            return memo[1]
        compiled = compile_pass(self.net.layers, key[1], x.dtype,
                                self.weights)
        self._memo = (key, compiled)
        return compiled

    def _post_layer(self, layer: Layer, out: np.ndarray) -> np.ndarray:
        """Hook applied to every layer's output on the oracle path.

        The base engine is the identity; :class:`~repro.quant.apply.
        QuantizedEngine` rounds activations here, and runs the oracle
        only: compiled passes have no per-layer hook.
        """
        return out

    # -- network-level API ----------------------------------------------------

    def _execute(self, x: np.ndarray, planned: bool,
                 outputs: dict[str, np.ndarray] | None = None) \
            -> np.ndarray:
        """One pass: the compiled pass, or (unplanned) the oracle
        :func:`run_layer` then the :meth:`_post_layer` hook per layer.

        Spans are opened only while a recorder is active, and nest under
        the caller's open span.  ``outputs``, when given, collects every
        layer's output by name (oracle only).
        """
        traced = current_recorder() is not None
        with span("engine.run_batch", batch=int(x.shape[0]),
                  layers=len(self.net.layers)) if traced else _NO_SPAN:
            if planned:
                return self._compiled(x).run(x, traced)
            for layer in self.net.layers:
                with span("engine.layer", layer=layer.name) \
                        if traced else _NO_SPAN:
                    x = self._post_layer(
                        layer, run_layer(layer, self.weights, x))
                if outputs is not None:
                    outputs[layer.name] = x
        return x

    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        """Run an (N, C, H, W) batch through the network.

        The whole batch moves through each layer at once (one stacked
        GEMM per conv layer, vectorized pool/activation/softmax), which
        amortizes the per-layer dispatch over the batch; row ``i`` of the
        output is bit-identical to running sample ``i`` alone.
        """
        return self._execute(as_batch(batch), self._use_plans)

    def forward_batch(self, batch: np.ndarray) -> np.ndarray:
        """Run an (N, C, H, W) batch (alias of :meth:`run_batch`)."""
        return self.run_batch(batch)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run one (C, H, W) sample: a batch of one."""
        return self.run_batch(np.asarray(x, dtype=np.float32)[None])[0]

    def predict_batch(self, batch: np.ndarray) -> np.ndarray:
        """Class indices of the most probable outputs, shape ``(N,)``."""
        out = self.run_batch(batch)
        return np.argmax(out.reshape(out.shape[0], -1), axis=1)

    def predict(self, x: np.ndarray) -> int:
        """Class index of the most probable output for one sample."""
        x = np.asarray(x, dtype=np.float32)
        return int(self.predict_batch(x[None])[0])

    def activations(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Per-layer output activations for one sample (keyed by name).

        Always runs the oracle kernels: every layer output must survive
        the whole pass, which is exactly what plan scratch reuse forbids.
        """
        outputs: dict[str, np.ndarray] = {}
        self._execute(np.asarray(x, dtype=np.float32)[None], planned=False,
                      outputs=outputs)
        return {name: out[0] for name, out in outputs.items()}
