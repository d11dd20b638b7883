"""The BLAS thread pin: one thread, recorded, and harmless when absent."""

import ctypes
import json

import numpy as np
import pytest

from repro.frontend.weights import WeightStore
from repro.frontend.zoo import lenet_model
from repro.nn import blas
from repro.nn.engine import ReferenceEngine
from repro.obs.manifest import build_manifest
from repro.perf.bench import BenchResult, write_benchmarks


def _lenet_pass():
    net = lenet_model().network
    weights = WeightStore.initialize(net, seed=3)
    images = np.random.default_rng(3).normal(
        size=(3,) + net.input_shape().as_tuple()).astype(np.float32)
    planned = ReferenceEngine(net, weights)
    oracle = ReferenceEngine(net, weights, use_plans=False)
    return planned.run_batch(images), oracle.run_batch(images)


def test_a_pass_runs_on_one_pinned_thread(tmp_path):
    planned, oracle = _lenet_pass()
    assert np.array_equal(planned, oracle)
    library = blas._openblas()
    if library is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    assert blas.blas_threads() == blas.PINNED_THREADS == 1
    getter = library.scipy_openblas_get_num_threads64_
    getter.restype = ctypes.c_int
    assert getter() == 1
    manifest = build_manifest(recorder=None, run={"status": "ok"},
                              steps=[])
    assert manifest["process"]["blas_threads"] == 1
    path = write_benchmarks(
        [BenchResult(op="sim", model="tc1", wall_s=0.0, cycles=1,
                     cache_hits=None, speedup_vs_baseline=None)],
        tmp_path / "bench.json")
    assert json.loads(path.read_text())["blas_threads"] == 1


def test_a_library_without_the_setter_records_unpinned(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: object())
    monkeypatch.setattr(blas, "_pinned", None)
    planned, oracle = _lenet_pass()
    assert np.array_equal(planned, oracle)
    assert blas.blas_threads() == blas.UNPINNED == "unpinned"
    manifest = build_manifest(recorder=None, run={"status": "ok"},
                              steps=[])
    assert manifest["process"]["blas_threads"] == "unpinned"


def test_no_library_records_unpinned(monkeypatch):
    monkeypatch.setattr(blas, "_LIBRARY", "/nonexistent/libnone_*.so")
    monkeypatch.setattr(blas, "_pinned", None)
    assert blas.blas_threads() == "unpinned"
