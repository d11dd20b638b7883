"""Repo-wide fixtures shared by ``tests/`` and ``benchmarks/``.

Zoo model construction — and, much more importantly, random weight
initialization (VGG-16 is 138 M parameters, ~3 s to materialize) — is
cached once per pytest session.  ``zoo_model`` hands out a *fresh deep
copy* per call so a test may mutate its model freely; ``zoo_weights``
hands out the cached :class:`~repro.frontend.weights.WeightStore` itself,
which callers must treat as read-only (every consumer in the repo does —
the stores are only ever read by engines/simulators).
"""

from __future__ import annotations

import copy

import pytest

_MODEL_CACHE: dict = {}
_WEIGHT_CACHE: dict = {}


@pytest.fixture(autouse=True)
def _obs_enabled(monkeypatch):
    """Strip the ``REPRO_NO_OBS`` kill switch from the environment so
    telemetry assertions see the default (enabled) behaviour regardless
    of the invoking shell; tests that cover the switch set it back
    explicitly via ``monkeypatch.setenv``."""
    monkeypatch.delenv("REPRO_NO_OBS", raising=False)


def _builders():
    from repro.frontend.zoo import (
        cifar10_model,
        lenet_model,
        tc1_model,
        vgg16_model,
    )
    return {"tc1": tc1_model, "lenet": lenet_model,
            "cifar10": cifar10_model, "vgg16": vgg16_model}


def _cached_model(name: str):
    if name not in _MODEL_CACHE:
        builders = _builders()
        if name not in builders:
            raise KeyError(f"unknown zoo model {name!r};"
                           f" known: {sorted(builders)}")
        _MODEL_CACHE[name] = builders[name]()
    return _MODEL_CACHE[name]


@pytest.fixture(scope="session")
def zoo_model():
    """``zoo_model(name)`` → a fresh copy of the named zoo model."""

    def get(name: str):
        return copy.deepcopy(_cached_model(name))

    return get


@pytest.fixture(scope="session")
def zoo_weights():
    """``zoo_weights(name, seed=0)`` → the session-cached weight store
    for the named zoo model (shared: treat as read-only)."""

    def get(name: str, seed: int = 0):
        key = (name, seed)
        if key not in _WEIGHT_CACHE:
            from repro.frontend.weights import WeightStore
            net = _cached_model(name).network
            _WEIGHT_CACHE[key] = WeightStore.initialize(net, seed)
        return _WEIGHT_CACHE[key]

    return get
