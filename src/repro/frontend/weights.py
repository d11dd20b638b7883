"""The weight store.

Per §3.1.1 of the paper, weights and biases are kept as *external files*,
loaded dynamically at runtime, so the network can be updated (e.g. retrained
for better accuracy) without re-synthesizing the accelerator.  The on-disk
format is a directory with one ``.npy`` file per blob plus a JSON manifest;
the in-memory object maps ``layer name → blob name → ndarray``.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from repro.errors import WeightsError
from repro.ir.network import Network

_MANIFEST = "weights.json"


class WeightStore:
    """Blobs for the learnable layers of a network.

    Every store carries a mutation counter (:attr:`generation`),
    bumped by :meth:`set`.  Compiled passes (:mod:`repro.nn.plan`) bake
    packed weight views into their plans, so an engine keys its pass on
    the generation: one compare tells it no blob was replaced, and a
    replaced blob makes it recompile.
    """

    def __init__(self, blobs: dict[str, dict[str, np.ndarray]] | None = None):
        self._blobs: dict[str, dict[str, np.ndarray]] = {}
        self._generation = 0
        if blobs:
            for layer, named in blobs.items():
                for blob, array in named.items():
                    self.set(layer, blob, array)

    # -- access ---------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Store-wide mutation counter: bumped by every :meth:`set`."""
        return self._generation

    def set(self, layer: str, blob: str, array: np.ndarray) -> None:
        array = np.asarray(array, dtype=np.float32)
        self._blobs.setdefault(layer, {})[blob] = array
        self._generation += 1

    def get(self, layer: str, blob: str) -> np.ndarray:
        try:
            return self._blobs[layer][blob]
        except KeyError:
            raise WeightsError(
                f"missing blob {blob!r} for layer {layer!r}") from None

    def maybe_get(self, layer: str, blob: str) -> np.ndarray | None:
        return self._blobs.get(layer, {}).get(blob)

    def layers(self) -> list[str]:
        return sorted(self._blobs)

    def blobs(self, layer: str) -> dict[str, np.ndarray]:
        return dict(self._blobs.get(layer, {}))

    def __contains__(self, layer: object) -> bool:
        return layer in self._blobs

    def total_parameters(self) -> int:
        """Total number of stored weight/bias scalars."""
        return sum(int(a.size) for named in self._blobs.values()
                   for a in named.values())

    # -- validation -----------------------------------------------------------

    def validate(self, net: Network) -> None:
        """Check that every learnable layer has blobs of the right shape."""
        for layer in net.layers:
            expected = layer.weight_shapes(net.input_shape(layer))
            for blob, shape in expected.items():
                array = self.maybe_get(layer.name, blob)
                if array is None:
                    raise WeightsError(
                        f"layer {layer.name!r} is missing blob {blob!r}"
                        f" (expected shape {shape})")
                if tuple(array.shape) != tuple(shape):
                    raise WeightsError(
                        f"layer {layer.name!r} blob {blob!r} has shape"
                        f" {tuple(array.shape)}, expected {tuple(shape)}")

    # -- initialization --------------------------------------------------------

    @classmethod
    def initialize(cls, net: Network, seed: int = 0) -> "WeightStore":
        """Deterministic pseudo-trained weights for a network.

        Xavier-style scaling keeps activations in a sane range so the
        functional comparison between reference engine and simulator
        exercises realistic magnitudes.  (Weight *values* do not affect any
        performance/resource result — see DESIGN.md substitutions.)
        """
        rng = np.random.default_rng(seed)
        store = cls()
        for layer in net.layers:
            shapes = layer.weight_shapes(net.input_shape(layer))
            for blob, shape in shapes.items():
                if blob == "bias":
                    array = rng.normal(0.0, 0.01, size=shape)
                else:
                    fan_in = int(np.prod(shape[1:]))
                    scale = float(np.sqrt(2.0 / max(fan_in, 1)))
                    array = rng.normal(0.0, scale, size=shape)
                store.set(layer.name, blob, array.astype(np.float32))
        return store

    # -- persistence ------------------------------------------------------------

    def files(self) -> dict[str, bytes]:
        """The on-disk form: file name -> contents, ``weights.json``
        plus one npy per blob."""
        files: dict[str, bytes] = {}
        manifest: dict[str, dict[str, str]] = {}
        for layer, named in sorted(self._blobs.items()):
            manifest[layer] = {}
            for blob, array in sorted(named.items()):
                filename = f"{layer.replace('/', '__')}.{blob}.npy"
                buffer = io.BytesIO()
                np.save(buffer, array)
                files[filename] = buffer.getvalue()
                manifest[layer][blob] = filename
        files[_MANIFEST] = json.dumps(manifest, indent=2,
                                      sort_keys=True).encode()
        return files

    def save(self, directory: str | Path) -> Path:
        """Write :meth:`files` into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for filename, data in self.files().items():
            (directory / filename).write_bytes(data)
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "WeightStore":
        """Load a store written by :meth:`save`."""
        directory = Path(directory)
        manifest_path = directory / _MANIFEST
        if not manifest_path.is_file():
            raise WeightsError(f"no weight manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        store = cls()
        for layer, named in manifest.items():
            for blob, filename in named.items():
                path = directory / filename
                if not path.is_file():
                    raise WeightsError(
                        f"manifest references missing file {path}")
                store.set(layer, blob, np.load(path))
        return store
