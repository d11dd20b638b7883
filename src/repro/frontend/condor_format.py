"""The Condor-specific network representation (paper §3.1.1).

An internal JSON document that "resembles the caffe prototxt file but
contains more information about the underlying hardware of the accelerator,
such as the desired board, the operating frequency and desired level of
parallelism of each layer".  This module defines the document model
(:class:`CondorModel`), its JSON (de)serialization, and validation.

Hardware hints are optional per layer; anything omitted is filled in by the
design-space exploration step of the flow.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ParseError, ValidationError
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
from repro.ir.shapes import TensorShape
from repro.ir.validate import validate_network
from repro.util.units import parse_freq

FORMAT_VERSION = 1


class DeploymentOption(enum.Enum):
    """Where the accelerator will be deployed (paper §3.1.1)."""

    ON_PREMISE = "on-premise"
    AWS_F1 = "aws-f1"


@dataclass(frozen=True)
class LayerHints:
    """Per-layer hardware hints.

    ``in_ports``/``out_ports`` select the inter-layer parallelism (how many
    input/output feature maps are processed concurrently, §3.2);
    ``cluster`` names the PE this layer is fused into (layers sharing a
    cluster id map onto one PE).
    """

    in_ports: int | None = None
    out_ports: int | None = None
    cluster: str | None = None

    def __post_init__(self) -> None:
        for name in ("in_ports", "out_ports"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ValidationError(
                    f"{name} must be a positive integer, got {value!r}")


@dataclass
class CondorModel:
    """The parsed Condor document: network + hardware intent."""

    network: Network
    board: str = "aws-f1-xcvu9p"
    frequency_hz: float = 100e6
    deployment: DeploymentOption = DeploymentOption.ON_PREMISE
    hints: dict[str, LayerHints] = field(default_factory=dict)
    #: Datapath precision: "fp32" (the paper's), "int16" or "int8".
    precision: str = "fp32"

    def __post_init__(self) -> None:
        validate_network(self.network)
        if self.frequency_hz <= 0:
            raise ValidationError("frequency must be positive")
        from repro.quant.scheme import PRECISIONS
        if self.precision not in PRECISIONS:
            raise ValidationError(
                f"unknown precision {self.precision!r}; known:"
                f" {sorted(PRECISIONS)}")
        for name in self.hints:
            if name not in self.network:
                raise ValidationError(
                    f"hints reference unknown layer {name!r}")

    def hint_for(self, layer: str | Layer) -> LayerHints:
        name = layer if isinstance(layer, str) else layer.name
        return self.hints.get(name, LayerHints())


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_LAYER_TYPES = {
    "input": InputLayer,
    "conv": ConvLayer,
    "pool": PoolLayer,
    "activation": ActivationLayer,
    "flatten": FlattenLayer,
    "fc": FullyConnectedLayer,
    "softmax": SoftmaxLayer,
}
_TYPE_NAMES = {cls: name for name, cls in _LAYER_TYPES.items()}


def _layer_to_json(layer: Layer) -> dict:
    doc: dict = {"name": layer.name, "type": _TYPE_NAMES[type(layer)]}
    if isinstance(layer, InputLayer):
        doc["shape"] = list(layer.shape.as_tuple())
    elif isinstance(layer, ConvLayer):
        doc.update(num_output=layer.num_output, kernel=list(layer.kernel),
                   stride=list(layer.stride), pad=list(layer.pad),
                   bias=layer.bias, activation=layer.activation.value)
    elif isinstance(layer, PoolLayer):
        doc.update(op=layer.op.value, kernel=list(layer.kernel),
                   stride=list(layer.stride or layer.kernel),
                   pad=list(layer.pad), ceil_mode=layer.ceil_mode)
    elif isinstance(layer, ActivationLayer):
        doc["kind"] = layer.kind.value
    elif isinstance(layer, FullyConnectedLayer):
        doc.update(num_output=layer.num_output, bias=layer.bias,
                   activation=layer.activation.value)
    elif isinstance(layer, SoftmaxLayer):
        doc["log"] = layer.log
    return doc


def _layer_from_json(doc: dict) -> Layer:
    try:
        name = doc["name"]
        type_name = doc["type"]
    except KeyError as exc:
        raise ParseError(f"layer document missing key {exc}") from None
    cls = _LAYER_TYPES.get(type_name)
    if cls is None:
        raise ParseError(f"unknown layer type {type_name!r}"
                         f" (layer {name!r})")
    try:
        if cls is InputLayer:
            return InputLayer(name, shape=TensorShape(*doc["shape"]))
        if cls is ConvLayer:
            return ConvLayer(
                name,
                num_output=int(doc["num_output"]),
                kernel=tuple(doc.get("kernel", (1, 1))),
                stride=tuple(doc.get("stride", (1, 1))),
                pad=tuple(doc.get("pad", (0, 0))),
                bias=bool(doc.get("bias", True)),
                activation=Activation(doc.get("activation", "none")),
            )
        if cls is PoolLayer:
            kernel = tuple(doc.get("kernel", (2, 2)))
            return PoolLayer(
                name,
                op=PoolOp(doc.get("op", "max")),
                kernel=kernel,
                stride=tuple(doc["stride"]) if "stride" in doc else None,
                pad=tuple(doc.get("pad", (0, 0))),
                ceil_mode=bool(doc.get("ceil_mode", True)),
            )
        if cls is ActivationLayer:
            return ActivationLayer(name, kind=Activation(doc["kind"]))
        if cls is FlattenLayer:
            return FlattenLayer(name)
        if cls is FullyConnectedLayer:
            return FullyConnectedLayer(
                name,
                num_output=int(doc["num_output"]),
                bias=bool(doc.get("bias", True)),
                activation=Activation(doc.get("activation", "none")),
            )
        if cls is SoftmaxLayer:
            return SoftmaxLayer(name, log=bool(doc.get("log", True)))
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(
            f"invalid parameters for layer {name!r}: {exc}") from exc
    raise AssertionError("unreachable")


def model_to_json(model: CondorModel) -> dict:
    """Serialize a :class:`CondorModel` to a JSON-able dict."""
    layers = []
    for layer in model.network.layers:
        doc = _layer_to_json(layer)
        hint = model.hints.get(layer.name)
        if hint is not None:
            hw: dict = {}
            if hint.in_ports is not None:
                hw["in_ports"] = hint.in_ports
            if hint.out_ports is not None:
                hw["out_ports"] = hint.out_ports
            if hint.cluster is not None:
                hw["cluster"] = hint.cluster
            if hw:
                doc["hw"] = hw
        layers.append(doc)
    return {
        "format_version": FORMAT_VERSION,
        "name": model.network.name,
        "board": model.board,
        "frequency": model.frequency_hz,
        "deployment": model.deployment.value,
        "precision": model.precision,
        "layers": layers,
    }


def model_from_json(doc: dict, *, source: str | None = None) -> CondorModel:
    """Parse a JSON document into a :class:`CondorModel`."""
    version = doc.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ParseError(
            f"unsupported format_version {version!r}", source=source)
    try:
        name = doc["name"]
        layer_docs = doc["layers"]
    except KeyError as exc:
        raise ParseError(f"document missing key {exc}", source=source)
    if not isinstance(layer_docs, list) or not layer_docs:
        raise ParseError("'layers' must be a non-empty list", source=source)
    layers = [_layer_from_json(d) for d in layer_docs]
    hints: dict[str, LayerHints] = {}
    for layer_doc in layer_docs:
        hw = layer_doc.get("hw")
        if hw:
            hints[layer_doc["name"]] = LayerHints(
                in_ports=hw.get("in_ports"),
                out_ports=hw.get("out_ports"),
                cluster=hw.get("cluster"),
            )
    try:
        deployment = DeploymentOption(doc.get("deployment", "on-premise"))
    except ValueError:
        raise ParseError(
            f"unknown deployment option {doc.get('deployment')!r}",
            source=source) from None
    try:
        frequency = parse_freq(doc.get("frequency", 100e6))
    except ValueError as exc:
        raise ParseError(str(exc), source=source) from exc
    precision = doc.get("precision", "fp32")
    try:
        return CondorModel(
            network=Network(name, layers),
            board=doc.get("board", "aws-f1-xcvu9p"),
            frequency_hz=frequency,
            deployment=deployment,
            hints=hints,
            precision=precision,
        )
    except ValidationError as exc:
        if "precision" in str(exc):
            raise ParseError(str(exc), source=source) from exc
        raise


def condor_json_bytes(model: CondorModel) -> bytes:
    """The model as Condor JSON file contents."""
    return (json.dumps(model_to_json(model), indent=2) + "\n").encode()


def save_condor_json(model: CondorModel, path: str | Path) -> Path:
    """Write the model as a Condor JSON file."""
    path = Path(path)
    path.write_bytes(condor_json_bytes(model))
    return path


def load_condor_json(path: str | Path) -> CondorModel:
    """Load a Condor JSON file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno,
                         column=exc.colno, source=str(path)) from exc
    return model_from_json(doc, source=str(path))
