"""Generate the full source bundle of an accelerator."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codegen.datamover import generate_datamover_source
from repro.codegen.filters import generate_subsystem_sources
from repro.codegen.host import generate_host_source
from repro.codegen.pe import generate_pe_source
from repro.hw.components import Accelerator
from repro.ir.layers import ConvLayer, PoolLayer
from repro.util.naming import sanitize_identifier


@dataclass
class SourceBundle:
    """Every generated source file, keyed by relative path."""

    files: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.files)

    def __getitem__(self, path: str) -> str:
        return self.files[path]

    def __contains__(self, path: str) -> bool:
        return path in self.files

    def paths(self) -> list[str]:
        return sorted(self.files)

    def total_lines(self) -> int:
        return sum(text.count("\n") for text in self.files.values())


def generate_sources(acc: Accelerator) -> SourceBundle:
    """Emit the PE, filter, datamover and host sources for ``acc``."""
    bundle = SourceBundle()
    net = acc.network
    for pe in acc.pes:
        pe_dir = f"pe/{sanitize_identifier(pe.name)}"
        bundle.files[f"{pe_dir}/{sanitize_identifier(pe.name)}.cpp"] = \
            generate_pe_source(acc, pe)
        first = net[pe.layer_names[0]]
        stride = first.stride if isinstance(first, (ConvLayer, PoolLayer)) \
            else (1, 1)
        for subsystem in pe.memory:
            in_shape = net.input_shape(pe.layer_names[0])
            pad = getattr(first, "pad", (0, 0))
            height = in_shape.height + 2 * pad[0]
            for name, text in generate_subsystem_sources(
                    subsystem, height, stride or (1, 1)).items():
                bundle.files[f"{pe_dir}/filters/{name}"] = text
    bundle.files["datamover/datamover.cpp"] = \
        generate_datamover_source(acc)
    bundle.files["host/host.cpp"] = generate_host_source(acc)
    return bundle
