"""Shared C-source emission helpers."""

from __future__ import annotations

import textwrap

HEADER_INCLUDES = """\
#include <hls_stream.h>
#include <ap_int.h>
#include <ap_axi_sdata.h>
"""


def file_header(title: str, metadata: dict[str, object]) -> str:
    """The standard generated-file banner plus the ``@condor`` metadata
    block the simulated HLS front-end parses."""
    lines = [
        "//",
        f"// {title}",
        "// Generated by the Condor automation flow. DO NOT EDIT.",
        "//",
    ]
    for key, value in metadata.items():
        lines.append(f"// @condor {key}={value}")
    lines.append("//")
    return "\n".join(lines) + "\n"


def indent(code: str, levels: int = 1) -> str:
    return textwrap.indent(code, "    " * levels)


def stream_arg(name: str, ctype: str = "float") -> str:
    return f"hls::stream<{ctype}> &{name}"
