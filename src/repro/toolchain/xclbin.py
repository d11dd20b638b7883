"""The ``xclbin`` binary container (simulated, sectioned format).

The real xclbin is a sectioned binary ("AXLF"); this reimplementation
keeps the same discipline: a fixed magic + header, then tagged sections
with length prefixes and a CRC32 over the payloads.  Sections carried:

``METADATA``
    JSON: kernel name, target part, achieved frequency, tool versions.
``RESOURCES``
    JSON: the linked design's resource usage and device utilization.
``NETWORK``
    The Condor JSON network representation — this is what lets the
    simulated OpenCL runtime reconstruct and execute the accelerator.
``BITSTREAM``
    Deterministic pseudo-bitstream bytes derived from the design hash
    (stands in for the configuration data; never interpreted).
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ArtifactError

MAGIC = b"XCONDOR1"
_SECTION_HEADER = struct.Struct("<4sQ")  # tag, payload length
_KNOWN_TAGS = (b"META", b"RSRC", b"NETW", b"BITS", b"MAPG")


@dataclass
class Xclbin:
    """An in-memory xclbin: header fields + sections."""

    kernel_name: str
    part: str
    frequency_hz: float
    sections: dict[bytes, bytes] = field(default_factory=dict)

    @property
    def metadata(self) -> dict:
        return json.loads(self.sections[b"META"].decode())

    @property
    def resources(self) -> dict:
        return json.loads(self.sections[b"RSRC"].decode())

    @property
    def network_json(self) -> dict:
        return json.loads(self.sections[b"NETW"].decode())

    @property
    def mapping_json(self) -> dict | None:
        raw = self.sections.get(b"MAPG")
        return json.loads(raw.decode()) if raw else None


def _header_bytes(xclbin: Xclbin) -> bytes:
    name = xclbin.kernel_name.encode()
    part = xclbin.part.encode()
    return (struct.pack("<H", len(name)) + name +
            struct.pack("<H", len(part)) + part +
            struct.pack("<d", xclbin.frequency_hz))


def write_xclbin(xclbin: Xclbin) -> bytes:
    """Serialize an xclbin."""
    body = bytearray()
    crc = 0
    for tag, payload in sorted(xclbin.sections.items()):
        if tag not in _KNOWN_TAGS:
            raise ArtifactError(f"unknown section tag {tag!r}")
        body += _SECTION_HEADER.pack(tag, len(payload))
        body += payload
        crc = zlib.crc32(payload, crc)
    return (MAGIC + _header_bytes(xclbin) +
            struct.pack("<IQ", crc & 0xFFFFFFFF, len(body)) + bytes(body))


def read_xclbin(data: bytes | str | Path) -> Xclbin:
    """Parse an xclbin from bytes or a file path."""
    if isinstance(data, (str, Path)):
        data = Path(data).read_bytes()
    if data[:8] != MAGIC:
        raise ArtifactError("not an xclbin: bad magic")
    pos = 8
    try:
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        kernel_name = data[pos:pos + name_len].decode()
        pos += name_len
        (part_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        part = data[pos:pos + part_len].decode()
        pos += part_len
        (frequency,) = struct.unpack_from("<d", data, pos)
        pos += 8
        crc_expected, body_len = struct.unpack_from("<IQ", data, pos)
        pos += 12
    except struct.error as exc:
        raise ArtifactError(f"truncated xclbin header: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"corrupt xclbin header strings: {exc}") \
            from exc
    body = data[pos:pos + body_len]
    if len(body) != body_len:
        raise ArtifactError("truncated xclbin body")
    sections: dict[bytes, bytes] = {}
    crc = 0
    offset = 0
    while offset < len(body):
        try:
            tag, length = _SECTION_HEADER.unpack_from(body, offset)
        except struct.error as exc:
            raise ArtifactError(f"corrupt section header: {exc}") from exc
        offset += _SECTION_HEADER.size
        payload = body[offset:offset + length]
        if len(payload) != length:
            raise ArtifactError(f"truncated section {tag!r}")
        offset += length
        if tag not in _KNOWN_TAGS:
            raise ArtifactError(f"unknown section tag {tag!r}")
        sections[tag] = payload
        crc = zlib.crc32(payload, crc)
    if crc & 0xFFFFFFFF != crc_expected:
        raise ArtifactError("xclbin checksum mismatch")
    return Xclbin(kernel_name=kernel_name, part=part,
                  frequency_hz=frequency, sections=sections)


def pseudo_bitstream(seed: str, size: int = 4096) -> bytes:
    """Deterministic configuration-data stand-in derived from a hash."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(f"{seed}:{counter}".encode()).digest()
        counter += 1
    return bytes(out[:size])
