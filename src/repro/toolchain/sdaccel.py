"""Simulated SDAccel: kernel XML, ``.xo`` packaging and the xocc link stage
(flow steps 6 and 7).

The kernel-description XML (step 6a) declares the RTL kernel's interfaces —
"an AXI4 master port and an AXI4-Lite slave port" — so SDAccel can treat
the packaged IP as an OpenCL kernel.  The ``.xo`` (step 6b) is a zip
container of the IP manifest + kernel XML (as the real Xilinx object file
is).  ``xocc`` (step 7) links the kernel for a target device: it performs
the device-level resource legality check, runs the frequency-closure model,
and emits the ``.xclbin``.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass

from repro.errors import LinkError, PackagingError, ResourceError
from repro.frontend.condor_format import CondorModel, model_to_json
from repro.hw.calibration import DEFAULT_CALIBRATION, Calibration
from repro.hw.resources import Device, ResourceVector
from repro.toolchain.vivado import VivadoIP
from repro.toolchain.xclbin import Xclbin, pseudo_bitstream, write_xclbin
from repro.util.logging import get_logger

_log = get_logger("toolchain.sdaccel")


def generate_kernel_xml(ip: VivadoIP) -> str:
    """Flow step 6a: the kernel description XML."""
    args = [
        ('ddr_in', 'm_axi', 'gmem0'),
        ('ddr_out', 'm_axi', 'gmem1'),
        ('ddr_weights', 'm_axi', 'gmem2'),
        ('batch', 's_axilite', 'control'),
    ]
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<root versionMajor="1" versionMinor="6">',
             f'  <kernel name="{ip.name}" language="ip"'
             f' vlnv="{ip.vlnv}" attributes=""'
             ' preferredWorkGroupSizeMultiple="0" workGroupSize="1">',
             '    <ports>',
             '      <port name="M_AXI_GMEM" mode="master"'
             ' range="0xFFFFFFFF" dataWidth="512" portType="addressable"'
             ' base="0x0"/>',
             '      <port name="S_AXI_CONTROL" mode="slave"'
             ' range="0x1000" dataWidth="32" portType="addressable"'
             ' base="0x0"/>',
             '    </ports>',
             '    <args>']
    for index, (name, protocol, port) in enumerate(args):
        lines.append(
            f'      <arg name="{name}" addressQualifier="1" id="{index}"'
            f' port="{port}" size="0x8" offset="0x{16 + index * 8:X}"'
            f' hostSize="0x8" type="{protocol}"/>')
    lines += ['    </args>', '  </kernel>', '</root>']
    return "\n".join(lines)


@dataclass
class XoFile:
    """A Xilinx object file: zip of kernel.xml + IP manifest."""

    kernel_name: str
    data: bytes

    @classmethod
    def open(cls, data: bytes) -> "XoFile":
        try:
            with zipfile.ZipFile(io.BytesIO(data)) as zf:
                manifest = json.loads(zf.read("manifest.json").decode())
        except (zipfile.BadZipFile, KeyError, json.JSONDecodeError) as exc:
            raise PackagingError(f"invalid .xo container: {exc}") from exc
        return cls(kernel_name=manifest["kernel"], data=data)

    def read_entry(self, name: str) -> bytes:
        with zipfile.ZipFile(io.BytesIO(self.data)) as zf:
            return zf.read(name)

    def manifest(self) -> dict:
        return json.loads(self.read_entry("manifest.json").decode())

    def resources(self) -> ResourceVector:
        r = self.manifest()["resources"]
        return ResourceVector(lut=r["lut"], ff=r["ff"], dsp=r["dsp"],
                              bram_18k=r["bram_18k"])


#: Timestamp of every ``.xo`` member (the zip format's earliest).
_XO_DATE_TIME = (1980, 1, 1, 0, 0, 0)


def package_xo(ip: VivadoIP, kernel_xml: str,
               *, model: CondorModel | None = None) -> XoFile:
    """Flow step 6b: package the accelerator IP + kernel XML into a .xo.

    The Condor model travels inside the container so the link stage can
    embed the network description into the xclbin (the runtime needs it
    to program the simulated device).
    """
    from repro.obs import span
    from repro.resilience.boundary import run_boundary

    def attempt() -> XoFile:
        with span("toolchain.package-xo", kernel=ip.name):
            return _package_xo(ip, kernel_xml, model=model)

    return run_boundary("toolchain.package-xo", attempt)


def _package_xo(ip: VivadoIP, kernel_xml: str,
                *, model: CondorModel | None) -> XoFile:
    if ip.metadata.get("kind") != "accelerator":
        raise PackagingError(
            f"only the packaged accelerator IP can become a kernel, got"
            f" kind={ip.metadata.get('kind')!r}")
    buffer = io.BytesIO()
    manifest = {
        "kernel": ip.name,
        "vlnv": ip.vlnv,
        "resources": ip.resources.as_dict(),
        "metadata": ip.metadata,
    }
    members = {
        "manifest.json": json.dumps(manifest, indent=2),
        "kernel.xml": kernel_xml,
        "ip/component.xml": ip.component_xml(),
    }
    if model is not None:
        members["ip/network.json"] = json.dumps(model_to_json(model))
    with zipfile.ZipFile(buffer, "w") as zf:
        for name, text in members.items():
            # a fixed timestamp: the same inputs give the same bytes
            info = zipfile.ZipInfo(name, date_time=_XO_DATE_TIME)
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o600 << 16  # unzips as -rw-------
            zf.writestr(info, text)
    return XoFile(kernel_name=ip.name, data=buffer.getvalue())


def achievable_frequency(requested_hz: float, utilization_lut: float,
                         device: Device,
                         cal: Calibration = DEFAULT_CALIBRATION) -> float:
    """The frequency-closure model of the link stage.

    Below the knee utilization the requested clock closes (up to the
    device Fmax); beyond it, routing congestion degrades the achievable
    clock linearly.
    """
    fmax = device.fmax_hz * cal.fmax_headroom
    if utilization_lut > cal.timing_knee_utilization:
        over = utilization_lut - cal.timing_knee_utilization
        fmax *= max(0.2, 1.0 - cal.timing_slope * over)
    return min(requested_hz, fmax)


def xocc_link(xo: XoFile, device: Device, requested_hz: float,
              cal: Calibration = DEFAULT_CALIBRATION,
              *, shell: ResourceVector | None = None) -> Xclbin:
    """Flow step 7: link the kernel for ``device`` and emit the xclbin.

    Raises :class:`LinkError` (wrapping the resource check) when the
    kernel + shell exceed the device, and fails timing when the achieved
    frequency drops below 60% of the request — the same failure modes the
    real toolchain reports.
    """
    from repro.obs import span
    from repro.resilience.boundary import run_boundary

    def attempt() -> Xclbin:
        with span("toolchain.xocc-link", part=device.part):
            return _xocc_link(xo, device, requested_hz, cal, shell=shell)

    return run_boundary("toolchain.xocc-link", attempt)


def _xocc_link(xo: XoFile, device: Device, requested_hz: float,
               cal: Calibration,
               *, shell: ResourceVector | None) -> Xclbin:
    kernel_resources = xo.resources()
    if shell is None:
        # the per-device platform region; the calibration constants match
        # the F1 shell and are used when the device carries no shell data
        shell = device.shell
        if shell == ResourceVector():
            shell = ResourceVector(lut=cal.shell_lut, ff=cal.shell_ff,
                                   dsp=cal.shell_dsp,
                                   bram_18k=cal.shell_bram)
    total = (kernel_resources + shell).ceil()
    try:
        total.check_fits(device.capacity, context=f"kernel {xo.kernel_name}")
    except ResourceError as exc:
        raise LinkError(f"placement failed: {exc}") from exc

    utilization = total.lut / device.capacity.lut
    achieved = achievable_frequency(requested_hz, utilization, device, cal)
    if achieved < 0.6 * requested_hz:
        raise LinkError(
            f"timing closure failed: requested"
            f" {requested_hz / 1e6:.0f} MHz, achieved"
            f" {achieved / 1e6:.0f} MHz")

    meta = {
        "kernel": xo.kernel_name,
        "part": device.part,
        "requested_hz": requested_hz,
        "achieved_hz": achieved,
        "tool": "condor-xocc 2017.4 (simulated)",
    }
    resources = {
        "kernel": kernel_resources.as_dict(),
        "shell": shell.as_dict(),
        "total": total.as_dict(),
        "utilization_pct": total.utilization(device.capacity),
    }
    sections = {
        b"META": json.dumps(meta).encode(),
        b"RSRC": json.dumps(resources).encode(),
        b"BITS": pseudo_bitstream(
            f"{xo.kernel_name}:{device.part}:{achieved}"),
    }
    try:
        sections[b"NETW"] = xo.read_entry("ip/network.json")
    except KeyError:
        raise LinkError(
            "the .xo carries no network description; package it with"
            " model=...") from None
    xclbin = Xclbin(kernel_name=xo.kernel_name, part=device.part,
                    frequency_hz=achieved, sections=sections)
    _log.info("linked %s for %s at %.0f MHz", xo.kernel_name, device.part,
              achieved / 1e6)
    # round-trip through bytes so every consumer sees the file format
    from repro.toolchain.xclbin import read_xclbin
    return read_xclbin(write_xclbin(xclbin))
