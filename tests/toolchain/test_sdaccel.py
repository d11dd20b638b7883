"""SDAccel integration tests: kernel XML, .xo, xocc link."""

import pytest

from repro.errors import LinkError, PackagingError
from repro.frontend.condor_format import DeploymentOption
from repro.frontend.zoo import lenet_model, tc1_model
from repro.hw.accelerator import build_accelerator
from repro.hw.resources import device_for_board
from repro.toolchain.assemble import build_network_ip
from repro.toolchain.hls import VivadoHLS
from repro.toolchain.sdaccel import (
    XoFile,
    achievable_frequency,
    generate_kernel_xml,
    package_xo,
    xocc_link,
)


@pytest.fixture(scope="module")
def tc1_setup():
    model = tc1_model(DeploymentOption.ON_PREMISE)
    acc = build_accelerator(model)
    hls = VivadoHLS("xcvu9p", model.frequency_hz)
    assembly = build_network_ip(acc, hls)
    return model, acc, assembly


class TestKernelXml:
    def test_contents(self, tc1_setup):
        _, _, assembly = tc1_setup
        xml = generate_kernel_xml(assembly.accelerator_ip)
        assert '<kernel name="tc1"' in xml
        assert 'vlnv="polimi.it:condor:tc1:1.0"' in xml
        assert 'M_AXI_GMEM' in xml and 'S_AXI_CONTROL' in xml
        assert '<arg name="batch"' in xml


class TestXoPackaging:
    def test_package_and_reopen(self, tc1_setup):
        model, _, assembly = tc1_setup
        xml = generate_kernel_xml(assembly.accelerator_ip)
        xo = package_xo(assembly.accelerator_ip, xml, model=model)
        reopened = XoFile.open(xo.data)
        assert reopened.kernel_name == "tc1"
        manifest = reopened.manifest()
        assert manifest["vlnv"].endswith("tc1:1.0")
        assert reopened.resources().dsp == \
            assembly.accelerator_ip.resources.dsp
        assert b"network.json" in xo.data or \
            reopened.read_entry("ip/network.json")

    def test_packaging_is_reproducible(self, tc1_setup, monkeypatch):
        """Two packagings of the same inputs, at different wall-clock
        times, give the same bytes."""
        import time

        model, _, assembly = tc1_setup
        xml = generate_kernel_xml(assembly.accelerator_ip)
        packaged = []
        for now in (1_000_000_000.0, 1_700_000_000.0):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            packaged.append(package_xo(assembly.accelerator_ip, xml,
                                       model=model).data)
        assert packaged[0] == packaged[1]

    def test_only_accelerator_ip_packagable(self, tc1_setup):
        _, _, assembly = tc1_setup
        with pytest.raises(PackagingError, match="accelerator"):
            package_xo(assembly.layer_ips[0], "<xml/>")

    def test_invalid_container_rejected(self):
        with pytest.raises(PackagingError, match="invalid"):
            XoFile.open(b"not a zip")


class TestXoccLink:
    def test_successful_link(self, tc1_setup):
        model, _, assembly = tc1_setup
        xml = generate_kernel_xml(assembly.accelerator_ip)
        xo = package_xo(assembly.accelerator_ip, xml, model=model)
        device = device_for_board("aws-f1-xcvu9p")
        xclbin = xocc_link(xo, device, 100e6)
        assert xclbin.kernel_name == "tc1"
        assert xclbin.frequency_hz == 100e6  # closes at the request
        assert xclbin.network_json["name"] == "tc1"
        util = xclbin.resources["utilization_pct"]
        assert 5 < util["lut"] < 20

    def test_placement_failure_on_small_device(self, tc1_setup):
        """LeNet's on-chip FC weights cannot fit a Zynq-7020."""
        model = lenet_model(DeploymentOption.ON_PREMISE)
        acc = build_accelerator(model)
        hls = VivadoHLS("xcvu9p", model.frequency_hz)
        assembly = build_network_ip(acc, hls)
        xo = package_xo(assembly.accelerator_ip,
                        generate_kernel_xml(assembly.accelerator_ip),
                        model=model)
        with pytest.raises(LinkError, match="placement"):
            xocc_link(xo, device_for_board("pynq-z1"), 100e6)

    def test_xo_without_network_rejected(self, tc1_setup):
        model, _, assembly = tc1_setup
        xo = package_xo(assembly.accelerator_ip,
                        generate_kernel_xml(assembly.accelerator_ip))
        with pytest.raises(LinkError, match="network description"):
            xocc_link(xo, device_for_board("aws-f1-xcvu9p"), 100e6)


class TestFrequencyClosure:
    def test_below_knee_closes_at_request(self):
        device = device_for_board("aws-f1-xcvu9p")
        assert achievable_frequency(200e6, 0.30, device) == 200e6

    def test_capped_by_device_fmax(self):
        device = device_for_board("aws-f1-xcvu9p")
        assert achievable_frequency(400e6, 0.10, device) == device.fmax_hz

    def test_congestion_derate(self):
        device = device_for_board("aws-f1-xcvu9p")
        low = achievable_frequency(250e6, 0.60, device)
        high = achievable_frequency(250e6, 0.90, device)
        assert high < low < 250e6

    def test_monotone_in_utilization(self):
        device = device_for_board("aws-f1-xcvu9p")
        freqs = [achievable_frequency(250e6, u, device)
                 for u in (0.1, 0.4, 0.6, 0.8, 0.95)]
        assert all(a >= b for a, b in zip(freqs, freqs[1:]))
