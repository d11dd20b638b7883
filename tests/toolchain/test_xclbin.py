"""xclbin container format tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ArtifactError
from repro.toolchain.xclbin import (
    MAGIC,
    Xclbin,
    pseudo_bitstream,
    read_xclbin,
    write_xclbin,
)


def make_xclbin(sections=None):
    default = {b"META": b'{"kernel": "k"}', b"BITS": b"\x00" * 64}
    default.update(sections or {})
    return Xclbin(kernel_name="k", part="xcvu9p", frequency_hz=100e6,
                  sections=default)


class TestRoundtrip:
    def test_basic(self, tmp_path):
        xclbin = make_xclbin()
        path = tmp_path / "k.xclbin"
        path.write_bytes(write_xclbin(xclbin))
        back = read_xclbin(path)
        assert back.kernel_name == "k"
        assert back.part == "xcvu9p"
        assert back.frequency_hz == 100e6
        assert back.sections == xclbin.sections

    def test_magic(self):
        blob = write_xclbin(make_xclbin())
        assert blob.startswith(MAGIC)

    @given(meta=st.binary(max_size=100), bits=st.binary(max_size=200),
           freq=st.floats(1e6, 1e9))
    def test_roundtrip_property(self, meta, bits, freq):
        xclbin = Xclbin(kernel_name="k", part="p", frequency_hz=freq,
                        sections={b"META": meta, b"BITS": bits})
        back = read_xclbin(write_xclbin(xclbin))
        assert back.sections == {b"META": meta, b"BITS": bits}
        assert back.frequency_hz == freq

    def test_section_accessors(self):
        xclbin = make_xclbin({b"META": b'{"a": 1}'})
        xclbin.sections[b"RSRC"] = b'{"total": {}}'
        xclbin.sections[b"NETW"] = b'{"name": "n"}'
        back = read_xclbin(write_xclbin(xclbin))
        assert back.metadata == {"a": 1}
        assert back.resources == {"total": {}}
        assert back.network_json == {"name": "n"}
        assert back.mapping_json is None


class TestCorruption:
    def test_bad_magic(self):
        with pytest.raises(ArtifactError, match="magic"):
            read_xclbin(b"NOTRIGHT" + b"\x00" * 40)

    def test_truncated_header(self):
        blob = write_xclbin(make_xclbin())
        with pytest.raises(ArtifactError):
            read_xclbin(blob[:10])

    def test_truncated_body(self):
        blob = write_xclbin(make_xclbin())
        with pytest.raises(ArtifactError, match="truncated"):
            read_xclbin(blob[:-8])

    def test_checksum_detects_bitflip(self):
        blob = bytearray(write_xclbin(make_xclbin()))
        blob[-1] ^= 0xFF  # flip a payload byte
        with pytest.raises(ArtifactError, match="checksum"):
            read_xclbin(bytes(blob))

    def test_unknown_section_on_write(self):
        xclbin = make_xclbin()
        xclbin.sections[b"EVIL"] = b"x"
        with pytest.raises(ArtifactError, match="unknown section"):
            write_xclbin(xclbin)


class TestPseudoBitstream:
    def test_deterministic(self):
        assert pseudo_bitstream("seed") == pseudo_bitstream("seed")

    def test_seed_sensitivity(self):
        assert pseudo_bitstream("a") != pseudo_bitstream("b")

    def test_size(self):
        assert len(pseudo_bitstream("s", size=1000)) == 1000
