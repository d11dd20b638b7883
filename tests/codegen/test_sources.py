"""Code generation tests: structure and metadata of the emitted HLS C."""

import re

import pytest

from repro.codegen import (
    generate_datamover_source,
    generate_filter_source,
    generate_host_source,
    generate_pe_source,
    generate_sources,
)
from repro.codegen.filters import filter_inequalities
from repro.frontend.condor_format import CondorModel, LayerHints
from repro.frontend.zoo import lenet_model, tc1_model
from repro.hw.accelerator import build_accelerator
from repro.toolchain.hls import parse_condor_metadata


@pytest.fixture(scope="module")
def tc1_acc():
    return build_accelerator(tc1_model())


class TestPESource:
    def test_conv_pe_structure(self, tc1_acc):
        src = generate_pe_source(tc1_acc, tc1_acc.pe("pe_conv1"))
        assert "void pe_conv1(" in src
        assert "hls::stream<float> &in_stream0" in src
        assert "hls::stream<float> &out_stream0" in src
        assert "hls::stream<float> &weight_stream" in src
        assert "#pragma HLS PIPELINE II=1" in src
        assert "#pragma HLS UNROLL" in src
        assert "static float weights_conv1[300];" in src
        assert "static float bias_conv1[12];" in src
        # window loop bound = 5*5
        assert "k < 25" in src

    def test_metadata_roundtrip(self, tc1_acc):
        src = generate_pe_source(tc1_acc, tc1_acc.pe("pe_conv2"))
        meta = parse_condor_metadata(src)
        assert meta["kind"] == "pe"
        assert meta["pe.kind"] == "conv"
        assert meta["pe.layers"] == "conv2"
        assert meta["pe.window"] == "5x5"
        assert int(meta["pe.weight_words"]) == 12 * 12 * 25 + 12

    def test_fc_pe_is_1x1_conv_form(self, tc1_acc):
        src = generate_pe_source(tc1_acc, tc1_acc.pe("pe_fc"))
        assert "single-input/single-output" in src
        assert "weight_stream" in src
        meta = parse_condor_metadata(src)
        assert meta["pe.kind"] == "fc"

    def test_pool_pe_has_no_weights(self, tc1_acc):
        src = generate_pe_source(tc1_acc, tc1_acc.pe("pe_pool1"))
        assert "weight_stream" not in src
        assert "fmaxf" in src  # max pooling comparator

    def test_fused_pe_layer_select_loop(self):
        model = tc1_model()
        model.hints = {"conv1": LayerHints(cluster="f"),
                       "pool1": LayerHints(cluster="f")}
        acc = build_accelerator(model)
        src = generate_pe_source(acc, acc.pe_for_layer("conv1"))
        assert "layer_loop:" in src
        assert "if (layer == 0)" in src
        assert "if (layer == 1)" in src

    def test_parallel_ports_in_signature(self):
        model = lenet_model()
        model.hints = {"conv2": LayerHints(in_ports=2, out_ports=4)}
        acc = build_accelerator(model)
        src = generate_pe_source(acc, acc.pe_for_layer("conv2"))
        assert "in_stream1" in src and "out_stream3" in src
        assert "#pragma HLS INTERFACE axis port=in_stream1" in src


class TestFilterSource:
    def test_inequalities_for_access(self, tc1_acc):
        pe = tc1_acc.pe("pe_conv1")
        subsystem = pe.memory[0]
        node = subsystem.filters[-1]  # access (0, 0)
        conds = filter_inequalities(subsystem.spec, node, 16)
        assert "row >= 0" in conds
        assert "row <= 11" in conds  # 16 - 5 + 0
        assert "col <= 11" in conds

    def test_stride_conditions(self, tc1_acc):
        pe = tc1_acc.pe("pe_conv1")
        subsystem = pe.memory[0]
        node = subsystem.filters[0]
        conds = filter_inequalities(subsystem.spec, node, 16, stride=(2, 2))
        assert any("% 2 == 0" in c for c in conds)

    def test_last_filter_does_not_forward(self, tc1_acc):
        pe = tc1_acc.pe("pe_conv1")
        subsystem = pe.memory[0]
        last = generate_filter_source(subsystem, subsystem.filters[-1], 16)
        first = generate_filter_source(subsystem, subsystem.filters[0], 16)
        assert "to_next" not in last
        assert "to_next.write(v);" in first

    def test_metadata(self, tc1_acc):
        pe = tc1_acc.pe("pe_conv1")
        subsystem = pe.memory[0]
        meta = parse_condor_metadata(
            generate_filter_source(subsystem, subsystem.filters[3], 16))
        assert meta["kind"] == "filter"
        assert meta["filter.position"] == "3"
        assert meta["filter.window"] == "5x5"


class TestDatamoverAndHost:
    def test_datamover_ports(self, tc1_acc):
        src = generate_datamover_source(tc1_acc)
        assert "m_axi" in src
        assert "weights_pe_conv1" in src
        assert "weights_pe_fc" in src
        assert "weights_pe_pool1" not in src
        meta = parse_condor_metadata(src)
        assert meta["kind"] == "datamover"
        assert int(meta["dm.input_words"]) == 256

    def test_host_program(self, tc1_acc):
        src = generate_host_source(tc1_acc)
        assert "cl::Kernel kernel(program, \"tc1\")" in src
        assert "us/image" in src  # the Figure 5 measurement loop
        assert 'int main' in src


class TestBundle:
    def test_bundle_contents(self, tc1_acc):
        bundle = generate_sources(tc1_acc)
        # conv PEs have 5x5 chains (25 filters), pool PEs 2x2 chains (4):
        # pooling layers use the memory subsystem too (paper 3.2)
        filter_files = [p for p in bundle.paths() if "/filters/" in p]
        assert len(filter_files) == 25 + 25 + 4 + 4
        assert "datamover/datamover.cpp" in bundle
        assert "host/host.cpp" in bundle
        pe_files = [p for p in bundle.paths()
                    if p.startswith("pe/") and "/filters/" not in p]
        assert len(pe_files) == 6

    def test_write_to_disk(self, tc1_acc, tmp_path):
        """The flow writes ``bundle.files`` through the build's store."""
        from repro.resilience import CheckpointStore

        bundle = generate_sources(tc1_acc)
        store = CheckpointStore(tmp_path)
        for path, text in bundle.files.items():
            store.write(f"sources/{path}", text)
        for path in bundle.paths():
            assert (tmp_path / "sources" / path).read_text() == \
                bundle[path]
        assert sorted(store.save("sources", "d").artifacts) == \
            [f"sources/{path}" for path in bundle.paths()]

    def test_total_lines_positive(self, tc1_acc):
        bundle = generate_sources(tc1_acc)
        assert bundle.total_lines() > 1000

    def test_every_file_is_parsable_c_shape(self, tc1_acc):
        """Cheap syntactic sanity: balanced braces in every source."""
        bundle = generate_sources(tc1_acc)
        for path in bundle.paths():
            text = bundle[path]
            assert text.count("{") == text.count("}"), path
            assert text.count("(") == text.count(")"), path

    def test_all_kernel_sources_have_metadata(self, tc1_acc):
        bundle = generate_sources(tc1_acc)
        for path in bundle.paths():
            if path.startswith("host/"):
                continue
            meta = parse_condor_metadata(bundle[path])
            assert meta.get("kind") in ("pe", "filter", "datamover"), path
