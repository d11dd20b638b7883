"""CLI tests (driving main() directly)."""

import pytest

from repro.cli import main
from repro.frontend.condor_format import save_condor_json
from repro.frontend.onnx import save_onnx
from repro.frontend.weights import WeightStore
from repro.frontend.zoo import lenet_caffe_files, tc1_model, tc1_network


@pytest.fixture
def tc1_json(tmp_path):
    return str(save_condor_json(tc1_model(), tmp_path / "tc1.json"))


@pytest.fixture
def tc1_onnx(tmp_path):
    net = tc1_network()
    return str(save_onnx(net, tmp_path / "tc1.onnx",
                         WeightStore.initialize(net)))


class TestInfo:
    def test_info_json(self, tc1_json, tmp_path, capsys):
        assert main(["--workdir", str(tmp_path / "w"), "info",
                     tc1_json]) == 0
        out = capsys.readouterr().out
        assert "network: tc1" in out
        assert "1x16x16" in out
        assert "conv1" in out

    def test_info_prototxt(self, tmp_path, capsys):
        prototxt, caffemodel = lenet_caffe_files(tmp_path / "caffe")
        assert main(["--workdir", str(tmp_path / "w"), "info",
                     str(prototxt), "--weights", str(caffemodel)]) == 0
        out = capsys.readouterr().out
        assert "network: LeNet" in out
        assert "431,080" in out  # LeNet parameter count

    def test_info_onnx(self, tc1_onnx, tmp_path, capsys):
        assert main(["--workdir", str(tmp_path / "w"), "info",
                     tc1_onnx]) == 0
        assert "tc1" in capsys.readouterr().out

    def test_unknown_extension(self, tmp_path, capsys):
        assert main(["--workdir", str(tmp_path / "w"), "info",
                     "model.xyz"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBuild:
    def test_build_on_premise(self, tc1_json, tmp_path, capsys):
        workdir = tmp_path / "w"
        assert main(["--workdir", str(workdir), "build", tc1_json]) == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out
        assert (workdir / "tc1.xclbin").is_file()

    def test_build_cloud_deploy(self, tc1_json, tmp_path, capsys):
        workdir = tmp_path / "w"
        assert main(["--workdir", str(workdir), "build", tc1_json,
                     "--deploy", "aws-f1"]) == 0
        out = capsys.readouterr().out
        assert "AGFI" in out
        assert (workdir / "afi.json").is_file()

    def test_build_with_frequency_override(self, tc1_json, tmp_path,
                                           capsys):
        assert main(["--workdir", str(tmp_path / "w"), "build", tc1_json,
                     "--frequency", "150MHz"]) == 0
        assert "150 MHz" in capsys.readouterr().out

    def test_build_failure_reported(self, tc1_json, tmp_path, capsys):
        # TC1 cannot close timing at 400 MHz on the VU9P
        assert main(["--workdir", str(tmp_path / "w"), "build", tc1_json,
                     "--frequency", "400MHz"]) == 1
        assert "error:" in capsys.readouterr().err


class TestProfile:
    def test_profile_prints_step_table(self, tc1_json, tmp_path, capsys):
        workdir = tmp_path / "w"
        assert main(["--workdir", str(workdir), "profile",
                     tc1_json]) == 0
        out = capsys.readouterr().out
        assert "% of run" in out
        assert "1-input-analysis" in out
        assert "TOTAL" in out
        assert (workdir / "telemetry.json").is_file()
        assert (workdir / "trace.json").is_file()

    def test_profile_trace_is_valid_trace_event_json(self, tc1_json,
                                                     tmp_path, capsys):
        import json

        workdir = tmp_path / "w"
        trace_path = tmp_path / "flow_trace.json"
        assert main(["--workdir", str(workdir), "profile", tc1_json,
                     "--trace-json", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text())
        events = doc["traceEvents"]
        assert any(e["name"] == "condor.flow" for e in events
                   if e["ph"] == "X")
        ts = [e["ts"] for e in events if e["ph"] != "M"]
        assert ts == sorted(ts)
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0

    def test_profile_metrics_dump(self, tc1_json, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.prom"
        assert main(["--workdir", str(tmp_path / "w"), "profile",
                     tc1_json, "--metrics", str(metrics_path)]) == 0
        text = metrics_path.read_text()
        assert "condor_flow_steps_started_total" in text
        assert "# TYPE condor_flow_steps_started_total counter" in text


class TestTelemetryFlags:
    def test_build_trace_json(self, tc1_json, tmp_path, capsys):
        import json

        trace_path = tmp_path / "t.json"
        assert main(["--workdir", str(tmp_path / "w"), "build", tc1_json,
                     "--trace-json", str(trace_path)]) == 0
        assert json.loads(trace_path.read_text())["traceEvents"]

    def test_simulate_trace_and_metrics(self, tc1_json, tmp_path,
                                        capsys):
        import json

        trace_path = tmp_path / "sim.json"
        metrics_path = tmp_path / "m.prom"
        assert main(["--workdir", str(tmp_path / "w"), "simulate",
                     tc1_json, "--batch", "1",
                     "--trace-json", str(trace_path),
                     "--metrics", str(metrics_path)]) == 0
        doc = json.loads(trace_path.read_text())
        assert any(e["name"] == "sim.run" for e in doc["traceEvents"]
                   if e["ph"] == "X")
        assert "condor_sim_cycles_total" in metrics_path.read_text()

    def test_dse_trace_json(self, tmp_path, capsys):
        import json

        from repro.frontend.condor_format import CondorModel, \
            save_condor_json
        model = tc1_model()
        features = CondorModel(network=model.network.features_subnetwork())
        path = save_condor_json(features, tmp_path / "f.json")
        trace_path = tmp_path / "dse.json"
        assert main(["--workdir", str(tmp_path / "w"), "dse", str(path),
                     "--trace-json", str(trace_path)]) == 0
        doc = json.loads(trace_path.read_text())
        assert any(e["name"] == "dse.explore" for e in doc["traceEvents"]
                   if e["ph"] == "X")


class TestDseSimulateFigure5:
    def test_dse(self, tmp_path, capsys):
        model = tc1_model()
        from repro.frontend.condor_format import CondorModel
        features = CondorModel(network=model.network.features_subnetwork())
        path = save_condor_json(features, tmp_path / "f.json")
        assert main(["--workdir", str(tmp_path / "w"), "dse",
                     str(path)]) == 0
        out = capsys.readouterr().out
        assert "best II" in out
        assert "in=" in out

    @pytest.mark.parametrize("argv", [["dse", "model.json", "--jobs", "2"],
                                      ["bench", "--jobs", "2"],
                                      ["bench", "--op", "tsan-overhead"]])
    def test_removed_options_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_simulate(self, tc1_json, tmp_path, capsys):
        assert main(["--workdir", str(tmp_path / "w"), "simulate",
                     tc1_json, "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "simulated batch of 2" in out
        assert "pe_conv1" in out

    def test_figure5(self, tmp_path, capsys):
        assert main(["--workdir", str(tmp_path / "w"), "figure5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "LeNet" in out


class TestConvert:
    def test_caffe_to_onnx(self, tmp_path, capsys):
        prototxt, caffemodel = lenet_caffe_files(tmp_path / "caffe")
        out = tmp_path / "lenet.onnx"
        assert main(["--workdir", str(tmp_path / "w"), "convert",
                     str(prototxt), str(out), "--weights",
                     str(caffemodel)]) == 0
        assert out.is_file()
        # the produced ONNX converts back to the same topology
        from repro.frontend.onnx import convert_onnx_model, load_onnx
        back = convert_onnx_model(load_onnx(out))
        assert back.network.output_shape().as_tuple() == (10, 1, 1)

    def test_onnx_to_caffe(self, tc1_onnx, tmp_path, capsys):
        out = tmp_path / "tc1.prototxt"
        # TC1 ends in LogSoftmax which Caffe cannot express
        assert main(["--workdir", str(tmp_path / "w"), "convert",
                     tc1_onnx, str(out)]) == 1
        assert "LogSoftmax" in capsys.readouterr().err

    def test_json_to_caffe(self, tmp_path, capsys):
        from repro.frontend.condor_format import CondorModel, \
            save_condor_json
        from repro.frontend.zoo import lenet_network

        path = save_condor_json(CondorModel(network=lenet_network()),
                                tmp_path / "lenet.json")
        out = tmp_path / "out.prototxt"
        assert main(["--workdir", str(tmp_path / "w"), "convert",
                     str(path), str(out)]) == 0
        assert out.is_file()
        assert 'type: "InnerProduct"' in out.read_text()

    def test_unknown_target(self, tc1_json, tmp_path, capsys):
        assert main(["--workdir", str(tmp_path / "w"), "convert",
                     tc1_json, str(tmp_path / "m.xyz")]) == 1
        assert "unknown target" in capsys.readouterr().err


class TestCheck:
    def test_check_clean_model(self, tc1_json, tmp_path, capsys):
        assert main(["--workdir", str(tmp_path / "w"), "check",
                     tc1_json]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_check_zoo(self, tmp_path, capsys):
        assert main(["--workdir", str(tmp_path / "w"), "check",
                     "--zoo"]) == 0
        out = capsys.readouterr().out
        for name in ("tc1", "LeNet", "CIFAR10_quick", "vgg16"):
            assert name in out

    def test_check_json_format(self, tc1_json, tmp_path, capsys):
        import json

        assert main(["--workdir", str(tmp_path / "w"), "check", tc1_json,
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "tc1"
        assert doc["summary"]["errors"] == 0
        assert "fifo-deadlock" in doc["passes"]

    def test_check_select_passes(self, tc1_json, tmp_path, capsys):
        import json

        assert main(["--workdir", str(tmp_path / "w"), "check", tc1_json,
                     "--select", "shape-legality,dead-layer",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passes"] == ["shape-legality", "dead-layer"]

    def test_check_fail_on_warning(self, tc1_json, tmp_path, capsys):
        # tc1 carries rate-mismatch warnings: --fail-on warning trips
        assert main(["--workdir", str(tmp_path / "w"), "check", tc1_json,
                     "--fail-on", "warning"]) == 1

    def test_check_broken_model_exits_nonzero(self, tmp_path, capsys):
        from repro.frontend.zoo.broken import overbudget_model

        path = save_condor_json(overbudget_model(),
                                tmp_path / "bad.json")
        assert main(["--workdir", str(tmp_path / "w"), "check",
                     str(path)]) == 1
        assert "RES001" in capsys.readouterr().out

    def test_check_list_passes(self, tmp_path, capsys):
        assert main(["--workdir", str(tmp_path / "w"), "check",
                     "--list-passes"]) == 0
        out = capsys.readouterr().out
        assert "fifo-deadlock" in out
        assert "resource-budget" in out

    def test_check_requires_model_or_zoo(self, tmp_path, capsys):
        assert main(["--workdir", str(tmp_path / "w"), "check"]) == 1
        assert "provide a model" in capsys.readouterr().err


class TestCheckGate:
    def test_build_gate_blocks_broken_model(self, tmp_path, capsys):
        from repro.frontend.zoo.broken import overbudget_model

        path = save_condor_json(overbudget_model(),
                                tmp_path / "bad.json")
        workdir = tmp_path / "w"
        assert main(["--workdir", str(workdir), "build",
                     str(path)]) == 1
        assert "2b-static-analysis" in capsys.readouterr().err
        # the gate leaves its reports behind for diagnosis
        assert (workdir / "reports" / "analysis.txt").is_file()
        assert (workdir / "reports" / "analysis.json").is_file()

    def test_build_gate_writes_reports_on_success(self, tc1_json,
                                                  tmp_path, capsys):
        workdir = tmp_path / "w"
        assert main(["--workdir", str(workdir), "build", tc1_json]) == 0
        assert "2b-static-analysis" in capsys.readouterr().out
        text = (workdir / "reports" / "analysis.txt").read_text()
        assert "0 error(s)" in text

    def test_no_check_bypasses_gate(self, tmp_path, capsys):
        from repro.frontend.zoo.broken import overclocked_model

        path = save_condor_json(overclocked_model(),
                                tmp_path / "fast.json")
        workdir = tmp_path / "w"
        # with the gate: blocked by RES003
        assert main(["--workdir", str(workdir), "check",
                     str(path)]) == 1
        capsys.readouterr()
        # --no-check: the flow proceeds until the toolchain rejects the
        # clock instead
        assert main(["--workdir", str(workdir), "build", str(path),
                     "--no-check"]) == 1
        err = capsys.readouterr().err
        assert "2b-static-analysis" not in err

    def test_simulate_gate(self, tmp_path, capsys):
        from repro.frontend.zoo.broken import overbudget_model

        path = save_condor_json(overbudget_model(),
                                tmp_path / "bad.json")
        assert main(["--workdir", str(tmp_path / "w"), "simulate",
                     str(path), "--batch", "1"]) == 1
        assert "static analysis found" in capsys.readouterr().err


class TestResumeCLI:
    @pytest.fixture
    def cloud_json(self, tmp_path):
        from repro.frontend.condor_format import DeploymentOption
        from repro.frontend.zoo import lenet_model

        model = lenet_model(DeploymentOption.AWS_F1)
        return str(save_condor_json(model, tmp_path / "lenet.json"))

    def test_resume_prints_restoration_notes(self, cloud_json, tmp_path,
                                             capsys):
        workdir = tmp_path / "w"
        assert main(["--workdir", str(workdir), "build",
                     cloud_json]) == 0
        first = capsys.readouterr().out
        assert "restored from checkpoint" not in first
        assert main(["--workdir", str(workdir), "build", cloud_json,
                     "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "(restored from checkpoint)" in resumed

    def test_afi_max_polls_degrades_gracefully(self, cloud_json,
                                               tmp_path, capsys):
        workdir = tmp_path / "w"
        assert main(["--workdir", str(workdir), "build", cloud_json,
                     "--deploy", "aws-f1", "--afi-max-polls", "1"]) == 0
        out = capsys.readouterr().out
        assert "WARNING" in out
        assert "--resume" in out
        assert (workdir / "LeNet.xclbin").is_file()


class TestChaos:
    def test_chaos_single_model(self, tc1_json, tmp_path, capsys):
        assert main(["--workdir", str(tmp_path / "w"), "chaos",
                     tc1_json, "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "survived" in out
        assert "tc1" in out

    def test_chaos_json_format(self, tc1_json, tmp_path, capsys):
        import json

        assert main(["--workdir", str(tmp_path / "w"), "chaos",
                     tc1_json, "--seeds", "2", "--format",
                     "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["runs"] == 2
        assert doc["summary"]["survived"] == 2
        assert {"network", "seed", "status", "faults",
                "resilience"} <= set(doc["runs"][0])

    def test_chaos_requires_model_or_zoo(self, tmp_path, capsys):
        assert main(["--workdir", str(tmp_path / "w"), "chaos"]) == 1
        assert "error:" in capsys.readouterr().err
