"""Flow F1 — end-to-end automation cost.

Times the full eight-step flow (Caffe LeNet → AFI) and reports per-step
wall time, validating that every artifact of §3.3 is produced: the Condor
JSON, the generated sources, the resource report, kernel.xml, the .xo,
the .xclbin, the default host code, and the AFI record.
"""

import tempfile
from pathlib import Path

from repro.cloud.client import AWSSession
from repro.flow import CondorFlow, FlowInputs
from repro.frontend.condor_format import DeploymentOption
from repro.frontend.zoo import lenet_caffe_files
from repro.util.tables import TextTable


def _run():
    tmp = Path(tempfile.mkdtemp(prefix="condor-bench-flow-"))
    prototxt, caffemodel = lenet_caffe_files(tmp / "caffe")
    aws = AWSSession()
    flow = CondorFlow(tmp / "work", aws=aws)
    result = flow.run(FlowInputs(
        prototxt=prototxt, caffemodel=caffemodel,
        deployment=DeploymentOption.AWS_F1, frequency_hz=180e6))
    return result


def test_flow_end_to_end(benchmark, report):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)

    table = TextTable(["step", "seconds"], float_format="{:.3f}")
    for step in result.steps:
        table.add_row([step.name, step.seconds])
    report("Flow F1 - end-to-end (Caffe LeNet -> AFI)",
           table.render() + "\n\n" + result.summary())

    # the paper's eight steps (3-5 run as one) and the static-analysis
    # gate the flow runs by default all ran
    names = [s.name for s in result.steps]
    assert names == [
        "1-input-analysis", "2-design-space-exploration",
        "2b-static-analysis", "3-5-hardware-generation", "6-sdaccel-integration",
        "7-deployment-on-board", "8-afi-creation",
    ]
    # every artifact exists
    workdir = result.workdir
    assert (workdir / "network.condor.json").is_file()
    assert (workdir / "weights" / "weights.json").is_file()
    assert (workdir / "kernel.xml").is_file()
    assert result.xclbin_path.is_file()
    assert result.host_path.is_file()
    assert (workdir / "afi.json").is_file()
    assert any((workdir / "sources").rglob("*.cpp"))
    assert result.agfi_id and result.agfi_id.startswith("agfi-")
