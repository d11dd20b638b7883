"""The ``condor audit`` surface, including THE acceptance bar: the
shipped ``src/repro`` tree must audit clean (zero unwaived findings at
warning level or above)."""

import json
import textwrap

from repro.analysis.conc import audit_tree, default_audit_root
from repro.cli import main


def test_default_root_is_the_shipped_package():
    root = default_audit_root()
    assert root.name == "repro"
    assert (root / "cli.py").is_file()


def test_shipped_tree_audits_clean():
    # the acceptance criterion: no unwaived CONC diagnostics on src/repro
    result = audit_tree()
    assert result.report.errors == []
    assert result.report.warnings == [], "\n".join(
        d.render() for d in result.report.warnings)
    # every waiver must carry a reason
    for waiver in result.waivers:
        assert waiver.reason, f"waiver without reason at {waiver.path}"


def test_shipped_lock_order_graph_is_acyclic_and_documented():
    result = audit_tree()
    assert result.program.lock_cycles() == []
    # the documented hierarchy (docs/INTERNALS.md): every nested
    # acquisition bottoms out in the Metric leaf lock; subsystems whose
    # counts the registry reads at collect time take no metric lock
    edges = result.lock_order_edges()
    assert edges == {
        ("obs.metrics.MetricsRegistry", "obs.metrics.Metric"),
        ("obs.sampler.TelemetrySampler", "obs.metrics.Metric"),
    }


def test_cli_audit_clean_exit(capsys):
    rc = main(["audit", "--fail-on", "warning"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 error(s), 0 warning(s)" in out


def test_cli_audit_graph_flag(capsys):
    rc = main(["audit", "--graph"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "static lock-order graph:" in out
    assert "obs.metrics.MetricsRegistry -> obs.metrics.Metric" in out


def test_cli_audit_list_rules(capsys):
    rc = main(["audit", "--list-rules"])
    out = capsys.readouterr().out
    assert rc == 0
    for code in ("CONC001", "CONC002", "CONC003", "CONC004", "CONC005",
                 "CONC006"):
        assert code in out


def test_cli_audit_json_payload(capsys):
    rc = main(["audit", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["summary"]["errors"] == 0
    assert doc["summary"]["warnings"] == 0
    assert ["obs.sampler.TelemetrySampler", "obs.metrics.Metric"] \
        in doc["lock_order"]
    assert any(w["code"] == "CONC001" for w in doc["waived"])


def test_cli_audit_foreign_root_failure(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(textwrap.dedent("""
        from repro.util.sync import new_lock

        _A = new_lock("A")
        _B = new_lock("B")

        def forward():
            with _A:
                with _B:
                    pass

        def backward():
            with _B:
                with _A:
                    pass
        """))
    rc = main(["audit", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "CONC003" in out
    assert "lock-order cycle" in out


def test_cli_audit_select_filters_codes(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(
        "import threading\nREG = {}\n_L = threading.Lock()\n"
        "def add(k, v):\n    REG[k] = v\n")
    rc = main(["audit", "--root", str(tmp_path), "--select", "CONC006",
               "--fail-on", "warning"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "CONC006" in out
    assert "CONC001" not in out


def test_cli_audit_fail_on_threshold(tmp_path, capsys):
    (tmp_path / "warn.py").write_text(
        "REG = {}\ndef add(k, v):\n    REG[k] = v\n")
    assert main(["audit", "--root", str(tmp_path)]) == 0  # errors only
    capsys.readouterr()
    assert main(["audit", "--root", str(tmp_path),
                 "--fail-on", "warning"]) == 1
