"""Fleet drill tests: survival matrix expectations and determinism."""

import json
import re

import pytest

from repro.errors import FleetError
from repro.fleet import DRILL_KINDS, RECOVERABLE_KINDS, run_drill


@pytest.fixture(scope="module")
def report():
    return run_drill(seeds=(0,))


def cell_for(report, kind):
    (cell,) = [c for c in report["cells"] if c["kind"] == kind]
    return cell


class TestSurvivalMatrix:
    def test_matrix_shape(self, report):
        assert report["model"] == "tc1"
        assert report["kinds"] == list(DRILL_KINDS)
        assert report["cells_total"] == len(DRILL_KINDS)

    def test_every_recoverable_kind_survives(self, report):
        for kind in RECOVERABLE_KINDS:
            cell = cell_for(report, kind)
            assert cell["status"] == "ok", cell
            assert cell["bit_correct"] is True
            assert cell["workload_errors"] == 0
            assert cell["final_error"] is None
            assert cell["quarantined"] == []
            assert cell["as_expected"] is True

    def test_faults_actually_fired(self, report):
        for cell in report["cells"]:
            assert cell["injected_total"] >= 1, cell["kind"]
        bitflip = cell_for(report, "seu-bitflip")
        assert bitflip["injected_by_kind"] == {"seu-bitflip": 1}
        assert "scrub_catch" in bitflip["recovery_actions"]
        hang = cell_for(report, "kernel-hang")
        assert "watchdog_trip" in hang["recovery_actions"]
        crash = cell_for(report, "slot-crash")
        assert {"failover", "quarantine", "recovery", "reload"} <= \
            set(crash["recovery_actions"])

    def test_slow_device_is_absorbed(self, report):
        # sub-watchdog latency weather needs no recovery action at all
        cell = cell_for(report, "slow-device")
        assert cell["status"] == "ok"
        assert cell["recovery_actions"] == []

    def test_instance_loss_degrades_gracefully(self, report):
        cell = cell_for(report, "instance-loss")
        assert cell["status"] == "degraded"
        assert cell["as_expected"] is True
        assert cell["bit_correct"] is True  # sibling instance served it
        assert cell["workload_errors"] == 0
        assert cell["quarantined"] == ["i0.slot0", "i0.slot1"]
        assert cell["healthy_slots"] == 2

    def test_top_level_verdicts(self, report):
        assert report["survived_recoverable"] is True
        assert report["all_as_expected"] is True
        assert report["any_failed"] is False

    def test_breaker_snapshot_uses_fleet_labels(self, report):
        cell = cell_for(report, "slot-crash")
        assert set(cell["slots"]) == {
            "i0.slot0", "i0.slot1", "i1.slot0", "i1.slot1"}
        assert all({"breaker", "opened_count"} <= set(slot)
                   for slot in cell["slots"].values())

    def test_report_never_leaks_raw_instance_ids(self, report):
        # raw ids embed a process-wide launch counter; reports must use
        # fleet-ordinal labels so reruns are byte-identical
        dumped = json.dumps(report)
        assert not re.search(r"i-[0-9a-f]{17}", dumped)


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_drill(seeds=(0,), kinds=("slot-crash",))
        b = run_drill(seeds=(0,), kinds=("slot-crash",))
        assert json.dumps(a, sort_keys=True) == \
            json.dumps(b, sort_keys=True)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FleetError, match="unknown drill fault kind"):
            run_drill(kinds=("meteor-strike",))
