"""The house lint rules must hold on the shipped tree, and each rule
must catch its synthetic offender."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

from tools.lint import RULE_REGISTRY, run_lint  # noqa: E402


def _lint_source(tmp_path, source, name="offender.py", select=None):
    (tmp_path / name).write_text(source)
    return run_lint(tmp_path, select=select)


def test_shipped_tree_is_clean():
    assert run_lint() == []


def test_cli_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.lint"], cwd=REPO,
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "lint: ok" in proc.stdout


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="unknown lint rule"):
        run_lint(REPO / "tools", select=["no-such-rule"])


def test_all_rules_registered():
    assert set(RULE_REGISTRY) == {
        "telemetry-print", "telemetry-getlogger", "broad-except",
        "generic-raise", "sim-wallclock", "mutable-default",
        "flow-step-span", "wallclock-sleep", "sim-slots",
        "engine-plan-alloc", "metric-name", "thread-free",
    }


def test_print_and_getlogger(tmp_path):
    found = _lint_source(
        tmp_path,
        "import logging\n"
        "log = logging.getLogger('x')\n"
        "print('hello')\n"
        "# print('comments are fine')\n"
        "DOC = \"print('strings are fine')\"\n")
    rules = sorted(v.rule_id for v in found)
    assert rules == ["telemetry-getlogger", "telemetry-print"]


def test_print_allow_is_anchored_to_shipped_cli(tmp_path):
    # allow entries exempt the real DEFAULT_ROOT file only: a
    # same-named cli.py in a different lint root is still checked
    found = _lint_source(tmp_path, "print('ui')\n", name="cli.py",
                         select=["telemetry-print"])
    assert [v.rule_id for v in found] == ["telemetry-print"]


def test_print_allowed_in_shipped_cli():
    from tools.lint.framework import DEFAULT_ROOT
    found = [v for v in run_lint(DEFAULT_ROOT, select=["telemetry-print"])
             if v.path == "cli.py"]
    assert found == []  # the UI surface prints by design


def test_allowlist_anchor_outside_default_root(tmp_path):
    # every allowlisted file name is fair game in a foreign tree
    from tools.lint.framework import RULE_REGISTRY
    rule = RULE_REGISTRY["telemetry-print"]()
    assert any(rule.allow), "rule lost its allowlist"
    for entry in sorted(rule.allow):
        assert rule.applies_to(entry, tmp_path / entry)


def test_broad_except(tmp_path):
    found = _lint_source(
        tmp_path,
        "try:\n    pass\nexcept Exception:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, BaseException):\n    pass\n"
        "try:\n    pass\nexcept:\n    pass\n",
        select=["broad-except"])
    assert len(found) == 3


def test_broad_except_reraise_allowed(tmp_path):
    found = _lint_source(
        tmp_path,
        "try:\n    pass\n"
        "except BaseException as exc:\n"
        "    record(exc)\n"
        "    raise\n",
        select=["broad-except"])
    assert found == []


def test_generic_raise(tmp_path):
    found = _lint_source(
        tmp_path,
        "def f():\n"
        "    raise RuntimeError('nope')\n"
        "def g():\n"
        "    raise Exception\n"
        "def ok():\n"
        "    raise ValueError('fine')\n"
        "def also_ok():\n"
        "    raise NotImplementedError\n",
        select=["generic-raise"])
    assert len(found) == 2
    assert {v.line for v in found} == {2, 4}


def test_sim_wallclock_scoped(tmp_path):
    source = ("import time\n"
              "t = time.perf_counter()\n")
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "core.py").write_text(source)
    (tmp_path / "flow.py").write_text(source)  # outside sim/: allowed
    found = run_lint(tmp_path, select=["sim-wallclock"])
    assert len(found) == 1
    assert found[0].path == "sim/core.py"


def test_mutable_default(tmp_path):
    found = _lint_source(
        tmp_path,
        "def f(a, b=[], c={}, d=set(), e=None, g=()):\n"
        "    pass\n"
        "def h(*, k=list()):\n"
        "    pass\n",
        select=["mutable-default"])
    assert len(found) == 4


def test_wallclock_sleep(tmp_path):
    found = _lint_source(
        tmp_path,
        "import time\n"
        "time.sleep(5)\n"
        "from time import sleep\n"
        "clock.sleep(5)  # a VirtualClock: fine\n",
        select=["wallclock-sleep"])
    assert len(found) == 2
    assert {v.line for v in found} == {2, 3}


def test_wallclock_sleep_covers_the_serving_layer(tmp_path):
    # the rule is unscoped, so the serving event loop cannot smuggle a
    # wall-clock sleep in: everything must ride the VirtualClock
    offender = tmp_path / "src" / "repro" / "serve"
    offender.mkdir(parents=True)
    (offender / "handler.py").write_text(
        "import time\n"
        "def wait_for_batch():\n"
        "    time.sleep(0.010)\n")
    found = run_lint(tmp_path, select=["wallclock-sleep"])
    assert len(found) == 1
    assert found[0].line == 3
    assert "serve" in found[0].path


def test_sim_slots_scoped(tmp_path):
    offender = ("class Event:\n"
                "    def __init__(self):\n"
                "        self.t = 0\n")
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "core.py").write_text(offender)
    (tmp_path / "hw.py").write_text(offender)  # outside sim/: allowed
    found = run_lint(tmp_path, select=["sim-slots"])
    assert len(found) == 1
    assert found[0].path == "sim/core.py"
    assert "Event" in found[0].message


def test_sim_slots_accepts_slotted_classes(tmp_path):
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "core.py").write_text(
        "from dataclasses import dataclass\n"
        "from enum import Enum\n"
        "@dataclass(frozen=True, slots=True)\n"
        "class Delay:\n"
        "    cycles: int\n"
        "class Channel:\n"
        "    __slots__ = ('name',)\n"
        "class Kind(Enum):\n"
        "    PUT = 1\n"
        "@dataclass\n"
        "class Loose:\n"
        "    t: int\n")
    found = run_lint(tmp_path, select=["sim-slots"])
    assert [v.rule_id for v in found] == ["sim-slots"]
    assert "Loose" in found[0].message


def test_engine_plan_alloc_scoped(tmp_path):
    offender = ("import numpy as np\n"
                "def forward(x):\n"
                "    cols = np.empty((8, x.size))\n"
                "    padded = np.pad(x, 1)\n"
                "    y = np.asarray(x)  # not an allocation ban\n"
                "    w = np.lib.stride_tricks.as_strided(x, (2, 2))\n")
    (tmp_path / "nn").mkdir()
    (tmp_path / "nn" / "engine.py").write_text(offender)
    (tmp_path / "nn" / "plan.py").write_text(offender)  # plans may alloc
    found = run_lint(tmp_path, select=["engine-plan-alloc"])
    assert {v.path for v in found} == {"nn/engine.py"}
    assert len(found) == 3
    assert {v.line for v in found} == {3, 4, 6}


def test_engine_plan_alloc_covers_the_replay_loop(tmp_path):
    # binding may allocate; CompiledPass.run and _replay, the replay
    # loop, may not
    (tmp_path / "nn").mkdir()
    (tmp_path / "nn" / "plan.py").write_text(
        "import numpy as np\n"
        "class CompiledPass:\n"
        "    def _bind(self, n):\n"
        "        return np.empty((n, 4))\n"
        "    def run(self, xb):\n"
        "        out = np.empty_like(xb)\n"
        "        return out.copy()\n"
        "    def _replay(self, xb):\n"
        "        return np.zeros(4)\n")
    found = run_lint(tmp_path, select=["engine-plan-alloc"])
    assert [(v.path, v.line) for v in found] == [("nn/plan.py", 6),
                                                 ("nn/plan.py", 9)]


def test_metric_name(tmp_path):
    found = _lint_source(
        tmp_path,
        "reg.counter('condor_cache_hits_total', 'ok')\n"
        "reg.counter('condor_cache_hits', 'missing _total')\n"
        "reg.counter('cache_hits_total', 'missing prefix')\n"
        "reg.gauge('condor_plan_cache_entries', 'ok')\n"
        "reg.gauge('condor_Plan_Cache', 'bad case + suffix')\n"
        "reg.summary('condor_flow_step_seconds', 'ok')\n"
        "reg.summary('condor_flow_step_ms', 'bad unit')\n"
        "reg.summary('condor_eval_seconds', 'ok')\n"
        "reg.summary(name, 'dynamic names are not checked')\n"
        "table.summary()  # unrelated call, no args\n",
        select=["metric-name"])
    assert len(found) == 4
    assert {v.line for v in found} == {2, 3, 5, 7}


def test_metric_name_messages(tmp_path):
    found = _lint_source(
        tmp_path,
        "reg.counter('hits', 'x')\n"
        "reg.gauge('condor_depth', 'x')\n",
        select=["metric-name"])
    assert "condor_" in found[0].message
    assert "unit suffix" in found[1].message


def test_flow_step_span(tmp_path):
    (tmp_path / "flow").mkdir()
    (tmp_path / "flow" / "driver.py").write_text(
        "class Flow:\n"
        "    def run(self):\n"
        "        with self._step('gen'):\n"
        "            acc = build_accelerator(model)\n"
        "        estimate = estimate_accelerator(acc)\n")
    found = run_lint(tmp_path, select=["flow-step-span"])
    assert len(found) == 1
    assert "estimate_accelerator" in found[0].message


def test_thread_free_bans_threads_executors_and_processes(tmp_path):
    found = _lint_source(
        tmp_path,
        "import threading\n"
        "import threading as th\n"
        "threading.Thread(target=print).start()\n"
        "class Ticker(th.Thread):\n"
        "    pass\n"
        "from threading import Timer\n"
        "import concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from concurrent import futures\n"
        "import multiprocessing\n"
        "from multiprocessing.pool import Pool\n"
        "local = threading.local()  # per-thread state: fine\n",
        select=["thread-free"])
    assert sorted(v.line for v in found) == [3, 4, 6, 7, 8, 9, 10, 11]


def test_thread_free_locks_only_on_shared_state(tmp_path):
    # the plan ledger is shared by every thread; a server is used by
    # one thread at a time
    source = ("import threading\n"
              "from threading import RLock\n"
              "mu = threading.Lock()\n"
              "freed = threading.Event()\n")
    for rel in ("nn/plan.py", "serve/server.py"):
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        (tmp_path / rel).write_text(source)
    found = run_lint(tmp_path, select=["thread-free"])
    assert [(v.path, v.line) for v in found] == [("serve/server.py", 2),
                                                 ("serve/server.py", 3),
                                                 ("serve/server.py", 4)]
    assert "one thread at a time" in found[0].message


def test_thread_free_lock_owners_may_not_start_threads(tmp_path):
    # the shared-state modules are exempt from the lock half only
    (tmp_path / "nn").mkdir()
    (tmp_path / "nn" / "plan.py").write_text(
        "import threading\n"
        "threading.Thread(target=print).start()\n")
    found = run_lint(tmp_path, select=["thread-free"])
    assert [(v.path, v.line) for v in found] == [("nn/plan.py", 2)]
