"""Span API tests."""

import threading
import time

import pytest

from repro.obs import (
    SpanRecorder,
    current_recorder,
    current_span,
    no_recording,
    recording,
    span,
)


class TestNoRecorder:
    def test_span_is_noop_without_recorder(self):
        assert current_recorder() is None
        with span("orphan") as sp:
            assert sp is None
        assert current_span() is None


class TestRecording:
    def test_basic_span_recorded(self):
        with recording() as rec:
            with span("work", items=3) as sp:
                assert current_span() is sp
                time.sleep(0.001)
        assert len(rec) == 1
        (recorded,) = rec.find("work")
        assert recorded.finished
        assert recorded.seconds > 0
        assert recorded.cpu_seconds >= 0
        assert recorded.attrs == {"items": 3}
        assert recorded.status == "ok"
        assert recorded.parent_id is None

    def test_nesting_builds_tree(self):
        with recording() as rec:
            with span("parent"):
                with span("child-a"):
                    with span("grandchild"):
                        pass
                with span("child-b"):
                    pass
        parent = rec.find("parent")[0]
        assert parent.depth == 0
        kids = rec.children(parent)
        assert [k.name for k in kids] == ["child-a", "child-b"]
        assert all(k.parent_id == parent.span_id for k in kids)
        tree = rec.span_tree()
        assert tree[0]["name"] == "parent"
        assert [c["name"] for c in tree[0]["children"]] == \
            ["child-a", "child-b"]
        assert tree[0]["children"][0]["children"][0]["name"] == \
            "grandchild"

    def test_parent_restored_after_exit(self):
        with recording():
            with span("outer") as outer:
                with span("inner"):
                    pass
                assert current_span() is outer
            assert current_span() is None

    def test_error_captured_and_reraised(self):
        with recording() as rec:
            with pytest.raises(ValueError, match="boom"):
                with span("fails"):
                    raise ValueError("boom")
        failed = rec.find("fails")[0]
        assert failed.status == "error"
        assert failed.error == "ValueError: boom"
        assert failed.finished

    def test_parent_duration_contains_child(self):
        with recording() as rec:
            with span("outer"):
                with span("inner"):
                    time.sleep(0.002)
        outer = rec.find("outer")[0]
        inner = rec.find("inner")[0]
        assert outer.seconds >= inner.seconds

    def test_recorder_scope_is_dynamic(self):
        outer_rec = SpanRecorder()
        with recording(outer_rec):
            inner_rec = SpanRecorder()
            with recording(inner_rec):
                with span("scoped"):
                    pass
            with span("outer-scoped"):
                pass
        assert [s.name for s in inner_rec.spans] == ["scoped"]
        assert [s.name for s in outer_rec.spans] == ["outer-scoped"]

    def test_total_seconds_sums_repeats(self):
        with recording() as rec:
            for _ in range(3):
                with span("loop"):
                    pass
        assert len(rec.find("loop")) == 3
        assert rec.total_seconds("loop") >= 0


class TestNoRecording:
    def test_suspends_and_restores_recorder(self):
        with recording() as rec:
            with span("kept"):
                pass
            with no_recording():
                assert current_recorder() is None
                with span("suppressed") as sp:
                    assert sp is None
            assert current_recorder() is rec
            with span("kept-again"):
                pass
        assert [s.name for s in rec.spans] == ["kept", "kept-again"]


class TestKillSwitch:
    def test_no_obs_disables_recording(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_OBS", "1")
        with recording() as rec:
            assert current_recorder() is None
            with span("invisible") as sp:
                assert sp is None
        assert len(rec) == 0

    def test_explicit_recorder_also_bypassed(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_OBS", "1")
        mine = SpanRecorder()
        with recording(mine) as rec:
            assert rec is mine  # caller still gets a usable object
            with span("invisible"):
                pass
        assert len(mine) == 0


class TestThreads:
    def test_spans_carry_thread_identity(self):
        import contextvars

        with recording() as rec:
            with span("main-side"):
                pass

            def work():
                with span("worker-side"):
                    pass

            # threads start with an empty context: propagate the
            # recorder by running the worker in a copy of this one
            ctx = contextvars.copy_context()
            t = threading.Thread(target=ctx.run, args=(work,),
                                 name="obs-test-worker")
            t.start()
            t.join()
        main_sp = rec.find("main-side")[0]
        worker_sp = rec.find("worker-side")[0]
        assert main_sp.thread_id == threading.get_ident()
        assert worker_sp.thread_name == "obs-test-worker"
        assert worker_sp.thread_id != main_sp.thread_id


class TestSummaries:
    def test_streaming_sketch_per_span_name(self):
        with recording() as rec:
            for _ in range(20):
                with span("op"):
                    pass
            with span("other"):
                pass
        summaries = rec.summaries()
        assert set(summaries) == {"op", "other"}
        op = summaries["op"]
        assert op["count"] == 20
        assert op["sum"] == pytest.approx(
            rec.total_seconds("op"), rel=1e-9)
        assert op["min"] <= op["quantiles"]["0.5"] <= op["max"]
        sketch = rec.sketch("op")
        assert sketch is not None and sketch.count == 20
        assert rec.sketch("never-seen") is None


class TestSpanAttrs:
    def test_set_attr_on_open_span(self):
        with recording() as rec:
            with span("op") as sp:
                sp.set_attr("points", 42)
        assert rec.find("op")[0].attrs == {"points": 42}

    def test_elapsed_live(self):
        with recording():
            with span("op") as sp:
                assert sp.elapsed() >= 0
                assert not sp.finished
        assert sp.finished
