"""Trace core: the ring, spans, canonical JSONL, and activation rules.

Everything here tests :mod:`repro.trace.core` in isolation — no protocol
runs, and one fresh interpreter only to observe the exit-time flush of
an environment-activated tracer.  The invariants under test are the ones the docs
promise (docs/observability.md): bounded memory with counted drops,
canonical byte-stable JSONL written atomically, and an activation order
where explicit :func:`configure` beats the ``REPRO_TRACE_DIR``
environment variable.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.trace import core
from repro.trace.core import (
    TraceEvent,
    Tracer,
    decode_event,
    encode_event,
    load_jsonl,
)


@pytest.fixture(autouse=True)
def _clean_activation(monkeypatch):
    """Each test starts from the disabled fast path and leaves it so."""
    monkeypatch.delenv(core.ENV_VAR, raising=False)
    core.unconfigure()
    yield
    core.unconfigure()


class TestEventCodec:
    def test_round_trip_is_lossless(self):
        event = TraceEvent(7, 123456789, "event", "wire.send", 3, None,
                           {"agent": 1, "payload": "0110", "bits": 4})
        again = decode_event(encode_event(event))
        assert again.as_dict() == event.as_dict()

    def test_encoding_is_canonical(self):
        """Sorted keys, compact separators, one trailing newline."""
        event = TraceEvent(0, 1, "event", "x", None, None, {"b": 2, "a": 1})
        line = encode_event(event)
        assert line.endswith("\n") and "\n" not in line[:-1]
        assert ": " not in line and ", " not in line
        keys = list(json.loads(line))
        assert keys == sorted(keys)
        # Field insertion order must not leak into the bytes.
        flipped = TraceEvent(0, 1, "event", "x", None, None, {"a": 1, "b": 2})
        assert encode_event(flipped) == line

    @pytest.mark.parametrize("line", [
        "not json",
        "[1, 2, 3]",
        '{"kind": "nonsense", "seq": 0}',
        '{"kind": "event"}',  # missing required fields
    ])
    def test_malformed_lines_decode_to_none(self, line):
        assert decode_event(line) is None


class TestRing:
    def test_overflow_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.event("tick", i=i)
        assert len(tracer) == 4
        assert tracer.dropped == 6
        survivors = [ev.fields["i"] for ev in tracer.events()]
        assert survivors == [6, 7, 8, 9]  # oldest evicted first

    def test_sequence_numbers_survive_eviction(self):
        tracer = Tracer(capacity=2)
        for _ in range(5):
            tracer.event("tick")
        assert [ev.seq for ev in tracer.events()] == [3, 4]


class TestSpans:
    def test_span_id_is_start_seq_and_nesting_links_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("leaf")
        events = tracer.events()
        start_outer, start_inner, leaf, end_inner, end_outer = events
        assert start_outer.kind == "span_start" and start_outer.span == 0
        assert start_inner.parent == start_outer.span
        assert leaf.span == start_inner.span  # attributed to innermost
        assert end_inner.kind == "span_end"
        assert end_inner.span == start_inner.span
        assert end_outer.span == start_outer.span
        assert end_outer.fields["duration_ns"] >= 0

    def test_span_end_carries_counter_deltas(self):
        tracer = Tracer()
        counter = obs.counter("test.trace.delta")
        with tracer.span("work"):
            counter.inc(3)
        end = tracer.events()[-1]
        assert end.fields["counters"]["test.trace.delta"] == 3

    def test_unchanged_counters_stay_out_of_the_delta(self):
        tracer = Tracer()
        obs.counter("test.trace.quiet")  # exists, never moves
        with tracer.span("work"):
            pass
        end = tracer.events()[-1]
        assert "test.trace.quiet" not in end.fields.get("counters", {})

    def test_annotate_lands_on_span_end_without_mutating_caller(self):
        tracer = Tracer()
        shared = {"static": 1}
        with tracer.span("work", **shared) as span:
            span.annotate(result=42)
        start, end = tracer.events()
        assert start.fields == {"static": 1}
        assert end.fields["result"] == 42
        assert shared == {"static": 1}

    def test_exception_records_error_and_still_closes(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        end = tracer.events()[-1]
        assert end.kind == "span_end" and end.fields["error"] == "ValueError"


class TestFlush:
    def test_flush_is_atomic_and_lossless(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.event("e", payload="01")
        path = tracer.flush(tmp_path / "t.jsonl")
        assert path == tmp_path / "t.jsonl"
        assert not list(tmp_path.glob("*.tmp"))  # temp file replaced away
        loaded = load_jsonl(path)
        assert [e.as_dict() for e in loaded] == [
            e.as_dict() for e in tracer.events()
        ]

    def test_flush_twice_is_byte_identical(self, tmp_path):
        tracer = Tracer()
        tracer.event("e", b=2, a=1)
        first = tracer.flush(tmp_path / "t.jsonl").read_bytes()
        second = tracer.flush(tmp_path / "t.jsonl").read_bytes()
        assert first == second

    def test_default_sink_is_per_process(self, tmp_path):
        tracer = Tracer(sink_dir=tmp_path, label="lbl")
        assert tracer.default_sink_path() == (
            tmp_path / f"lbl-{os.getpid()}.jsonl"
        )

    def test_flush_without_sink_is_a_noop(self):
        tracer = Tracer()
        tracer.event("e")
        assert tracer.flush() is None

    def test_loader_skips_malformed_lines(self, tmp_path):
        tracer = Tracer()
        tracer.event("good")
        path = tracer.flush(tmp_path / "t.jsonl")
        path.write_text(path.read_text() + "garbage line\n\n")
        assert [e.name for e in load_jsonl(path)] == ["good"]


class TestActivation:
    def test_fast_path_is_none_when_nothing_is_active(self):
        assert core.active_tracer() is None

    def test_env_var_activates_a_sink_tracer(self, monkeypatch, tmp_path):
        monkeypatch.setenv(core.ENV_VAR, str(tmp_path))
        tracer = core.active_tracer()
        assert tracer is not None and tracer.sink_dir == tmp_path
        assert core.active_tracer() is tracer  # cached per directory

    def test_blank_env_var_means_disabled(self, monkeypatch):
        monkeypatch.setenv(core.ENV_VAR, "  ")
        assert core.active_tracer() is None

    def test_configure_beats_the_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv(core.ENV_VAR, str(tmp_path / "env"))
        configured = core.configure(tmp_path / "explicit")
        assert core.active_tracer() is configured
        assert configured.sink_dir == tmp_path / "explicit"

    def test_configure_none_disables_despite_environment(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(core.ENV_VAR, str(tmp_path))
        assert core.configure(None) is None
        assert core.active_tracer() is None
        core.unconfigure()
        assert core.active_tracer() is not None  # the environment rules again

    def test_capture_scopes_and_restores(self):
        before = core.active_tracer()
        with core.capture() as tracer:
            assert core.active_tracer() is tracer
            core.event("inside")
        assert core.active_tracer() is before
        assert [e.name for e in tracer.events()] == ["inside"]

    def test_capture_nests(self):
        with core.capture() as outer:
            with core.capture() as inner:
                core.event("deep")
            assert core.active_tracer() is outer
        assert [e.name for e in inner.events()] == ["deep"]
        assert outer.events() == []

    def test_directory_flushes_on_exit(self, tmp_path):
        with core.directory(tmp_path, label="run") as tracer:
            core.event("persisted")
        files = list(tmp_path.glob("run-*.jsonl"))
        assert len(files) == 1
        assert [e.name for e in load_jsonl(files[0])] == ["persisted"]
        assert core.active_tracer() is None
        assert tracer.dropped == 0

    def test_disabled_scopes_off_an_active_tracer(self):
        with core.capture() as tracer:
            with core.disabled():
                assert core.active_tracer() is None
                core.event("swallowed")
            core.event("kept")
        assert [e.name for e in tracer.events()] == ["kept"]

    def test_env_tracer_flushes_at_interpreter_exit(self, tmp_path):
        src = Path(core.__file__).resolve().parents[2]
        env = dict(os.environ, REPRO_TRACE_DIR=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        subprocess.run(
            [sys.executable, "-c",
             "from repro import trace; trace.event('bye', n=1)"],
            env=env, check=True, timeout=120,
        )
        files = list(tmp_path.glob("trace-*.jsonl"))
        assert len(files) == 1
        events = load_jsonl(files[0])
        assert [(e.name, e.fields) for e in events] == [("bye", {"n": 1})]

    def test_module_helpers_are_noops_when_off(self):
        with core.span("ignored") as span:
            assert span is None
        core.event("ignored")  # must not raise
