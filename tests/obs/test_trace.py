"""repro.obs.trace: ids, the propagation header, and the span ring."""

from __future__ import annotations

import threading

import pytest

from repro.obs import trace as obs_trace


@pytest.fixture(autouse=True)
def _no_global_recorder():
    """Tests install their own recorders; never leak one across tests."""
    yield
    obs_trace.clear_recorder()
    obs_trace.clear_current()


class TestIds:
    def test_trace_id_is_16_hex_chars(self):
        tid = obs_trace.new_trace_id()
        assert len(tid) == 16
        int(tid, 16)

    def test_span_id_is_8_hex_chars(self):
        sid = obs_trace.new_span_id()
        assert len(sid) == 8
        int(sid, 16)

    def test_ids_are_unique(self):
        assert len({obs_trace.new_trace_id() for _ in range(64)}) == 64


class TestHeaderCodec:
    def test_roundtrip(self):
        ctx = obs_trace.TraceContext(
            trace_id="ab" * 8, span_id="cd" * 4, t_ms=1754600000123
        )
        parsed = obs_trace.parse_header(ctx.header())
        assert parsed == ctx

    @pytest.mark.parametrize(
        "value",
        [
            None,
            "",
            "justonepart",
            "two-parts",
            "a-b-c-d",           # too many parts
            "nothex!-cdcd-12",   # bad trace id
            "abab-nothex!-12",   # bad span id
            "abab-cdcd-later",   # non-integer time
            "abab-cdcd--5",      # four parts once split
            "-cdcd-12",          # empty trace id
        ],
    )
    def test_malformed_headers_parse_to_none(self, value):
        assert obs_trace.parse_header(value) is None

    def test_negative_time_rejected(self):
        # A '-' in the timestamp splits into four parts; build a direct
        # three-part value to hit the explicit sign check.
        assert obs_trace.parse_header("abab-cdcd-0") is not None


class TestSpanRecorder:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            obs_trace.SpanRecorder(capacity=0)

    def test_ring_is_bounded_and_evicts_oldest(self):
        rec = obs_trace.SpanRecorder(capacity=4)
        for n in range(10):
            rec.record(
                obs_trace.Span(
                    name=f"s{n}", trace_id="t", span_id=f"{n}",
                    start_s=float(n), duration_s=0.0,
                )
            )
        assert len(rec) == 4
        assert rec.dropped == 6
        names = [span.name for span in rec.spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_seq_is_monotonic_and_survives_eviction(self):
        rec = obs_trace.SpanRecorder(capacity=3)
        seqs = [
            rec.record(
                obs_trace.Span(
                    name="s", trace_id="t", span_id="i",
                    start_s=0.0, duration_s=0.0,
                )
            )
            for _ in range(7)
        ]
        assert seqs == list(range(1, 8))
        assert rec.last_seq() == 7
        assert [span.seq for span in rec.spans()] == [5, 6, 7]

    def test_since_filters_incrementally(self):
        rec = obs_trace.SpanRecorder(capacity=16)
        for n in range(5):
            rec.record(
                obs_trace.Span(
                    name=f"s{n}", trace_id="t", span_id="i",
                    start_s=0.0, duration_s=0.0,
                )
            )
        assert [s.name for s in rec.spans(since=3)] == ["s3", "s4"]
        assert rec.spans(since=rec.last_seq()) == []


    def test_sink_sees_every_span_even_past_capacity(self):
        seen = []
        rec = obs_trace.SpanRecorder(capacity=3, sink=seen.append)
        for n in range(7):
            rec.record(
                obs_trace.Span(
                    name=f"s{n}", trace_id="t", span_id="i",
                    start_s=0.0, duration_s=0.0,
                )
            )
        assert [span.name for span in seen] == [f"s{n}" for n in range(7)]
        assert [span.seq for span in seen] == list(range(1, 8))
        assert len(rec) == 3


class TestRecordSpan:
    def test_disarmed_record_is_a_noop(self):
        obs_trace.clear_recorder()
        assert obs_trace.record_span("x", 0.0, 1.0) is None

    def test_armed_record_mints_missing_ids(self):
        rec = obs_trace.install_recorder(capacity=8)
        span = obs_trace.record_span("x", 10.0, 0.5, attrs={"k": 1})
        assert span is not None
        assert len(span.trace_id) == 16 and len(span.span_id) == 8
        assert span.pid > 0
        assert rec.spans()[0] is span

    def test_negative_duration_is_clamped(self):
        obs_trace.install_recorder(capacity=8)
        span = obs_trace.record_span("x", 10.0, -3.0)
        assert span.duration_s == 0.0

    def test_to_dict_omits_empty_parent_and_attrs(self):
        obs_trace.install_recorder(capacity=8)
        bare = obs_trace.record_span("x", 0.0, 0.0).to_dict()
        assert "parent_id" not in bare and "attrs" not in bare
        rich = obs_trace.record_span(
            "x", 0.0, 0.0, parent_id="p", attrs={"a": 1}
        ).to_dict()
        assert rich["parent_id"] == "p" and rich["attrs"] == {"a": 1}


class TestCurrentContext:
    def test_set_get_clear(self):
        assert obs_trace.get_current() is None
        obs_trace.set_current("t", "s")
        assert obs_trace.get_current() == ("t", "s")
        obs_trace.clear_current()
        assert obs_trace.get_current() is None

    def test_context_is_thread_local(self):
        obs_trace.set_current("main-trace", "main-span")
        seen = {}

        def worker():
            seen["before"] = obs_trace.get_current()
            obs_trace.set_current("worker-trace", "worker-span")
            seen["after"] = obs_trace.get_current()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["before"] is None
        assert seen["after"] == ("worker-trace", "worker-span")
        assert obs_trace.get_current() == ("main-trace", "main-span")
