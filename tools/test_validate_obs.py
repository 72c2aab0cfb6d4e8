#!/usr/bin/env python3
"""Unit tests for the validate_obs.py artifact validator.

Run directly (`python3 tools/test_validate_obs.py`) or through ctest
(registered as validate_obs_selftest).  Each validator gets one good
fixture that must pass clean and a set of corrupted variants that must
each produce a targeted error — the validator is CI's last line against
a silent writer regression, so the validator itself is gated code.
"""

import json
import unittest
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import validate_obs  # noqa: E402


def jl(*objs):
    return [json.dumps(o) + "\n" for o in objs]


FLIGHT_META = {"type": "meta", "schema": "bsort-flight-v1",
               "capacity": 8, "recorded": 2, "dropped": 0}
FLIGHT_EVENTS = [
    {"seq": 0, "t_us": 1.0, "event": "submitted",
     "request": "0x910a2dec89025cc1", "a": 256, "b": 0},
    {"seq": 1, "t_us": 2.0, "event": "completed",
     "request": "0x910a2dec89025cc1", "a": 10, "b": 0},
]


class FlightTest(unittest.TestCase):
    def test_good_dump_passes(self):
        self.assertEqual(
            validate_obs.validate_flight(jl(FLIGHT_META, *FLIGHT_EVENTS)), [])

    def test_missing_meta_fails(self):
        errs = validate_obs.validate_flight(jl(*FLIGHT_EVENTS))
        self.assertTrue(any("meta" in e for e in errs))

    def test_unknown_event_fails(self):
        bad = dict(FLIGHT_EVENTS[0], event="teleported")
        errs = validate_obs.validate_flight(
            jl(dict(FLIGHT_META, recorded=1), bad))
        self.assertTrue(any("unknown event" in e for e in errs))

    def test_non_monotonic_seq_fails(self):
        evs = [dict(FLIGHT_EVENTS[0]), dict(FLIGHT_EVENTS[1], seq=0)]
        errs = validate_obs.validate_flight(jl(FLIGHT_META, *evs))
        self.assertTrue(any("not increasing" in e for e in errs))

    def test_bad_request_id_fails(self):
        # JSON numbers lose precision past 2^53 — ids must be hex strings.
        bad = dict(FLIGHT_EVENTS[0], request=12345)
        errs = validate_obs.validate_flight(
            jl(dict(FLIGHT_META, recorded=1), bad))
        self.assertTrue(any("hex string" in e for e in errs))

    def test_recorded_count_mismatch_fails(self):
        errs = validate_obs.validate_flight(
            jl(dict(FLIGHT_META, recorded=7), *FLIGHT_EVENTS))
        self.assertTrue(any("recorded" in e for e in errs))


TELEMETRY_META = {"type": "meta", "schema": "bsort-telemetry-v1"}


def sample(t_s, total, delta, **kw):
    s = {"type": "sample", "t_s": t_s,
         "counters": {"submitted": {"total": total, "delta": delta}},
         "gauges": {"queue_depth": kw.get("depth", 0)},
         "hists": {"run_us": kw.get("hist", {
             "count": 1, "p50": 1.0, "p95": 2.0, "p99": 3.0,
             "max": 4.0, "sum": 4.0})}}
    return s


class TelemetryTest(unittest.TestCase):
    def test_good_series_passes(self):
        lines = jl(TELEMETRY_META, sample(0.1, 3, 3), sample(0.2, 5, 2))
        self.assertEqual(validate_obs.validate_telemetry(lines), [])

    def test_delta_mismatch_fails(self):
        lines = jl(TELEMETRY_META, sample(0.1, 3, 3), sample(0.2, 5, 99))
        errs = validate_obs.validate_telemetry(lines)
        self.assertTrue(any("delta" in e for e in errs))

    def test_counter_reset_restarts_delta(self):
        # total dropped (writer restart): delta restarts from the total.
        lines = jl(TELEMETRY_META, sample(0.1, 5, 5), sample(0.2, 2, 2))
        self.assertEqual(validate_obs.validate_telemetry(lines), [])

    def test_time_going_backwards_fails(self):
        lines = jl(TELEMETRY_META, sample(0.2, 1, 1), sample(0.1, 2, 1))
        errs = validate_obs.validate_telemetry(lines)
        self.assertTrue(any("backwards" in e for e in errs))

    def test_unordered_quantiles_fail(self):
        bad = sample(0.1, 1, 1, hist={"count": 2, "p50": 5.0, "p95": 2.0,
                                      "p99": 3.0, "max": 4.0, "sum": 9.0})
        errs = validate_obs.validate_telemetry(jl(TELEMETRY_META, bad))
        self.assertTrue(any("quantiles" in e for e in errs))


PROM_GOOD = [
    "# TYPE bsort_submitted_total counter\n",
    "bsort_submitted_total 41\n",
    "# TYPE bsort_queue_depth gauge\n",
    "bsort_queue_depth 3\n",
    "# TYPE bsort_run_us summary\n",
    'bsort_run_us{quantile="0.5"} 12.5\n',
    "bsort_run_us_sum 100\n",
    "bsort_run_us_count 8\n",
]


class PromTest(unittest.TestCase):
    def test_good_exposition_passes(self):
        self.assertEqual(validate_obs.validate_prom(PROM_GOOD), [])

    def test_sample_without_type_fails(self):
        errs = validate_obs.validate_prom(["bsort_orphan 1\n"])
        self.assertTrue(any("TYPE" in e for e in errs))

    def test_malformed_sample_fails(self):
        errs = validate_obs.validate_prom(
            ["# TYPE bsort_x counter\n", "bsort_x one_hundred extra\n"])
        self.assertTrue(any("bad sample" in e for e in errs))

    def test_empty_exposition_fails(self):
        errs = validate_obs.validate_prom([])
        self.assertTrue(any("no samples" in e for e in errs))


def trace(events):
    return {"traceEvents": events}


FLOW_ID = "0x910a2dec89025cc1"
PERFETTO_GOOD = [
    {"name": "process_name", "ph": "M", "pid": 0,
     "args": {"name": "bsort-service"}},
    {"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
     "args": {"name": "queue"}},
    {"name": "queue depth", "ph": "C", "pid": 0, "ts": 1.0,
     "args": {"fragments": 1}},
    {"name": "submitted", "cat": "request", "ph": "X", "ts": 1.0, "dur": 1,
     "pid": 0, "tid": 0, "args": {}},
    {"name": "request", "cat": "request", "ph": "s", "id": FLOW_ID,
     "bp": "e", "ts": 1.25, "pid": 0, "tid": 0},
    {"name": "request", "cat": "request", "ph": "t", "id": FLOW_ID,
     "bp": "e", "ts": 2.25, "pid": 0, "tid": 1},
    {"name": "request", "cat": "request", "ph": "f", "id": FLOW_ID,
     "bp": "e", "ts": 3.25, "pid": 0, "tid": 0},
]


class PerfettoTest(unittest.TestCase):
    def test_good_trace_passes(self):
        self.assertEqual(
            validate_obs.validate_perfetto(trace(PERFETTO_GOOD), True), [])

    def test_flow_without_finish_fails(self):
        evs = [e for e in PERFETTO_GOOD if e.get("ph") != "f"]
        errs = validate_obs.validate_perfetto(trace(evs))
        self.assertTrue(any("never terminates" in e for e in errs))

    def test_flow_not_starting_with_s_fails(self):
        evs = [e for e in PERFETTO_GOOD if e.get("ph") != "s"]
        errs = validate_obs.validate_perfetto(trace(evs))
        self.assertTrue(any("does not start" in e for e in errs))

    def test_require_flow_demands_a_chain(self):
        evs = [e for e in PERFETTO_GOOD if e.get("ph") not in "stf"]
        errs = validate_obs.validate_perfetto(trace(evs), require_flow=True)
        self.assertTrue(any("--require-flow" in e for e in errs))

    def test_numeric_flow_id_fails(self):
        evs = [dict(e, id=123) if e.get("ph") in "stf" else e
               for e in PERFETTO_GOOD]
        errs = validate_obs.validate_perfetto(trace(evs))
        self.assertTrue(any("flow id" in e for e in errs))

    def test_thread_name_after_events_fails(self):
        # The deterministic-ordering contract: metadata precedes the
        # first event of its track (the pid-0 hard-coding fix's test).
        evs = list(PERFETTO_GOOD)
        evs.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
                    "args": {"name": "late"}})
        errs = validate_obs.validate_perfetto(trace(evs))
        self.assertTrue(any("after events" in e for e in errs))

    def test_negative_duration_fails(self):
        evs = [dict(e, dur=-1) if e.get("ph") == "X" else e
               for e in PERFETTO_GOOD]
        errs = validate_obs.validate_perfetto(trace(evs))
        self.assertTrue(any("dur" in e for e in errs))

    def test_empty_trace_fails(self):
        errs = validate_obs.validate_perfetto(trace([]))
        self.assertTrue(any("empty" in e for e in errs))


TRACE_META = {"type": "meta", "label": "t", "algorithm": "smart",
              "keys_per_proc": 4, "nprocs": 2, "mode": "long",
              "dropped": [0, 0]}


def exchange(vp, seq, remap=-1, elements=4, messages=1, charged_us=3.5):
    return {"type": "exchange", "vp": vp, "seq": seq, "remap": remap,
            "group_log2": 1 if remap >= 0 else -1,
            "layout_from": "blocked", "layout_to": "cyclic", "peers": 1,
            "elements": elements, "messages": messages,
            "charged_us": charged_us, "compute_us": 1.0, "pack_us": 0.5,
            "unpack_us": 0.5, "clock_us": 10.0, "faults": 0}


TRACE_GOOD = [TRACE_META, exchange(0, 0, 0), exchange(0, 1),
              exchange(0, 2, 1), exchange(1, 0, 0), exchange(1, 1),
              exchange(1, 2, 1)]


class TraceTest(unittest.TestCase):
    def test_good_trace_passes(self):
        self.assertEqual(validate_obs.validate_trace(jl(*TRACE_GOOD)), [])

    def test_each_meta_starts_a_new_run(self):
        # bench_comm_metrics appends one run per strategy to one file.
        lines = jl(*TRACE_GOOD, *TRACE_GOOD)
        self.assertEqual(validate_obs.validate_trace(lines), [])

    def test_missing_meta_fails(self):
        errs = validate_obs.validate_trace(jl(*TRACE_GOOD[1:]))
        self.assertTrue(any("first line" in e for e in errs))

    def test_dropped_records_fail(self):
        lines = jl(dict(TRACE_META, dropped=[0, 3]), *TRACE_GOOD[1:])
        errs = validate_obs.validate_trace(lines)
        self.assertTrue(any("overflow" in e for e in errs))

    def test_foreign_line_type_fails(self):
        lines = jl(*TRACE_GOOD, {"type": "span", "vp": 0})
        errs = validate_obs.validate_trace(lines)
        self.assertTrue(any("type must be" in e for e in errs))

    def test_seq_gap_fails(self):
        lines = jl(TRACE_META, exchange(0, 0), exchange(0, 2))
        errs = validate_obs.validate_trace(lines)
        self.assertTrue(any("seq 2, expected 1" in e for e in errs))

    def test_remap_gap_fails(self):
        lines = jl(TRACE_META, exchange(0, 0, 0), exchange(0, 1, 2))
        errs = validate_obs.validate_trace(lines)
        self.assertTrue(any("not contiguous" in e for e in errs))

    def test_more_messages_than_elements_fails(self):
        lines = jl(TRACE_META, exchange(0, 0, elements=2, messages=3))
        errs = validate_obs.validate_trace(lines)
        self.assertTrue(any("messages 3 > elements 2" in e for e in errs))

    def test_negative_charge_fails(self):
        lines = jl(TRACE_META, exchange(0, 0, charged_us=-1.0))
        errs = validate_obs.validate_trace(lines)
        self.assertTrue(any("negative charged_us" in e for e in errs))

    def test_vp_outside_machine_fails(self):
        lines = jl(TRACE_META, exchange(2, 0))
        errs = validate_obs.validate_trace(lines)
        self.assertTrue(any("outside [0, 2)" in e for e in errs))


if __name__ == "__main__":
    unittest.main()
