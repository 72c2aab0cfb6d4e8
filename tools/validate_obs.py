#!/usr/bin/env python3
"""Schema validator for the observability artifacts.

Validates any subset of the four artifact kinds bench_service_load's
--obs-prefix demo (and a production SortService) produces:

  * flight recorder dump    (bsort-flight-v1 JSONL, obs/flight.cpp)
  * telemetry time-series   (bsort-telemetry-v1 JSONL, obs/telemetry.cpp)
  * Prometheus exposition   (text format, obs/telemetry.cpp)
  * Perfetto service trace  (Chrome trace-event JSON, obs/perfetto.cpp)

plus the machine's exchange trace (trace/jsonl.cpp; bench_comm_metrics
writes TRACE_comm_metrics.jsonl), one or more runs each opened by a
meta line.

The checks are STRUCTURAL (field presence, types, cross-line
invariants: monotonic seq/t_s, counter delta arithmetic, quantile
ordering, flow-arrow pairing) so a writer regression fails CI even when
the C++ unit tests still pass on their own fixtures.  Exit 0 = every
named artifact validates; 1 = any violation (all are printed).

Usage:
  validate_obs.py [--flight F.jsonl] [--telemetry T.jsonl]
                  [--prom M.prom] [--perfetto P.json] [--require-flow]
                  [--trace X.jsonl]

--require-flow additionally demands at least one complete flow chain
(s -> ... -> f with a shared id) in the Perfetto trace — the
sharded-and-retried CI demo must show its arrows, not just parse.

Given both --flight and --telemetry, the final telemetry sample's
counter totals must equal the dump's per-kind record counts (every
service counter is a count of flight records); the cross-check is
skipped when the dump reports dropped records.
"""

import argparse
import json
import re
import sys

FLIGHT_SCHEMA = "bsort-flight-v1"
TELEMETRY_SCHEMA = "bsort-telemetry-v1"

FLIGHT_EVENTS = {
    "submitted", "enqueued", "queue-full", "dispatched", "batch-done",
    "retry-scheduled", "shed", "deadline-miss", "cancelled", "completed",
    "failed", "health-check", "quarantined", "replaced", "stopped",
}

# Telemetry counter -> the flight event it counts.  `sharded` counts the
# enqueued records of two or more fragments, `flight_events` every record.
COUNTER_EVENTS = {
    "submitted": "enqueued", "completed": "completed", "failed": "failed",
    "rejected_queue_full": "queue-full", "rejected_deadline": "deadline-miss",
    "batches": "batch-done", "retries": "retry-scheduled", "shed": "shed",
    "cancelled": "cancelled", "quarantined": "quarantined",
    "replaced": "replaced", "health_checks": "health-check",
}

HEX_ID = re.compile(r"^0x[0-9a-f]{16}$")
PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eEinfa]+$")
PROM_TYPE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)$")


def _num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_flight(lines):
    """Validate a flight dump's lines; returns a list of error strings."""
    errors = []
    rows = []
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rows.append((i, json.loads(line)))
        except ValueError as e:
            errors.append(f"flight:{i}: not JSON: {e}")
    if not rows:
        return errors + ["flight: empty dump (meta line required)"]

    _, meta = rows[0]
    if meta.get("type") != "meta" or meta.get("schema") != FLIGHT_SCHEMA:
        errors.append(f"flight:1: first line must be meta with schema "
                      f"{FLIGHT_SCHEMA!r}, got {meta}")
    for key in ("capacity", "recorded", "dropped"):
        if not _num(meta.get(key)):
            errors.append(f"flight:1: meta.{key} missing or non-numeric")

    prev_seq = None
    for i, r in rows[1:]:
        for key in ("seq", "t_us", "a", "b"):
            if not _num(r.get(key)):
                errors.append(f"flight:{i}: {key} missing or non-numeric")
        if r.get("event") not in FLIGHT_EVENTS:
            errors.append(f"flight:{i}: unknown event {r.get('event')!r}")
        req = r.get("request")
        if not isinstance(req, str) or not HEX_ID.match(req):
            errors.append(f"flight:{i}: request must be an 0x-prefixed "
                          f"16-digit hex string, got {req!r}")
        for key in ("slot", "attempt", "shard"):
            if key in r and (not _num(r[key]) or r[key] < 0):
                errors.append(f"flight:{i}: {key} must be a non-negative "
                              f"number")
        if prev_seq is not None and _num(r.get("seq")) and r["seq"] <= prev_seq:
            errors.append(f"flight:{i}: seq {r['seq']} not increasing "
                          f"(prev {prev_seq})")
        if _num(r.get("seq")):
            prev_seq = r["seq"]
    if _num(meta.get("recorded")) and meta["recorded"] != len(rows) - 1:
        errors.append(f"flight: meta.recorded={meta['recorded']} but "
                      f"{len(rows) - 1} event lines present")
    return errors


def validate_telemetry(lines):
    """Validate a telemetry time-series; returns error strings."""
    errors = []
    rows = []
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rows.append((i, json.loads(line)))
        except ValueError as e:
            errors.append(f"telemetry:{i}: not JSON: {e}")
    if not rows:
        return errors + ["telemetry: empty series (meta line required)"]

    _, meta = rows[0]
    if meta.get("type") != "meta" or meta.get("schema") != TELEMETRY_SCHEMA:
        errors.append(f"telemetry:1: first line must be meta with schema "
                      f"{TELEMETRY_SCHEMA!r}, got {meta}")

    prev_t = None
    prev_totals = {}
    for i, s in rows[1:]:
        if s.get("type") != "sample":
            errors.append(f"telemetry:{i}: type must be 'sample'")
            continue
        if not _num(s.get("t_s")):
            errors.append(f"telemetry:{i}: t_s missing or non-numeric")
        elif prev_t is not None and s["t_s"] < prev_t:
            errors.append(f"telemetry:{i}: t_s {s['t_s']} went backwards")
        if _num(s.get("t_s")):
            prev_t = s["t_s"]
        for name, c in s.get("counters", {}).items():
            if not _num(c.get("total")) or not _num(c.get("delta")):
                errors.append(f"telemetry:{i}: counter {name!r} needs "
                              f"numeric total and delta")
                continue
            last = prev_totals.get(name)
            if last is not None:
                # Delta semantics: difference since the previous sample,
                # restarting from the new total on a counter reset.
                want = c["total"] - last if c["total"] >= last else c["total"]
                if abs(c["delta"] - want) > 1e-9:
                    errors.append(f"telemetry:{i}: counter {name!r} delta "
                                  f"{c['delta']} != expected {want}")
            prev_totals[name] = c["total"]
        for name, v in s.get("gauges", {}).items():
            if not _num(v):
                errors.append(f"telemetry:{i}: gauge {name!r} non-numeric")
        for name, h in s.get("hists", {}).items():
            missing = [k for k in ("count", "p50", "p95", "p99", "max", "sum")
                       if not _num(h.get(k))]
            if missing:
                errors.append(f"telemetry:{i}: hist {name!r} missing "
                              f"{missing}")
                continue
            if not h["p50"] <= h["p95"] <= h["p99"] <= h["max"]:
                errors.append(f"telemetry:{i}: hist {name!r} quantiles not "
                              f"ordered: {h}")
            if h["count"] == 0 and h["sum"] != 0:
                errors.append(f"telemetry:{i}: hist {name!r} empty but "
                              f"sum={h['sum']}")
    return errors


def _json_rows(lines):
    """Parsed JSON objects of the non-blank lines that parse."""
    rows = []
    for line in lines:
        try:
            rows.append(json.loads(line))
        except ValueError:
            pass
    return [r for r in rows if isinstance(r, dict)]


def cross_check(flight_lines, telemetry_lines):
    """Final telemetry counter totals against the flight dump's record
    counts; returns error strings (none when the dump dropped records,
    since the ring no longer holds every record counted)."""
    flight = _json_rows(flight_lines)
    samples = [s for s in _json_rows(telemetry_lines)
               if s.get("type") == "sample"]
    if not flight or not samples or flight[0].get("dropped") != 0:
        return []
    events = [r.get("event") for r in flight[1:]]
    counts = {name: events.count(ev) for name, ev in COUNTER_EVENTS.items()}
    counts["sharded"] = sum(1 for r in flight[1:] if r.get("event") ==
                            "enqueued" and _num(r.get("a")) and r["a"] > 1)
    counts["flight_events"] = len(events)
    errors = []
    for name, c in samples[-1].get("counters", {}).items():
        if name in counts and c.get("total") != counts[name]:
            errors.append(f"cross-check: telemetry {name} total "
                          f"{c.get('total')} != {counts[name]} matching "
                          f"flight records")
    return errors


def validate_prom(lines):
    """Validate a Prometheus text exposition; returns error strings."""
    errors = []
    typed = set()
    sampled = set()
    for i, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            if not PROM_TYPE.match(line):
                errors.append(f"prom:{i}: bad comment line (only # TYPE "
                              f"NAME counter|gauge|summary allowed): {line!r}")
            else:
                typed.add(line.split()[2])
            continue
        if not PROM_SAMPLE.match(line):
            errors.append(f"prom:{i}: bad sample line: {line!r}")
            continue
        name = line.split("{")[0].split()[0]
        # _sum/_count/quantile series belong to their summary family.
        base = re.sub(r"_(sum|count)$", "", name)
        if not any(t in (name, base) for t in typed):
            errors.append(f"prom:{i}: sample {name!r} has no preceding "
                          f"# TYPE declaration")
        sampled.add(name)
    if not sampled:
        errors.append("prom: no samples")
    return errors


def validate_trace(lines):
    """Validate an exchange-trace JSONL; returns error strings.

    Every run starts with a meta line whose per-VP `dropped` counts are
    all 0 (an overflowed ring means partial totals).  The exchange lines
    of a run number each VP's exchanges 0, 1, 2, ... (seq) and its
    annotated remaps likewise (remap >= 0); M never exceeds V and no
    charge is negative.
    """
    errors = []
    rows = []
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rows.append((i, json.loads(line)))
        except ValueError as e:
            errors.append(f"trace:{i}: not JSON: {e}")
    if not rows:
        return errors + ["trace: empty file (meta line required)"]
    if rows[0][1].get("type") != "meta":
        errors.append("trace:1: first line must be a meta record")

    nprocs = None
    next_seq = {}
    next_remap = {}
    for i, r in rows:
        kind = r.get("type")
        if kind == "meta":
            nprocs = r.get("nprocs")
            dropped = r.get("dropped")
            if not isinstance(nprocs, int) or nprocs < 1:
                errors.append(f"trace:{i}: meta.nprocs must be a positive int")
                nprocs = None
            if not isinstance(dropped, list) or len(dropped) != nprocs:
                errors.append(f"trace:{i}: meta.dropped must list one count "
                              f"per VP")
            elif any(d != 0 for d in dropped):
                errors.append(f"trace:{i}: ring overflow, dropped={dropped}")
            next_seq, next_remap = {}, {}
            continue
        if kind != "exchange":
            errors.append(f"trace:{i}: type must be 'meta' or 'exchange', "
                          f"got {kind!r}")
            continue
        missing = [k for k in ("vp", "seq", "remap", "elements", "messages",
                               "charged_us") if not _num(r.get(k))]
        if missing:
            errors.append(f"trace:{i}: missing or non-numeric {missing}")
            continue
        vp = r["vp"]
        if nprocs is not None and not 0 <= vp < nprocs:
            errors.append(f"trace:{i}: vp {vp} outside [0, {nprocs})")
        want = next_seq.get(vp, 0)
        if r["seq"] != want:
            errors.append(f"trace:{i}: vp {vp} seq {r['seq']}, expected "
                          f"{want}")
        next_seq[vp] = r["seq"] + 1
        if r["remap"] >= 0:
            want = next_remap.get(vp, 0)
            if r["remap"] != want:
                errors.append(f"trace:{i}: vp {vp} remap {r['remap']}, "
                              f"expected {want} (ordinals not contiguous)")
            next_remap[vp] = r["remap"] + 1
        if r["messages"] > r["elements"]:
            errors.append(f"trace:{i}: messages {r['messages']} > elements "
                          f"{r['elements']}")
        if r["charged_us"] < 0:
            errors.append(f"trace:{i}: negative charged_us "
                          f"{r['charged_us']}")
    return errors


def validate_perfetto(doc, require_flow=False):
    """Validate a Chrome trace-event document; returns error strings."""
    errors = []
    events = doc.get("traceEvents") if isinstance(doc, dict) else doc
    if not isinstance(events, list) or not events:
        return ["perfetto: traceEvents missing or empty"]

    flows = {}
    seen_non_meta = set()
    for i, e in enumerate(events):
        ph = e.get("ph")
        if not isinstance(e.get("pid"), int):
            errors.append(f"perfetto[{i}]: pid must be an int: {e}")
            continue
        # tid is required on thread-scoped events; process_name metadata
        # and process-scoped counters carry only a pid.
        needs_tid = ph in ("X", "s", "t", "f") or (
            ph == "M" and e.get("name") == "thread_name")
        if needs_tid and not isinstance(e.get("tid"), int):
            errors.append(f"perfetto[{i}]: tid must be an int: {e}")
            continue
        if ph == "M":
            if e.get("name") not in ("process_name", "thread_name"):
                errors.append(f"perfetto[{i}]: unknown metadata {e}")
            elif not e.get("args", {}).get("name"):
                errors.append(f"perfetto[{i}]: metadata without args.name")
            # Metadata must precede the first real event of its track so
            # viewers label tracks deterministically.
            elif e["name"] == "thread_name" and \
                    (e["pid"], e["tid"]) in seen_non_meta:
                errors.append(f"perfetto[{i}]: thread_name after events on "
                              f"track ({e['pid']},{e['tid']})")
            continue
        seen_non_meta.add((e["pid"], e.get("tid", -1)))
        if not _num(e.get("ts")):
            errors.append(f"perfetto[{i}]: ts missing or non-numeric: {e}")
        if ph == "X":
            if not _num(e.get("dur")) or e["dur"] < 0:
                errors.append(f"perfetto[{i}]: X slice needs dur >= 0: {e}")
        elif ph == "C":
            if not isinstance(e.get("args"), dict) or not e["args"]:
                errors.append(f"perfetto[{i}]: counter without args: {e}")
        elif ph in ("s", "t", "f"):
            fid = e.get("id")
            if not isinstance(fid, str) or not HEX_ID.match(fid):
                errors.append(f"perfetto[{i}]: flow id must be 0x-hex "
                              f"string: {e}")
                continue
            flows.setdefault(fid, []).append(ph)
        elif ph not in ("i", "b", "e", "n"):
            errors.append(f"perfetto[{i}]: unexpected phase {ph!r}")

    for fid, phs in flows.items():
        if phs[0] != "s":
            errors.append(f"perfetto: flow {fid} does not start with 's' "
                          f"({phs})")
        if "f" not in phs:
            errors.append(f"perfetto: flow {fid} never terminates ('f' "
                          f"missing: {phs})")
    if require_flow and not any("s" in p and "f" in p for p in flows.values()):
        errors.append("perfetto: --require-flow: no complete s->f flow "
                      "chain found")
    return errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--flight")
    ap.add_argument("--telemetry")
    ap.add_argument("--prom")
    ap.add_argument("--perfetto")
    ap.add_argument("--require-flow", action="store_true")
    ap.add_argument("--trace")
    args = ap.parse_args(argv)

    errors = []
    checked = 0
    if args.flight:
        with open(args.flight) as f:
            flight = f.readlines()
        errors += validate_flight(flight)
        checked += 1
    if args.telemetry:
        with open(args.telemetry) as f:
            telemetry = f.readlines()
        errors += validate_telemetry(telemetry)
        checked += 1
        if args.flight:
            errors += cross_check(flight, telemetry)
    if args.prom:
        with open(args.prom) as f:
            errors += validate_prom(f.readlines())
        checked += 1
    if args.perfetto:
        with open(args.perfetto) as f:
            try:
                doc = json.load(f)
            except ValueError as e:
                doc = None
                errors.append(f"perfetto: not JSON: {e}")
        if doc is not None:
            errors += validate_perfetto(doc, args.require_flow)
        checked += 1
    if args.trace:
        with open(args.trace) as f:
            errors += validate_trace(f.readlines())
        checked += 1

    if checked == 0:
        ap.error("nothing to validate: pass at least one artifact path")
    for e in errors:
        print(f"validate_obs: {e}", file=sys.stderr)
    if not errors:
        print(f"validate_obs: OK ({checked} artifact(s))")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
