#!/usr/bin/env python3
"""Diff two BENCH JSON files against per-metric regression thresholds.

Usage: bench_compare.py [options] <baseline.json> <current.json>

Options:
  --threshold=X           default relative regression threshold
                          (default 0.25 = a metric may move 25% in the
                          worse direction before the diff fails)
  --metric-threshold NAME=X
                          per-metric threshold override (repeatable)
  --only-relative         gate only unitless ratio metrics (speedup,
                          occupancy, gain). Absolute throughput and
                          wall-clock numbers are machine-dependent, so
                          CI comparing against committed baselines
                          should pass this; the absolute metrics are
                          still printed, just never fatal.
  --min-ms=X              skip *_ms metrics whose baseline is below X
                          (default 1.0: sub-millisecond walls are noise)
  --min-occupancy=X       skip *occupancy* metrics whose baseline is
                          below X (default 0.1: occupancy is bounded
                          [0,1], so the relative change of a near-idle
                          pipeline is noise — 0.04 -> 0.03 says
                          nothing, 0.99 -> 0.5 is the signal)
  --summary=PATH          append this comparison to a trajectory file
                          (created if missing)
  --allow-config-mismatch compare despite differing meta.trace_config

Metric direction is inferred from the name: *_ms, *_crashes, *_shed,
*_replayed_symbols, *_evictions, and *_reuploads are lower-is-better;
*per_sec*, *speedup*, *occupancy*, *gain*, *_admitted, *_hit_rate, and
*_recovered_sessions are
higher-is-better; anything else (densities, state counts, cycle
models) is informational and never gated. Rows are matched by their string-valued fields plus
"states"; rows present on only one side are warned about, not failed.

Both files must carry the same meta.schema_version (see
bench/bench_common.h) and, unless --allow-config-mismatch, the same
meta.trace_config — a quick-mode run diffed against a full-trace
baseline would "regress" by construction.

Exit codes: 0 no regression, 1 regression(s), 2 usage/compat error.
"""

import datetime
import json
import sys

DEFAULT_THRESHOLD = 0.25
EPSILON = 1e-12


def direction(name):
    """'lower', 'higher', or None (informational) for a metric name."""
    if name.endswith("_ms"):
        return "lower"
    # Serve-load health counters (BENCH_serve.json): any crash is a
    # regression, and more shed sessions at a fixed offered load means
    # admission got worse.
    if name.endswith("_crashes") or name.endswith("_shed"):
        return "lower"
    # Crash-recovery counters: replay work after a restart is waste
    # bounded by the checkpoint interval, so less of it is better; a
    # session that failed to come back after SIGKILL is lost work.
    if name.endswith("_replayed_symbols"):
        return "lower"
    # SVC pressure counters (BENCH_svc.json): an eviction displaces a
    # context the schedule may still need, and every re-upload pays the
    # 1668-cycle state-vector restore — more of either at a fixed
    # capacity means the replacement policy got worse.
    if name.endswith("_evictions") or name.endswith("_reuploads"):
        return "lower"
    if name.endswith("_hit_rate"):
        return "higher"
    if name.endswith("_recovered_sessions"):
        return "higher"
    if ("per_sec" in name or "speedup" in name or "occupancy" in name
            or name.endswith("gain") or name.endswith("_admitted")):
        return "higher"
    return None


def is_relative(name):
    """True for unitless ratio metrics, comparable across machines."""
    # Crash counts are absolute but machine-independent (the soak
    # criterion is zero everywhere), so CI gates them too. So are the
    # modeled bytes-per-symbol counters: deterministic functions of
    # the automaton and trace, not of the host.
    # SVC eviction/re-upload counts and hit rates are likewise modeled
    # outputs of the replacement policy on a fixed flow plan — exactly
    # reproducible on any host.
    return ("speedup" in name or "occupancy" in name
            or name.endswith("gain") or name.endswith("_crashes")
            or name.endswith("_bytes_per_symbol")
            or name.endswith("_evictions") or name.endswith("_reuploads")
            or name.endswith("_hit_rate"))


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def row_key(row):
    """Identity of a row: its string fields plus 'states' if present."""
    parts = [(k, v) for k, v in sorted(row.items())
             if isinstance(v, str)]
    if is_number(row.get("states")):
        parts.append(("states", row["states"]))
    return tuple(parts)


def fmt_key(key):
    return ", ".join(f"{k}={v}" for k, v in key) or "<top-level>"


class Comparison:
    def __init__(self, opts):
        self.opts = opts
        self.regressions = []
        self.improvements = []
        self.compared = 0
        self.skipped = 0

    def threshold_for(self, name):
        return self.opts["metric_thresholds"].get(
            name, self.opts["threshold"])

    def compare_metric(self, where, name, base, cur):
        d = direction(name)
        if d is None:
            return
        if self.opts["only_relative"] and not is_relative(name):
            self.skipped += 1
            return
        if name.endswith("_ms") and base < self.opts["min_ms"]:
            self.skipped += 1
            return
        if "occupancy" in name and base < self.opts["min_occupancy"]:
            self.skipped += 1
            return
        if abs(base) < EPSILON:
            self.skipped += 1
            return
        self.compared += 1
        change = (cur - base) / abs(base)
        worse = change < 0 if d == "higher" else change > 0
        record = {
            "where": fmt_key(where),
            "metric": name,
            "baseline": base,
            "current": cur,
            "change": change,
        }
        if worse and abs(change) > self.threshold_for(name):
            self.regressions.append(record)
        elif not worse and abs(change) > self.threshold_for(name):
            self.improvements.append(record)


def check_meta(base, cur, opts):
    """Refuse comparisons the meta blocks say are apples-to-oranges."""
    bm, cm = base.get("meta", {}), cur.get("meta", {})
    bv, cv = bm.get("schema_version"), cm.get("schema_version")
    if bv != cv:
        print(f"FATAL: meta.schema_version mismatch ({bv} vs {cv}); "
              "regenerate the baseline with this tree's harness",
              file=sys.stderr)
        return False
    bc, cc = bm.get("trace_config"), cm.get("trace_config")
    if bc != cc and not opts["allow_config_mismatch"]:
        print(f"FATAL: meta.trace_config mismatch ({bc!r} vs {cc!r}); "
              "pass --allow-config-mismatch to compare anyway",
              file=sys.stderr)
        return False
    for field in ("host_hardware_threads", "pap_threads"):
        if bm.get(field) != cm.get(field):
            print(f"warning: meta.{field} differs "
                  f"({bm.get(field)} vs {cm.get(field)}); absolute "
                  "numbers are not comparable", file=sys.stderr)
    return True


def compare_files(base, cur, opts):
    comp = Comparison(opts)

    # Top-level numeric scalars (informational fields never gate; the
    # direction heuristic decides, same as for row metrics).
    for name in sorted(set(base) & set(cur)):
        if is_number(base[name]) and is_number(cur[name]):
            comp.compare_metric((), name, base[name], cur[name])

    base_rows = {row_key(r): r for r in base.get("rows", [])}
    cur_rows = {row_key(r): r for r in cur.get("rows", [])}
    for key in sorted(set(base_rows) | set(cur_rows), key=str):
        if key not in cur_rows:
            print(f"warning: row [{fmt_key(key)}] only in baseline",
                  file=sys.stderr)
            continue
        if key not in base_rows:
            print(f"warning: row [{fmt_key(key)}] only in current",
                  file=sys.stderr)
            continue
        b, c = base_rows[key], cur_rows[key]
        for name in sorted(set(b) & set(c)):
            if is_number(b[name]) and is_number(c[name]):
                comp.compare_metric(key, name, b[name], c[name])
    return comp


def append_summary(path, entry):
    try:
        with open(path, encoding="utf-8") as f:
            summary = json.load(f)
        # An empty or pre-seeded trajectory may hold a bare list (or
        # any non-dict JSON); .get on those raised AttributeError and
        # crashed the very first run against a fresh summary file.
        # Re-seed from whatever list content is salvageable.
        if isinstance(summary, list):
            summary = {"bench_summary_version": 1, "entries": summary}
        if (not isinstance(summary, dict)
                or not isinstance(summary.get("entries"), list)):
            raise ValueError("no entries list")
    except (FileNotFoundError, ValueError, json.JSONDecodeError):
        summary = {"bench_summary_version": 1, "entries": []}
    summary["entries"].append(entry)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")


def parse_args(argv):
    opts = {
        "threshold": DEFAULT_THRESHOLD,
        "metric_thresholds": {},
        "only_relative": False,
        "min_ms": 1.0,
        "min_occupancy": 0.1,
        "summary": None,
        "allow_config_mismatch": False,
    }
    paths = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--threshold="):
            opts["threshold"] = float(arg.split("=", 1)[1])
        elif arg == "--metric-threshold" and i + 1 < len(argv):
            i += 1
            name, _, val = argv[i].partition("=")
            opts["metric_thresholds"][name] = float(val)
        elif arg.startswith("--metric-threshold="):
            name, _, val = arg.split("=", 1)[1].partition("=")
            opts["metric_thresholds"][name] = float(val)
        elif arg == "--only-relative":
            opts["only_relative"] = True
        elif arg.startswith("--min-ms="):
            opts["min_ms"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--min-occupancy="):
            opts["min_occupancy"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--summary="):
            opts["summary"] = arg.split("=", 1)[1]
        elif arg == "--allow-config-mismatch":
            opts["allow_config_mismatch"] = True
        elif arg.startswith("--"):
            print(f"unknown option {arg!r}", file=sys.stderr)
            return None, None
        else:
            paths.append(arg)
        i += 1
    if len(paths) != 2:
        return None, None
    return opts, paths


def main(argv):
    opts, paths = parse_args(argv)
    if opts is None:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    loaded = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                loaded.append(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            print(f"FATAL: cannot load {path}: {e}", file=sys.stderr)
            return 2
    base, cur = loaded
    if base.get("bench") != cur.get("bench"):
        print(f"FATAL: different benches ({base.get('bench')!r} vs "
              f"{cur.get('bench')!r})", file=sys.stderr)
        return 2
    if not check_meta(base, cur, opts):
        return 2

    comp = compare_files(base, cur, opts)

    for r in comp.improvements:
        print(f"improved  [{r['where']}] {r['metric']}: "
              f"{r['baseline']:.4g} -> {r['current']:.4g} "
              f"({r['change']:+.1%})")
    for r in comp.regressions:
        print(f"REGRESSED [{r['where']}] {r['metric']}: "
              f"{r['baseline']:.4g} -> {r['current']:.4g} "
              f"({r['change']:+.1%}, threshold "
              f"{comp.threshold_for(r['metric']):.0%})")
    verdict = ("FAIL" if comp.regressions else "OK")
    print(f"{verdict}: {base.get('bench')}: {comp.compared} metrics "
          f"compared, {comp.skipped} skipped, "
          f"{len(comp.regressions)} regressed, "
          f"{len(comp.improvements)} improved"
          + (" (relative metrics only)" if opts["only_relative"] else ""))

    if opts["summary"]:
        worst = max(comp.regressions, key=lambda r: abs(r["change"]),
                    default=None)
        append_summary(opts["summary"], {
            "bench": base.get("bench"),
            "timestamp": datetime.datetime.now(
                datetime.timezone.utc).isoformat(timespec="seconds"),
            "baseline": paths[0],
            "current": paths[1],
            "compared": comp.compared,
            "regressions": len(comp.regressions),
            "improvements": len(comp.improvements),
            "only_relative": opts["only_relative"],
            "worst_regression": worst,
        })
    return 1 if comp.regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
