"""One measured process of the benchmark; ``run.py`` starts it.

Modes:
  setup  import the package and generate the inputs, print ``ready``, then
         the speed factor of one calibration burst as a JSON line.
  run    one warm-up pass, then time passes until --seconds have passed;
         print one JSON line.
  trace  run a fixed number of passes untraced, then the same passes traced;
         for a pooled table also the same grids with jobs = 1.  Print one
         JSON line and write the spans to --out.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import math
import multiprocessing
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TAIL_BEYOND = 10
TAIL_MAX_PCT = 99.0


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pool_jobs(name: str) -> int:
    return min(workloads.WORKLOADS[name].get("max_jobs", 1), nproc())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile, up
    to the 99th, that has at least TAIL_BEYOND samples beyond it (the
    maximum when there are fewer samples).  Past the 99th percentile of a
    long run the value is set by the machine's rare stalls, not by the
    program."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1], 0
    beyond = max(TAIL_BEYOND, n - math.ceil(TAIL_MAX_PCT / 100 * n))
    return 100 * (n - beyond) / n, xs[n - beyond - 1], beyond


def interquartile_mean(xs: list[float]) -> float:
    """Mean of the middle half.  A run has only a few passes, so this is
    steadier than their median, and as robust to one stalled pass."""
    xs = sorted(xs)
    cut = len(xs) // 4
    return statistics.mean(xs[cut:len(xs) - cut])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def timed_passes(lib, name, passes, speed, tracer=None, verified=None) -> list:
    """Run (pass id, inputs) pairs, with a burst of reference timings before
    the first and after each; ``speed`` also ticks between serial items."""
    speed.burst()
    results = []
    for p, inputs in passes:
        results.append(workloads.run_pass(lib, name, inputs, p, tracer, speed,
                                          verified=verified))
        speed.burst()
    return results


def scaled_busy(results, speed) -> float:
    return sum(r.scaled(speed)[1] for r in results)


def latency_stats(lat: list[float]) -> dict:
    if not lat:
        return {}
    q, value, beyond = tail(lat)
    return {"item_p50_s": statistics.median(lat), "tail_pct": q, "item_tail_s": value,
            "tail_beyond": beyond, "samples": len(lat)}


def summarize(results, speed, warmup=()) -> dict:
    """Counts, digests and errors cover ``warmup`` too; times do not."""
    attempted = sum(r.attempted for r in (*warmup, *results))
    failed = sum(r.failed for r in (*warmup, *results))
    scaled = [r.scaled(speed) for r in results]
    busy = sum(b for _, b in scaled)
    raw_busy = sum(r.busy_s for r in results)
    rows = sum(r.attempted for r in results)
    # pooled rows arrive in chunks and have no service time of their own:
    # there both latency metrics read the run's time per row
    pooled = bool(results) and not results[0].starts
    if pooled:
        raw = {"item_p50_s": raw_busy / rows, "item_tail_s": raw_busy / rows}
    else:
        raw = latency_stats([x for r in results for x in r.latencies])
    factors = [calibrate.REFERENCE_S / d for d in speed.durations]
    out = {
        "passes": len(results),
        "attempted": attempted,
        "failed": failed,
        "items_per_s": sum(r.attempted - r.failed for r in results) / busy if busy > 0 else 0.0,
        "speed_factors": [min(factors), statistics.median(factors), max(factors)],
        "raw": dict(raw, items_per_s=sum(r.attempted - r.failed for r in results) / raw_busy
                    if raw_busy > 0 else 0.0),
        "digests": [[r.pass_id, r.attempted, r.digest] for r in (*warmup, *results)],
        "errors": [e for r in (*warmup, *results) for e in r.errors][:20],
    }
    if pooled:
        out.update(item_p50_s=busy / rows, item_tail_s=busy / rows, samples=rows)
    else:
        out.update(latency_stats([x for lat, _ in scaled for x in lat]))
    firsts = [lat[0] for lat, _ in scaled if lat]
    out["first_item_s"] = interquartile_mean(firsts) if firsts else 0.0
    return out


def layer_metrics(tracer, speed: float, reports: int) -> dict[str, float]:
    """Per-layer numbers of one traced run; times are scaled by ``speed``."""
    import metrics

    calls, extra = tracer.calls, tracer.extra
    self_s = {k: v * speed for k, v in tracer.self_s.items()}
    total_self = sum(self_s.values())
    out = {}
    for name, stat, _unit, _better in metrics.PER_LAYER:
        key = name.rsplit(".", 1)[0] if stat in ("calls", "self_ms") else name
        if stat == "calls":
            out[name] = calls.get(key, 0)
        elif stat == "self_ms":
            out[name] = self_s.get(key, 0.0) * 1000
        elif stat == "bytes" or stat in ("result_kbits", "coeffs"):
            out[name] = extra.get(name, 0.0)
    pp = "modp.poincare_polynomial"
    coeffs = extra.get(f"{pp}.coeffs", 0.0)
    out[f"{pp}.emitted_ratio"] = extra.get(f"{pp}.emitted", 0.0) / coeffs if coeffs else 0.0
    out[f"{pp}.self_share"] = self_s.get(pp, 0.0) / total_self if total_self else 0.0
    ccr = calls.get("charclass.char_class_report", 0)
    out["charclass.char_class_report.per_report"] = ccr / reports if reports else 0.0
    gt = "report.generate_table"
    first_rows = extra.get(f"{gt}.first_rows", 0)
    out[f"{gt}.first_row_ms"] = (extra.get(f"{gt}.first_row_s", 0.0) * 1000 * speed / first_rows
                                 if first_rows else 0.0)
    out[f"{gt}.wait_ms"] = extra.get(f"{gt}.wait_s", 0.0) * 1000 * speed
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import stiefelq as lib

    name = args.workload
    jobs = pool_jobs(name)
    passes = workloads.make_passes(name, args.seed, jobs)

    if args.mode == "setup":
        print("ready", flush=True)
        speed = calibrate.Speedometer()
        speed.burst()
        print(json.dumps({"speed_factor": speed.factor_at(perf_counter())}), flush=True)
        return 0

    meta = {
        "python": sys.version.split()[0],
        "nproc": nproc(),
        "start_method": multiprocessing.get_start_method(),
        "jobs": jobs,
        "seed": args.seed,
    }

    if args.mode == "run":

        def run_passes():
            # pass 0 warms the process up (first calls, the pool's first
            # fork); it is checked but not timed
            for p in itertools.count():
                if p == 1:
                    t0 = perf_counter()
                elif p > 1 and perf_counter() - t0 >= args.seconds:
                    return
                yield p, passes[p % len(passes)]

        speed = calibrate.Speedometer(jobs)
        try:
            results = timed_passes(lib, name, run_passes(), speed, verified=set())
            out = summarize(results[1:], speed, results[:1])
            # before the calibration helpers exit, so the children's peak
            # covers only the library's pool workers
            out.update(meta=meta, peak_rss_mb=peak_rss_mb())
        finally:
            speed.close()
        print(json.dumps(out), flush=True)
        return 0

    from tracer import Tracer

    count = workloads.WORKLOADS[name]["trace_passes"]
    chosen = list(enumerate(passes[:count]))
    speed = calibrate.Speedometer(jobs)
    verified: set = set()
    tracer = Tracer()
    try:
        plain = timed_passes(lib, name, chosen, speed, verified=verified)
        with tracer:
            traced = timed_passes(lib, name, chosen, speed, tracer, verified)
    finally:
        speed.close()
    untraced_s = scaled_busy(plain, speed)
    traced_s = scaled_busy(traced, speed)
    reports = tracer.calls.get("report.compute_report", 0) or tracer.calls.get("span.span_report", 0)
    layers = layer_metrics(tracer, traced_s / sum(r.busy_s for r in traced), reports)
    layers["trace.overhead_ratio"] = traced_s / untraced_s
    efficiency = None
    if jobs > 1:
        serial_speed = calibrate.Speedometer()
        serial = timed_passes(lib, name, [(p, dict(s, jobs=1)) for p, s in chosen], serial_speed,
                              verified=verified)
        efficiency = scaled_busy(serial, serial_speed) / (jobs * untraced_s)
        plain += serial
    layers["report.generate_table.scaling_efficiency"] = efficiency or 0.0
    out = summarize(plain + traced, speed)
    pp = "modp.poincare_polynomial"
    bases = [
        f"per_report: {tracer.calls.get('charclass.char_class_report', 0)} char_class_report "
        f"calls / {reports} reports built",
        f"emitted_ratio: {tracer.extra.get(pp + '.emitted', 0):.0f} coefficients in rendered "
        f"output / {tracer.extra.get(pp + '.coeffs', 0):.0f} computed",
        f"self_share: {pp} self time / all traced self time "
        f"({sum(tracer.self_s.values()) * 1000:.0f} ms unscaled)",
        f"overhead_ratio: traced / untraced time in library calls, same {count} passes",
    ]
    if efficiency:
        bases.append(f"scaling_efficiency: serial wall of the same {count} grids / "
                     f"({jobs} jobs x parallel wall)")
    out.update(meta=meta, layers=layers, absent=tracer.absent, bases=bases,
               spans=tracer.span_count, spans_kept=len(tracer.spans))
    if args.out:
        with gzip.open(args.out, "wt") as f:
            json.dump({"workload": name, "meta": meta, "layers": layers,
                       "calls": tracer.calls, "self_s": tracer.self_s, "extra": tracer.extra,
                       "absent": tracer.absent, "span_fields":
                       ["id", "name", "start", "end", "parent", "item"],
                       "spans": tracer.spans}, f)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
