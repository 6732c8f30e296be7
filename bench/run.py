"""stiefelq benchmark.

    python3 bench/run.py --workload dossier --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src``).  With ``--trace 0`` it prints the end-to-end metrics of one
workload; with ``--trace 1`` the per-layer metrics of a separate traced run.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.

Each measured process is a child started in its own session, one at a time,
and killed with its pool workers when it outlives its wall-clock limit; a
killed run counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 11  # fresh processes that only set up; setup_s is their median
CLI_RUNS = 5
SETUP_LIMIT_S = 30
# The wall-clock limit of a whole run, all children included, is
# FIXED_ALLOWANCE_S + 3 * --seconds: the allowance covers the set-up runs,
# the CLI probes and the fixed passes of a traced run; the multiple covers
# the warm-up pass, the last pass that runs past --seconds and the checks.
FIXED_ALLOWANCE_S = 110


class Child:
    """A child process in its own session, read until it exits or its
    deadline passes; then it and everything it started are killed."""

    def __init__(self, argv: list[str], env: dict | None = None):
        self.t_start = perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     start_new_session=True)
        self.out = b""
        self.marks: dict[bytes, float] = {}

    def collect(self, deadline: float, marks: tuple[bytes, ...] = ()) -> bool:
        """Read stdout to EOF, noting when each line in ``marks`` arrives.
        Returns False when the deadline passed first."""
        fd = self.proc.stdout.fileno()
        try:
            while True:
                left = deadline - monotonic()
                if left <= 0 or not select.select([fd], [], [], left)[0]:
                    return False
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return True
                self.out += chunk
                for mark in marks:
                    if mark not in self.marks and mark + b"\n" in self.out:
                        self.marks[mark] = perf_counter() - self.t_start
        finally:
            self.stop(deadline)

    def stop(self, deadline: float) -> None:
        try:
            self.proc.wait(timeout=max(0.1, deadline - monotonic()))
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # pool workers share the group
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()

    def last_json(self) -> dict | None:
        lines = self.out.decode(errors="replace").strip().splitlines()
        if not lines or self.proc.returncode != 0:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None


def worker(mode: str, args, deadline: float, extra: list[str] = ()) -> tuple[Child, bool]:
    child = Child([sys.executable, str(HERE / "worker.py"), "--mode", mode,
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), *extra])
    return child, child.collect(deadline, (b"ready",))


def cli_probes(deadline: float) -> tuple[dict, list[str]]:
    """cli.import_ms and cli.cold_compute_ms, each the median of fresh
    processes, with the compute output checked against its recorded digest."""
    import hashlib

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import time; t = time.perf_counter(); import stiefelq.cli; "
            "print((time.perf_counter() - t) * 1000)")
    imports, computes, errors = [], [], []
    want = workloads.RECORDED.get("cli_compute")
    for _ in range(CLI_RUNS):
        c = Child([sys.executable, "-c", code], env)
        if c.collect(deadline) and c.proc.returncode == 0:
            imports.append(float(c.out.split()[-1]))
        else:
            errors.append("import probe failed")
        c = Child([sys.executable, "-m", "stiefelq", "compute", "--n", "4", "--k", "2", "--m", "2"], env)
        ok = c.collect(deadline)
        elapsed = perf_counter() - c.t_start
        if ok and c.proc.returncode == 0 and hashlib.sha256(c.out).hexdigest() == want:
            computes.append(elapsed * 1000)
        else:
            errors.append("cli compute probe failed or printed other bytes")
    med = lambda xs: statistics.median(xs) if xs else 0.0
    return {"cli.import_ms": med(imports), "cli.cold_compute_ms": med(computes)}, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stiefelq" / "__init__.py").is_file():
        print(f"error: no stiefelq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = monotonic() + FIXED_ALLOWANCE_S + 3 * args.seconds
    errors: list[str] = []
    attempted = failed = 0

    setups = []
    for _ in range(0 if args.trace else SETUP_RUNS):
        child, ok = worker("setup", args, min(deadline, monotonic() + SETUP_LIMIT_S))
        res = child.last_json()
        if not ok or res is None or b"ready" not in child.marks:
            errors.append("set-up run timed out or crashed")
            continue
        setups.append(child.marks[b"ready"] * res["speed_factor"])

    mode = "trace" if args.trace else "run"
    out_dir = HERE / "out"
    extra = []
    if args.trace:
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz"
        extra = ["--out", str(trace_file)]
    child, ok = worker(mode, args, deadline, extra)
    res = child.last_json()
    if not ok or res is None:
        errors.append(f"{mode} run timed out after its wall-clock limit or crashed")
        print(json.dumps({"correct": False, "attempted": attempted + 1,
                          "failed": failed + 1, "metrics": {}}))
        print("\n".join(errors), file=sys.stderr)
        return 1
    attempted += res["attempted"]
    failed += res["failed"]
    errors += res["errors"]

    recorded = workloads.RECORDED.get(args.workload, [])
    if args.seed == workloads.DEFAULT_SEED:
        for p, items, digest in res["digests"]:
            if digest != (recorded[p % len(recorded)] if recorded else None):
                errors.append(f"pass {p}: output digest {digest[:16]} differs from the record")
                failed += items

    meta = dict(res["meta"], setup_runs=len(setups), timed_passes=res["passes"],
                items=res["attempted"], samples=res.get("samples", 0),
                tail_percentile=res.get("tail_pct"), tail_beyond=res.get("tail_beyond"),
                speed_factors=res["speed_factors"], unscaled=res["raw"])
    print("meta " + json.dumps(meta))
    med = lambda xs: statistics.median(xs) if xs else 0.0
    if args.trace:
        layers = dict(res["layers"])
        speed = calibrate.Speedometer()
        speed.burst()
        t_probes = perf_counter()
        probes, probe_errors = cli_probes(deadline)
        t_probes = (t_probes + perf_counter()) / 2  # bursts on both sides count
        speed.burst()
        factor = speed.factor_at(t_probes)
        probes = {k: v * factor for k, v in probes.items()}
        layers.update(probes)
        errors += probe_errors
        values = {name: (layers[name], unit) for name, _s, unit, _b in metrics.PER_LAYER}
        print(f"trace {args.workload}: {res['spans']} spans ({res['spans_kept']} kept) "
              f"written to {trace_file.relative_to(ROOT)}")
        print(f"absent: {', '.join(res['absent']) or 'none'}")
        for line in res["bases"]:
            print(f"base of {line}")
    else:
        values = {
            "setup_s": (med(setups), "s"),
            "items_per_s": (res["items_per_s"], "1/s"),
            "item_p50_ms": (res.get("item_p50_s", 0.0) * 1000, "ms"),
            "item_tail_ms": (res.get("item_tail_s", 0.0) * 1000, "ms"),
            "first_item_ms": (res["first_item_s"] * 1000, "ms"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    for name, (value, unit) in values.items():
        note = ""
        if name == "item_tail_ms" and meta["tail_percentile"] is None:
            note = f"  (time per row over {meta['samples']} rows, which arrive in chunks)"
        elif name == "item_tail_ms":
            note = (f"  (p{meta['tail_percentile']:.2f} of {meta['samples']} samples, "
                    f"{meta['tail_beyond']} beyond)")
        print(f"{args.workload:14s} {name:45s} {value:14.6g} {unit}{note}")
    print(f"{args.workload:14s} {'failed_ratio':45s} {failed / attempted if attempted else 1.0:14.6g} "
          f"ratio  ({failed} of {attempted})")
    for line in errors[:20]:
        print(f"check: {line}", file=sys.stderr)
    correct = failed == 0 and not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
