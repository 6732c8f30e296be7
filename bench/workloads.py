"""Seeded inputs and the timed passes of the four workloads.

A run is a sequence of passes, and pass p shares its inputs with pass
p + passes_per_cycle.  Every pass holds the same strata (bins of n and of
k/n, the number of distinct primes of m, the large-q share), and the seed
picks values inside them, so different seeds cost about the same.  Only
the timed calls into the library count as busy time; digests and checks run
between them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())
PASSES_PER_CYCLE = SPEC["passes_per_cycle"]
DEFAULT_SEED = SPEC["default_seed"]
WORKLOADS = SPEC["workloads"]
ITEM_WORKLOADS = ("dossier", "span_large")
DIGESTS = HERE / "digests.json"
SPOOL_DIR = HERE / "out"  # pooled rows are spooled here while a pass runs
# per workload: the SHA-256 of every byte each pass of the default seed
# renders, recorded by record.py
RECORDED = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


# --- inputs ------------------------------------------------------------------


def is_prime(q: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if q < 2:
        return False
    for p in bases:
        if q % p == 0:
            return q == p
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def composites(pool: list[int], distinct: int) -> list[int]:
    """Even m with exactly ``distinct`` prime factors from ``pool``: 2 or 4
    times the odd primes, the smallest of them possibly squared."""
    two, odd = pool[0], pool[1:]
    out = set()
    for combo in itertools.combinations(odd, distinct - 1):
        for a, sq in itertools.product((1, 2), (1, 2)):
            out.add(two**a * combo[0] ** sq * math.prod(combo[1:]))
    return sorted(out)


@functools.lru_cache(maxsize=None)
def _lattice(name: str, seed: int, key: str) -> list[float]:
    """One position in [0, 1) per pass of a cycle, spread evenly over the
    cycle in an order and with an offset drawn from the seed.  Each stratum
    of a seed then covers its whole bin, so the median of a heavy-tailed
    workload does not move with the seed's luck of the draw."""
    rng = random.Random(f"{name}:{seed}:{key}")
    offset = rng.random()
    return [(j + offset) / PASSES_PER_CYCLE
            for j in rng.sample(range(PASSES_PER_CYCLE), PASSES_PER_CYCLE)]


def _binned(position: float, lo: float, hi: float, b: int, bins: int) -> float:
    return lo + (b + position) * (hi - lo) / bins


def _strata(name: str, count: int) -> list[int]:
    return random.Random(f"{name}-strata").sample(range(count), count)


def _large_q(rng: random.Random, lo: int, hi: int) -> int:
    q = rng.randrange(lo, hi - 10**6)
    while not is_prime(q):
        q += 1
    return q


def item_pass(name: str, seed: int, p: int) -> list[tuple[int, int, int]]:
    """(n, k, m) triples of one pass of ``dossier`` or ``span_large``.  Regular
    items take their place in their stratum from ``_lattice``; the large-q
    items are drawn at random.  The first item is the same in every pass, so
    first_item_ms times one fixed probe."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}:{p % PASSES_PER_CYCLE}")
    pools = {r: composites(w["m_prime_pool"], r) for r in range(w["m_distinct_primes"][0],
                                                               w["m_distinct_primes"][1] + 1)}
    counts = sorted(pools)
    first = w["first_item"]
    items = [(first["n"], max(1, round(first["n"] * first["k_fraction"])), first["m"])]
    large = w.get("large_q")
    regular = w["items_per_pass"] - 1 - (large["items_per_pass"] if large else 0)
    n_lo, n_hi = w["n_range"]
    f_lo, f_hi = w["k_fraction"]
    k_bins = _strata(name, regular)
    c = p % PASSES_PER_CYCLE
    for i in range(regular):
        n = min(n_hi, int(_binned(_lattice(name, seed, f"n{i}")[c], n_lo, n_hi + 1, i, regular)))
        frac = _binned(_lattice(name, seed, f"k{i}")[c], f_lo, f_hi, k_bins[i], regular)
        k = min(n - w["k_margin"], max(1, round(frac * n)))
        pool = pools[counts[i % len(counts)]]
        items.append((n, k, pool[int(_lattice(name, seed, f"m{i}")[c] * len(pool))]))
    if large:
        for _ in range(large["items_per_pass"]):
            n = rng.randint(*large["n"])
            items.append((n, round(n * large["k_fraction"]), 2 * _large_q(rng, *large["q_range"])))
    # keep the first item first and interleave the rest, so a pass has no
    # cheap or costly end
    rest = items[1:]
    order = _strata(f"{name}-order", len(rest))
    return [items[0]] + [rest[j] for j in order]


def table_spec(name: str, seed: int, p: int, jobs: int) -> dict:
    """GridSpec keyword arguments of one pass of a table workload."""
    w = WORKLOADS[name]
    offset = (w["m_offset_step"] * seed + p % PASSES_PER_CYCLE) % w["m_offsets"]
    m_lo = w["m_first"] + offset
    return {
        "n_range": tuple(w["n_range"]),
        "k_range": None,  # every k in 1..n-1
        "m_range": (m_lo, m_lo + w["m_window"] - 1),
        "fmt": w["fmt"],
        "jobs": jobs,
    }


def make_passes(name: str, seed: int, jobs: int) -> list:
    if name in ITEM_WORKLOADS:
        return [item_pass(name, seed, p) for p in range(PASSES_PER_CYCLE)]
    return [table_spec(name, seed, p, jobs) for p in range(PASSES_PER_CYCLE)]


def grid_points(spec: dict) -> list[tuple[int, int, int]]:
    (n0, n1), (m0, m1) = spec["n_range"], spec["m_range"]
    return [(n, k, m) for n in range(n0, n1 + 1) for k in range(1, n) for m in range(m0, m1 + 1)]


# --- passes ------------------------------------------------------------------


def _checked(check, *args) -> list[str]:
    """Run a check; a check that raises on malformed output is a failure."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"{check.__name__}: {exc!r}"]


@dataclass
class PassResult:
    pass_id: int
    latencies: list[float] = field(default_factory=list)  # pooled: the first row only
    starts: list[float] = field(default_factory=list)  # serial: when each item began
    span: tuple[float, float] = (0.0, 0.0)  # pooled: call and exhaustion of the table
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    errors: list[str] = field(default_factory=list)

    def fail(self, errors: list[str]) -> None:
        self.failed += 1
        self.errors.extend(errors[:3])

    @property
    def busy_s(self) -> float:
        """Time inside library calls."""
        return self.span[1] - self.span[0] if not self.starts else sum(self.latencies)

    def scaled(self, speed) -> tuple[list[float], float]:
        """Latencies and busy time at the reference speed of ``speed``."""
        if self.starts:
            lat = [x * speed.factor_at(t) for x, t in zip(self.latencies, self.starts)]
            return lat, sum(lat)
        f = (speed.factor_at(self.span[0]) + speed.factor_at(self.span[1])) / 2
        return [x * f for x in self.latencies], self.busy_s * f


def run_items(lib, name: str, items, pass_id: int, tracer=None, speed=None) -> PassResult:
    res = PassResult(pass_id)
    h = hashlib.sha256()
    for i, (n, k, m) in enumerate(items):
        res.attempted += 1
        if tracer is not None:
            tracer.item = pass_id * 1000 + i
        if speed is not None:
            speed.tick()
        t0 = perf_counter()
        try:
            if name == "dossier":
                rep = lib.compute_report(lib.validate(n, k, m))
                out = (lib.render(rep, "json"), lib.render(rep, "text"))
            else:
                rep = lib.span_report(lib.validate(n, k, m))
        except Exception as exc:  # a failing item is counted, not fatal
            res.fail([f"{name} n={n} k={k} m={m}: {exc!r}"])
            continue
        res.latencies.append(perf_counter() - t0)
        res.starts.append(t0)
        if name == "dossier":
            h.update(out[0])
            h.update(out[1])
            errors = _checked(checks.dossier_errors, lib, rep, *out)
        else:
            h.update(checks.span_bytes(n, k, m, rep))
            errors = _checked(checks.span_errors, n, k, m, rep)
        if errors:
            res.fail(errors)
    res.digest = h.hexdigest()
    return res


def _once(check, verified: set):
    """A check that passes at once for bytes already verified at the same
    grid point: consecutive passes share all but one m column."""

    def wrapped(row, point):
        key = (point, hashlib.sha256(row).digest())
        if key in verified:
            return []
        errors = check(row, point)
        if not errors:
            verified.add(key)
        return errors

    return wrapped


def run_table(lib, spec: dict, pass_id: int, tracer=None, speed=None,
              verified: set | None = None) -> PassResult:
    """One generate_table call.  Serial rows are timed one at a time and
    checked between them.  Pooled rows are written to a spool file as they
    arrive, as ``stiefelq table`` writes them out, and checked after the
    pass: the checks do not compete with the workers for processors, and the
    measured process never holds a whole pass of rows."""
    res = PassResult(pass_id)
    h = hashlib.sha256()
    points = grid_points(spec)
    csv = spec["fmt"] == "csv"
    pooled = spec["jobs"] > 1
    if csv:
        check = lambda row, point: _checked(checks.csv_row_errors, row, point)
    else:
        check = lambda row, point: _checked(checks.json_row_errors, lib, row, point)
    if verified is not None:
        check = _once(check, verified)
    spool = None
    if pooled:
        SPOOL_DIR.mkdir(exist_ok=True)
        spool = tempfile.TemporaryFile(dir=SPOOL_DIR)
    header = csv
    delivered = 0
    if tracer is not None:
        tracer.item = pass_id * 100000
    t_call = t_prev = perf_counter()
    gen = lib.generate_table(lib.GridSpec(**spec))
    try:
        for row in gen:
            t = perf_counter()
            h.update(row + b"\n")
            if header:
                header = False
                if row != lib.CSV_HEADER.encode():
                    res.errors.append(f"csv header {row[:80]!r}")
                    res.failed += 1
                continue
            res.attempted += 1
            if delivered >= len(points):
                res.fail([f"extra row {row[:80]!r}"])
                continue
            point = points[delivered]
            delivered += 1
            if tracer is not None:
                tracer.item = pass_id * 100000 + delivered
            if pooled:
                if delivered == 1:
                    t_first = t
                spool.write(row + b"\n")
            else:
                res.latencies.append(t - t_prev)
                res.starts.append(t_prev)
                errors = check(row, point)
                if errors:
                    res.fail(errors)
                if speed is not None:
                    speed.tick()
                t_prev = perf_counter()
        t_end = perf_counter()
    except Exception as exc:  # the pass stops; rows not delivered count as failed
        t_end = perf_counter()
        missing = len(points) - delivered
        res.attempted += missing
        res.failed += missing
        res.errors.append(f"table {spec}: {exc!r}")
    finally:
        gen.close()  # shuts a pool down on every path
    res.span = (t_call, t_end)
    if pooled and delivered:
        # rows come back in chunks, not one at a time: only the time to the
        # first row is a latency of its own
        res.latencies = [t_first - t_call]
    if delivered < len(points) and not res.errors:
        missing = len(points) - delivered
        res.attempted += missing
        res.failed += missing
        res.errors.append(f"table {spec}: {delivered} of {len(points)} rows")
    if pooled:
        spool.seek(0)
        for line, point in zip(spool, points):
            errors = check(line[:-1], point)
            if errors:
                res.fail(errors)
        spool.close()
    res.digest = h.hexdigest()
    return res


def run_pass(lib, name: str, pass_input, pass_id: int, tracer=None, speed=None,
             verified: set | None = None) -> PassResult:
    """One pass; ``speed`` (a calibrate.Speedometer) ticks between serial
    items, outside the timed calls; ``verified`` collects table rows already
    checked."""
    if name in ITEM_WORKLOADS:
        return run_items(lib, name, pass_input, pass_id, tracer, speed)
    return run_table(lib, pass_input, pass_id, tracer, speed, verified)
