"""Structural checks on the program's outputs, independent of the library.

Each check returns a list of error strings (empty when the output is sound).
Torsion orders are recomputed here as a gcd fold over ``math.comb``, so no
check relies on the library's own torsion routines.
"""

from __future__ import annotations

import json
import math

VERDICT_RANK = {"no": 0, "unknown": 1, "yes": 2}
TORSION_CHECK_MAX_N = 160  # the local gcd fold is cheap up to here


def torsion_orders(n: int, k: int, m: int) -> list[int]:
    orders = [m] * (n - k)
    g = m
    for r in range(n - k + 1, n + 1):
        g = math.gcd(g, math.comb(n, r))
        orders.append(g)
    return orders


def torsion_height(orders: list[int]) -> int:
    return max(r for r, o in enumerate(orders, start=1) if o > 1)


def _verdict_errors(where: str, parallelizable: str, stably: str) -> list[str]:
    if parallelizable not in VERDICT_RANK or stably not in VERDICT_RANK:
        return [f"{where}: unknown verdict {parallelizable!r} / {stably!r}"]
    if VERDICT_RANK[parallelizable] > VERDICT_RANK[stably]:
        return [f"{where}: parallelizable {parallelizable} > stably {stably}"]
    return []


def _span_errors(where: str, lower: int, upper: int, par: str, stably: str) -> list[str]:
    errors = _verdict_errors(where, par, stably)
    if lower > upper:
        errors.append(f"{where}: span_lower {lower} > span_upper {upper}")
    return errors


def report_dict_errors(d: dict) -> list[str]:
    """Checks on the JSON form of one report."""
    p = d["params"]
    n, k, m = p["n"], p["k"], p["m"]
    where = f"report n={n} k={k} m={m}"
    errors = []
    dim = k * (2 * n - k)
    if d["basic"]["dimension"] != dim:
        errors.append(f"{where}: dimension {d['basic']['dimension']} != {dim}")
    for e in d["cohomology"]:
        coeffs = e["poincare"]
        if len(coeffs) != dim + 1:
            errors.append(f"{where} p={e['p']}: {len(coeffs)} coefficients, want {dim + 1}")
        if coeffs != coeffs[::-1]:
            errors.append(f"{where} p={e['p']}: Poincare list is not a palindrome")
        if sum(coeffs) != e["total_dimension"]:
            errors.append(f"{where} p={e['p']}: coefficients sum to {sum(coeffs)}, "
                          f"total_dimension is {e['total_dimension']}")
    if n <= TORSION_CHECK_MAX_N:
        want = torsion_orders(n, k, m)
        if d["torsion"]["orders"] != want:
            errors.append(f"{where}: torsion orders differ from the gcd fold")
        elif d["torsion"]["height"] != torsion_height(want):
            errors.append(f"{where}: height {d['torsion']['height']} != {torsion_height(want)}")
    s = d["span"]
    errors += _span_errors(where, s["span_lower"], s["span_upper"],
                           s["parallelizable"], s["stably_parallelizable"])
    return errors


def dossier_errors(lib, report, json_bytes: bytes, text_bytes: bytes) -> list[str]:
    errors = []
    if lib.report_from_json(json_bytes) != report:
        errors.append("json does not round-trip to an equal report")
    errors += report_dict_errors(json.loads(json_bytes))
    p = report.params
    if not text_bytes.startswith(f"frame quotient n={p.n} k={p.k} m={p.m}\n".encode()):
        errors.append(f"text dossier for n={p.n} k={p.k} m={p.m} has the wrong first line")
    return errors


def span_errors(n: int, k: int, m: int, rep) -> list[str]:
    where = f"span n={n} k={k} m={m}"
    errors = _span_errors(where, rep.span_lower, rep.span_upper,
                          rep.parallelizable.value, rep.stably_parallelizable.value)
    if k >= 2 and rep.span_upper != k * (2 * n - k):
        errors.append(f"{where}: upper bound {rep.span_upper} is not the dimension")
    if rep.stable_span_lower < rep.span_lower:
        errors.append(f"{where}: stable span lower bound below the span lower bound")
    return errors


def span_bytes(n: int, k: int, m: int, rep) -> bytes:
    """A canonical rendering of a span report, for the digest."""
    lines = [
        f"{n},{k},{m},{rep.span_lower},{rep.span_upper},{rep.stable_span_lower},"
        f"{int(rep.span_eq_stable_guaranteed)},{rep.parallelizable.value},"
        f"{rep.stably_parallelizable.value}",
        *rep.provenance,
        "",
    ]
    return "\n".join(lines).encode()


def csv_row_errors(row: bytes, point: tuple[int, int, int]) -> list[str]:
    fields = row.decode().split(",")
    where = f"csv row {point}"
    if len(fields) != 9:
        return [f"{where}: {len(fields)} fields"]
    n, k, m, dim, height, lower, upper = (int(f) for f in fields[:7])
    if (n, k, m) != point:
        return [f"{where}: row is for {(n, k, m)}"]
    errors = []
    if dim != k * (2 * n - k):
        errors.append(f"{where}: dimension {dim}")
    want = torsion_height(torsion_orders(n, k, m))
    if height != want:
        errors.append(f"{where}: height {height} != {want}")
    return errors + _span_errors(where, lower, upper, fields[8], fields[7])


def json_row_errors(lib, row: bytes, point: tuple[int, int, int]) -> list[str]:
    d = json.loads(row)
    p = d["params"]
    if (p["n"], p["k"], p["m"]) != point:
        return [f"json row {point}: row is for {(p['n'], p['k'], p['m'])}"]
    errors = report_dict_errors(d)
    # the dict form of the parsed report, without the cost of indented JSON
    # encoding where the library still offers it
    to_dict = getattr(lib.report, "report_to_dict", None)
    rep = lib.report_from_json(row)
    if (to_dict(rep) if to_dict else json.loads(lib.render(rep, "json"))) != d:
        errors.append(f"json row {point}: does not round-trip through report_from_json")
    return errors
