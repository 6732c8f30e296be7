"""Metric names, units and directions; BENCHMARK.json lists the same ones."""

from __future__ import annotations

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_tail_ms", "ms", "lower"),
    ("first_item_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _layer(module: str, function: str, *stats: str) -> list[tuple]:
    units = {"calls": ("count", "lower"), "self_ms": ("ms", "lower")}
    out = []
    for stat in stats:
        unit, better = units.get(stat, (None, None))
        out.append((f"{module}.{function}.{stat}", stat, unit, better))
    return out


def _extra(name: str, unit: str, better: str) -> tuple:
    return (name, name.rsplit(".", 1)[1], unit, better)


# name, stat, unit, better
PER_LAYER = tuple(
    _layer("arith", "binomial", "calls", "self_ms")
    + [_extra("arith.binomial.result_kbits", "kbit", "lower")]
    + _layer("arith", "gcd_with_binomials", "calls", "self_ms")
    + _layer("arith", "binomial_mod", "calls", "self_ms")
    + _layer("arith", "is_prime", "calls", "self_ms")
    + _layer("arith", "factorize", "calls", "self_ms")
    + _layer("manifold", "validate", "calls", "self_ms")
    + _layer("torsion", "torsion_profile", "calls", "self_ms")
    + _layer("torsion", "torsion_order", "calls", "self_ms")
    + _layer("modp", "presentation", "calls", "self_ms")
    + _layer("modp", "truncation_exponent", "calls", "self_ms")
    + _layer("modp", "poincare_polynomial", "calls", "self_ms")
    + [
        _extra("modp.poincare_polynomial.coeffs", "count", "lower"),
        _extra("modp.poincare_polynomial.emitted_ratio", "ratio", "higher"),
        _extra("modp.poincare_polynomial.self_share", "ratio", "lower"),
    ]
    + _layer("charclass", "char_class_report", "calls", "self_ms")
    + [_extra("charclass.char_class_report.per_report", "ratio", "lower")]
    + _layer("charclass", "pontrjagin_class", "calls", "self_ms")
    + _layer("charclass", "stiefel_whitney_classes", "calls", "self_ms")
    + _layer("span", "span_report", "calls", "self_ms")
    + _layer("report", "compute_report", "calls", "self_ms")
    + [
        m
        for fmt in ("json", "text", "csv_row")
        for m in _layer("report", f"render.{fmt}", "self_ms")
        + [_extra(f"report.render.{fmt}.bytes", "B", "lower")]
    ]
    + [
        _extra("report.generate_table.first_row_ms", "ms", "lower"),
        _extra("report.generate_table.wait_ms", "ms", "lower"),
        _extra("report.generate_table.scaling_efficiency", "ratio", "higher"),
        _extra("cli.cold_compute_ms", "ms", "lower"),
        _extra("cli.import_ms", "ms", "lower"),
        _extra("trace.overhead_ratio", "ratio", "lower"),
    ]
)
