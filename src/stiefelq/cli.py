"""Command-line interface.

Exit codes: 0 success, 2 invalid parameters, 1 internal error.
STIEFEL_JOBS sets the default worker count for ``table``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from itertools import islice

from stiefelq.manifold import ParameterError, validate
from stiefelq.report import GridSpec, _compute_text, _json_dossier, compute_report, generate_table
from stiefelq.span import span_report


def _parse_span_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    value = int(text)
    return value, value


def _parse_k_range(text: str) -> tuple[int, int] | None:
    if text == "auto":
        return None
    return _parse_span_range(text)


def _parse_primes(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiefelq",
        description=(
            "Topological invariants of quotients of complex Stiefel manifolds "
            "by cyclic groups of roots of unity."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="full invariant report for one (n, k, m)")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--primes", type=_parse_primes, default=None,
                   help="comma-separated primes (default: primes dividing m, plus 2)")
    c.add_argument("--format", choices=("json", "text"), default="text")
    c.set_defaults(func=_cmd_compute)

    t = sub.add_parser("table", help="reports over an (n, k, m) grid")
    t.add_argument("--n", type=_parse_span_range, required=True, metavar="LO..HI")
    t.add_argument("--k", type=_parse_k_range, default=None, metavar="LO..HI|auto",
                   help="k range, or 'auto' for 1..n-1 (default)")
    t.add_argument("--m", type=_parse_span_range, required=True, metavar="LO..HI")
    t.add_argument("--primes", type=_parse_primes, default=None)
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: STIEFEL_JOBS or 1)")
    t.add_argument("--out", default=None, help="output file (default: stdout)")
    t.set_defaults(func=_cmd_table)

    s = sub.add_parser("span", help="span bounds and parallelizability verdicts")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--ext-span", type=int, default=None,
                   help="externally known span of 2nk Hopf bundles (m = 2 only)")
    s.set_defaults(func=_cmd_span)
    return parser


def _cmd_compute(args: argparse.Namespace) -> int:
    params = validate(args.n, args.k, args.m)
    if args.format == "json":
        # ``render(report, "json")`` piece by piece: no joined copy of the
        # whole dossier, as str or as bytes
        pieces = _json_dossier(compute_report(params, args.primes))
        sys.stdout.buffer.writelines(map(str.encode, pieces))
    else:
        # ``render(report, "text")`` without the Poincare lists it never prints
        sys.stdout.buffer.write(_compute_text(params, args.primes))
    sys.stdout.buffer.flush()
    return 0


def _resolve_jobs(cli_value: int | None) -> int:
    # GridSpec rejects a count below 1
    if cli_value is not None:
        return cli_value
    env = os.environ.get("STIEFEL_JOBS", "")
    if not env:
        return 1
    try:
        return int(env)
    except ValueError:
        raise ParameterError("jobs-not-int", f"STIEFEL_JOBS must be an integer, got {env!r}")


def _cmd_table(args: argparse.Namespace) -> int:
    spec = GridSpec(
        n_range=args.n,
        k_range=args.k,
        m_range=args.m,
        primes=args.primes,
        fmt=args.format,
        jobs=_resolve_jobs(args.jobs),
    )
    try:
        out = open(args.out, "wb") if args.out else sys.stdout.buffer
    except OSError as exc:
        raise ParameterError(
            "out-unwritable", f"cannot write {args.out!r}: {exc.strerror or exc}"
        ) from exc
    rows = generate_table(spec)
    try:
        # The header and first data row are flushed at once, before the
        # generator is asked for the row that starts a pool; the rest go out
        # in blocks.
        for row in islice(rows, 2 if spec.fmt == "csv" else 1):
            out.write(row)
            out.write(b"\n")
        out.flush()
        for row in rows:
            out.write(row)
            out.write(b"\n")
        out.flush()
    finally:
        # on an early stop (a closed pipe) this cancels the pending rows
        rows.close()
        if args.out:
            out.close()
    return 0


def _cmd_span(args: argparse.Namespace) -> int:
    params = validate(args.n, args.k, args.m)
    rep = span_report(params, external_span=args.ext_span)
    w = sys.stdout.write
    w(f"n={params.n} k={params.k} m={params.m} dim={params.dimension}\n")
    w(f"span lower bound:        {rep.span_lower}\n")
    w(f"span upper bound:        {rep.span_upper}\n")
    w(f"stable span lower bound: {rep.stable_span_lower}\n")
    w(f"span = stable span guaranteed: {'yes' if rep.span_eq_stable_guaranteed else 'no'}\n")
    w(f"parallelizable:          {rep.parallelizable.value}\n")
    w(f"stably parallelizable:   {rep.stably_parallelizable.value}\n")
    w("provenance:\n")
    for line in rep.provenance:
        w(f"  - {line}\n")
    sys.stdout.flush()
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader went away (``stiefelq ... | head``): stop without a
        # message.  Pointing stdout at devnull keeps the flush at interpreter
        # exit from failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ParameterError as exc:
        print(f"error: {exc} [{exc.reason}]", file=sys.stderr)
        return 2
    except Exception as exc:
        # some exceptions (MemoryError) carry no message: name the type
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
