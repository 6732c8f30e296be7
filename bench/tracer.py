"""Spans around calls into the package's public functions.

The tracer rebinds every module-level name in the ``stiefelq`` package that
refers to a traced function (modules import names directly, so
``report.poincare_polynomial`` and ``modp.poincare_polynomial`` are two
bindings of one function) and puts all bindings back on ``restore``.  A
function that no longer exists is reported as absent.  No library file is
changed.

Each span records name, start, end, parent span and item id.  Counts and self
times (span time minus the time of child spans) are accumulated as spans
close; the spans themselves are kept in memory up to SPAN_CAP and written
out by the caller.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter

PACKAGE = "stiefelq"
SPAN_CAP = 200_000  # spans kept in memory; counts and self times cover all
TARGETS = {
    "arith": ("binomial", "gcd_with_binomials", "binomial_mod", "is_prime", "factorize"),
    "manifold": ("validate",),
    "torsion": ("torsion_profile", "torsion_order"),
    "modp": ("presentation", "truncation_exponent", "poincare_polynomial"),
    "charclass": ("char_class_report", "pontrjagin_class", "stiefel_whitney_classes"),
    "span": ("span_report",),
    "report": ("compute_report", "render", "generate_table"),
}


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.item = -1
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.span_count = 0
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, name, start, child time, parent]
        self._bindings: list[tuple] = []

    # --- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self.span_count, name, perf_counter(), 0.0, parent])
        self.span_count += 1

    def _exit(self) -> float:
        end = perf_counter()
        sid, name, start, child, parent = self._stack.pop()
        total = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + total - child
        if self._stack:
            self._stack[-1][3] += total
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, start, end, parent, self.item))
        return total

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    # --- wrappers ------------------------------------------------------------

    def _plain(self, name, fn, post=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:  # forked pool worker: untraced
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if post is not None:
                post(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _render(self, fn):
        tracer = self

        def wrapper(report, fmt, *args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(report, fmt, *args, **kwargs)
            name = f"report.render.{fmt}"
            tracer._enter(name)
            try:
                out = fn(report, fmt, *args, **kwargs)
            finally:
                tracer._exit()
            tracer.add(f"{name}.bytes", len(out))
            if fmt == "json":
                emitted = sum(len(e.poincare) for e in getattr(report, "cohomology", ()))
                tracer.add("modp.poincare_polynomial.emitted", emitted)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _table(self, fn):
        """generate_table returns an iterator: each ``next`` is one span, so
        rows computed in this process become its children.  With jobs > 1 the
        span is time the caller waits on the pool."""
        tracer = self
        name = "report.generate_table"

        def rows(it, t_call, skip, pooled):
            first = True
            try:
                while True:
                    tracer._enter(name)
                    try:
                        row = next(it)
                    except StopIteration:
                        return
                    finally:
                        spent = tracer._exit()
                        if pooled:
                            tracer.add(f"{name}.wait_s", spent)
                    if skip:
                        skip = False
                    elif first:
                        first = False
                        tracer.add(f"{name}.first_row_s", perf_counter() - t_call)
                        tracer.add(f"{name}.first_rows", 1)
                    yield row
            finally:
                close = getattr(it, "close", None)
                if close is not None:
                    close()

        def wrapper(spec, *args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(spec, *args, **kwargs)
            t_call = perf_counter()
            tracer._enter(name)
            try:
                it = fn(spec, *args, **kwargs)
            finally:
                tracer._exit()
            if not hasattr(it, "__next__"):
                return it
            skip = getattr(spec, "fmt", None) == "csv"  # the header row
            return rows(it, t_call, skip, getattr(spec, "jobs", 1) > 1)

        wrapper.__wrapped__ = fn
        return wrapper

    def _make(self, qualname: str, fn):
        if qualname == "report.render":
            return self._render(fn)
        if qualname == "report.generate_table":
            return self._table(fn)
        post = None
        if qualname == "arith.binomial":
            post = lambda r, a, k: self.add("arith.binomial.result_kbits", r.bit_length() / 1000)
        elif qualname == "modp.poincare_polynomial":
            post = lambda r, a, k: self.add("modp.poincare_polynomial.coeffs", len(r))
        return self._plain(qualname, fn, post)

    # --- install / restore ---------------------------------------------------

    def install(self) -> None:
        pkg = PACKAGE
        originals = []
        for mod_name, names in TARGETS.items():
            try:
                mod = importlib.import_module(f"{pkg}.{mod_name}")
            except ImportError:
                self.absent.extend(f"{mod_name}.{n}" for n in names)
                continue
            for n in names:
                fn = getattr(mod, n, None)
                if not callable(fn):
                    self.absent.append(f"{mod_name}.{n}")
                    continue
                originals.append((fn, self._make(f"{mod_name}.{n}", fn)))
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == pkg or key.startswith(pkg + "."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                for fn, wrapper in originals:
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, fn))
                        break

    def restore(self) -> None:
        while self._bindings:
            mod, attr, fn = self._bindings.pop()
            setattr(mod, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
