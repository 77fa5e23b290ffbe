"""Tracing from outside the program, for the benchmark's traced runs.

The traced child process installs wrappers around calls into each module's
public functions after ``nsjack.cli`` is imported, then runs its workload.
Every wrapper is installed in every ``nsjack`` module that binds the
function's name, because the modules import each other's functions by name:
patching only ``nsjack.operators.dunkl`` would miss the call made through
``nsjack.singular.dunkl``.

A spanned call records (name, start, end, parent) in memory; the spans are
written out when the child ends and the parent derives per-layer calls, total
time and self time from them.  RatFunc arithmetic runs millions of times per
workload, too often to keep a span per call, so it is only counted and timed
(outermost call only); its time stays inside its callers' self time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# Functions recorded as spans, by module; the metric prefix is "module.name".
SPANNED = (
    ("combinatorics", "compositions_strictly_below"),
    ("vectorpoly", "tau_context"),
    ("vectorpoly", "group_action"),
    ("operators", "uprime_column"),
    ("operators", "dunkl"),
    ("operators", "jucys_murphy"),
    ("operators", "cherednik_prime"),
    ("jack", "construct_jack"),
    ("jack", "specialize"),
    ("jack", "verify_eigen_equations"),
    ("singular", "family_context"),
    ("singular", "singular_family"),
    ("singular", "isotype_of"),
    ("cli", "main"),
)

# RatFunc's arithmetic and comparison methods, counted as "ratfunc.arith".
ARITH = (
    "__add__",
    "__radd__",
    "__neg__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__eq__",
)


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        # per-layer metrics measured without spans, by metric name
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def spanned(self, name, fn, after=None):
        """``fn`` recording a span per call; ``after(result)`` runs once the
        span has ended."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, name, fn):
        """``fn`` counting its calls as ``name.calls``."""
        counts, key = self.counts, f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed_group(self, name):
        """A wrapper factory whose wrapped functions share ``name.calls`` and
        ``name.s``, the time of calls not nested in another call of the
        group."""
        counts, clock = self.counts, time.perf_counter
        calls, busy = f"{name}.calls", f"{name}.s"
        depth = [0]

        def wrap(fn):
            def wrapper(*args, **kwargs):
                counts[calls] += 1
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] = 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts[busy] += clock() - start
                    depth[0] = 0

            return wrapper

        return wrap

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")


def _rebind(orig, wrapper) -> None:
    """Replace ``orig`` by ``wrapper`` wherever an nsjack module binds it."""
    for modname, module in list(sys.modules.items()):
        if modname != "nsjack" and not modname.startswith("nsjack."):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of the nsjack modules."""
    import nsjack.cli  # imports every traced module

    jack, ratfunc = nsjack.jack, nsjack.ratfunc
    counts = tracer.counts

    def count_terms(result):
        counts["jack.terms"] += len(result.poly.terms)

    def note_tau_dim(ctx):
        counts["vectorpoly.tau_dim"] = max(counts["vectorpoly.tau_dim"], ctx.dim)

    after = {"jack.construct_jack": count_terms, "vectorpoly.tau_context": note_tau_dim}
    for modname, fname in SPANNED:
        name = f"{modname}.{fname}"
        orig = getattr(getattr(nsjack, modname), fname)
        _rebind(orig, tracer.spanned(name, orig, after.get(name)))

    # Every CLI handler becomes one span, so that main's self time is the
    # argument parsing and the rendering of the handler's document.
    for attr, value in list(vars(nsjack.cli).items()):
        if attr.startswith("_cmd_") and callable(value):
            setattr(nsjack.cli, attr, tracer.spanned("cli.handler", value))

    jack_basis = jack._jack_basis

    def counted_basis(alpha, dim):
        lower, basis, index = jack_basis(alpha, dim)
        counts["jack.basis_size"] += len(basis)
        return lower, basis, index

    jack._jack_basis = counted_basis
    ratfunc._canonicalize = tracer.counted("ratfunc.canonicalize", ratfunc._canonicalize)
    arith = tracer.timed_group("ratfunc.arith")
    for method in ARITH:
        setattr(ratfunc.RatFunc, method, arith(ratfunc.RatFunc.__dict__[method]))


def read_spans(path) -> list[tuple]:
    spans = []
    with open(path) as fh:
        for line in fh:
            name, start, end, parent = line.rstrip("\n").split("\t")
            spans.append((name, float(start), float(end), int(parent)))
    return spans


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``; ``s``, the time of calls not nested in a
    call of the same name; ``self_s``, the time not covered by child spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += end - start - child[index]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["s"] += end - start
    return out
