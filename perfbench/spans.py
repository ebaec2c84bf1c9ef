"""Timing spans recorded from the benchmark's side of each layer boundary.

The package is not edited.  `install` replaces every public function that
`fourfold.cli`, `fourfold.ranks` and `fourfold.oracle` import from another
fourfold module with a wrapper that records a span; the benchmark wraps the
entry points it calls itself with `Tracer.wrap`.  A span's layer is the
module that defines the callee.  Self time is a span's duration minus the
time its child spans cover; spans nest strictly because each process runs one
operation at a time on one thread.
"""

from __future__ import annotations

import functools
import inspect
import time

import reference

LAYERS = ("cli", "ranks", "series", "oracle", "stable")
COUNTERS = (
    "ranks.degree_sum",
    "ranks.max_digits",
    "series.coefficients",
    "oracle.columns",
    "oracle.rows",
    "oracle.nonzeros",
    "oracle.rank",
    "oracle.rational_escalations",
    "stable.groups",
)


class Span:
    __slots__ = ("layer", "name", "degree", "start", "end", "child_s", "failed", "result")

    def __init__(self, layer, name, degree):
        self.layer = layer
        self.name = name
        self.degree = degree
        self.child_s = 0.0
        self.failed = False
        self.result = None


def _degree_argument(fn):
    """Function returning the second parameter (the degree) of a call, or None."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return lambda args, kwargs: None
    params = list(sig.parameters)
    if len(params) < 2:
        return lambda args, kwargs: None

    def degree(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        value = bound.arguments[params[1]]
        return value if isinstance(value, int) else None

    return degree


class Tracer:
    """Collects the spans of one operation at a time; `take` hands them over."""

    def __init__(self):
        self._spans = []
        self._stack = []

    def wrap(self, layer: str, name: str, fn):
        degree_of = _degree_argument(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, name, degree_of(args, kwargs))
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                self._spans.append(span)

        return traced

    def take(self) -> dict:
        """Summarise and forget the spans recorded since the last call."""
        spans, self._spans = self._spans, []
        return summarise(spans)


def install(tracer: Tracer):
    """Wrap the cross-module imports of fourfold.cli, .ranks and .oracle.

    Returns a function that puts the original functions back.
    """
    import fourfold.cli
    import fourfold.oracle
    import fourfold.ranks

    originals = []
    for module in (fourfold.cli, fourfold.ranks, fourfold.oracle):
        for name, obj in list(vars(module).items()):
            owner = getattr(obj, "__module__", "") or ""
            if (
                name.startswith("_")
                or isinstance(obj, type)
                or not callable(obj)
                or not owner.startswith("fourfold.")
                or owner == module.__name__
            ):
                continue
            originals.append((module, name, obj))
            setattr(module, name, tracer.wrap(owner.split(".")[1], name, obj))

    def uninstall():
        for module, name, obj in originals:
            setattr(module, name, obj)

    return uninstall


def layer_of(fn) -> str:
    return fn.__module__.split(".")[1]


def empty_summary() -> dict:
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.failed"] = 0
    for name in COUNTERS:
        out[name] = 0
    out["span_s"] = 0.0
    return out


def summarise(spans) -> dict:
    """Per-layer calls, self time, failures and work counters of some spans."""
    out = empty_summary()
    for s in spans:
        duration = s.end - s.start
        out["span_s"] += duration - s.child_s
        out[f"{s.layer}.calls"] += 1
        out[f"{s.layer}.self_s"] += duration - s.child_s
        # cli.main reports failure through its exit code
        failed = s.failed or (s.layer == "cli" and s.result not in (0, None))
        out[f"{s.layer}.failed"] += int(failed)
        if s.failed:
            continue
        result = s.result
        if s.layer == "ranks":
            out["ranks.degree_sum"] += s.degree or 0
            ranks = getattr(result, "ranks", None)
            if ranks:
                digits = reference.decimal_digits(max(ranks))
                out["ranks.max_digits"] = max(out["ranks.max_digits"], digits)
        elif s.layer == "series":
            out["series.coefficients"] += getattr(result, "truncation_order", -1) + 1
        elif s.name == "quotient_dims_oracle":
            k, n_max = result.betti_param, result.max_degree
            columns = reference.word_counts(k, n_max)
            rows = [reference.relation_rows(k, n) for n in range(n_max + 1)]
            out["oracle.columns"] += sum(columns[3:])
            out["oracle.rows"] += sum(rows)
            # each row u * r * v has the 2k distinct words of r
            out["oracle.nonzeros"] += 2 * k * sum(rows)
            out["oracle.rank"] += sum(result.ideal_dims.dims)
            out["oracle.rational_escalations"] += int(result.field_used == "rational")
        elif s.name == "stable_homotopy_finite_pi1":
            out["stable.groups"] += 1
        s.result = None
    return out


def merge(total: dict, part: dict) -> None:
    for name, value in part.items():
        if name == "ranks.max_digits":
            total[name] = max(total.get(name, 0), value)
        else:
            total[name] = total.get(name, 0) + value
