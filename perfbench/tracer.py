"""In-memory span tracer for the benchmark's traced run.

The tracer reaches the library only through the module-level bindings one
layer uses to call another (``mixedsums.forms.three_squares`` and so on).
Inside ``with tracer:`` each binding is swapped for a wrapper that records a
span; leaving the block restores the originals, so no library source
changes.  A span is ``(name, start_ns, end_ns, parent, request)``, where
``parent`` indexes the enclosing span (-1 for a request's root) and
``request`` numbers the request the span belongs to.  Spans stay in memory
until :meth:`Tracer.write`.

The three-square search counts are computed from each call's input and
output (see ``_observe_two_squares``), not read from inside the library.
Wrappers inherited by forked pool workers cannot report back, so traced
runs must use ``jobs=1``.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from math import isqrt
from pathlib import Path
from time import perf_counter_ns

# (module, attribute, span name).  Modules are found with importlib because
# the package re-exports the function ``three_squares`` under the name of
# its submodule, so ``mixedsums.three_squares`` is not the module.
BINDINGS = (
    ("mixedsums.forms", "three_squares", "three_squares"),
    ("mixedsums.forms", "align_mod3", "jacobi.align_mod3"),
    ("mixedsums.forms", "jacobi_transform", "jacobi.jacobi_transform"),
    ("mixedsums.three_squares", "two_squares", "three_squares.two_squares"),
    ("mixedsums.three_squares", "is_three_square_feasible", "arith.classifier"),
    ("mixedsums.survey", "represent", "forms.represent"),
    ("mixedsums.survey", "verify", "forms.verify"),
    ("mixedsums.survey", "exists", "oracle.exists"),
    ("mixedsums.survey", "is_three_square_feasible", "arith.classifier"),
)

BINDING_KEYS = tuple(f"{module}.{attr}" for module, attr, _ in BINDINGS)

ROOT_SPAN = "request"


def two_squares_steps(rem: int, pair: tuple[int, int] | None) -> int:
    """Iterations of the ``a`` loop in ``two_squares(rem)``, from its result.

    The loop runs ``a`` down from isqrt(rem) while 2a^2 >= rem: it stops at
    the returned ``a`` on a hit, and after the smallest such ``a`` on a miss.
    """
    top = isqrt(rem)
    if pair is not None:
        return top - pair[0] + 1
    low = isqrt(rem // 2)
    if 2 * low * low < rem:
        low += 1
    return max(0, top - low + 1)


def _observe_three_squares(tracer: "Tracer", args: tuple, rep, _ns: int) -> None:
    # x runs down from isqrt(m) to the accepted leading square
    tracer.counts["x_candidates"] += isqrt(args[0]) - rep.x + 1


def _observe_two_squares(tracer: "Tracer", args: tuple, pair, _ns: int) -> None:
    steps = two_squares_steps(args[0], pair)
    tracer.counts["inner_steps"] += steps
    if pair is None:
        tracer.counts["wasted_steps"] += steps
    else:
        tracer.counts["two_squares_hits"] += 1


def _observe_represent(tracer: "Tracer", args: tuple, _cert, ns: int) -> None:
    tracer.samples[args[0].value].append(ns)


def _observe_exists(tracer: "Tracer", _args: tuple, found: bool, ns: int) -> None:
    if found:
        tracer.counts["exists_hits"] += 1
    else:
        tracer.counts["exists_miss_ns"] += ns


_OBSERVERS = {
    "three_squares": _observe_three_squares,
    "three_squares.two_squares": _observe_two_squares,
    "forms.represent": _observe_represent,
    "oracle.exists": _observe_exists,
}


class Tracer:
    """Records spans and counts while installed with ``with tracer:``."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.calls: Counter[str] = Counter()  # per binding key
        self.counts: Counter[str] = Counter()  # computed search counts
        self.samples: defaultdict[str, list[int]] = defaultdict(list)  # form -> ns
        self.labels: list[str] = []  # request id -> label
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, key: str | None = None):
        """``fn`` recording a span named ``name`` (and a call under ``key``)."""
        spans, stack, calls = self.spans, self._stack, self.calls
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, len(self.labels) - 1)
            if key is not None:
                calls[key] += 1
            if observe is not None:
                observe(self, args, result, end - start)
            return result

        return traced

    def request(self, label: str, fn, *args):
        """Run ``fn(*args)`` as the root span of a new request."""
        self.labels.append(label)
        return self.wrap(ROOT_SPAN, fn)(*args)

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, f"{module_name}.{attr}"))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_metrics(self, forms: list[str], sources: tuple[str, ...]) -> dict:
        """Per-layer figures as ``name -> (value, unit)``, from the spans.

        ``oracle.exists_busy_s.<source>`` groups oracle time by the label of
        the request it ran under.
        """
        busy: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        child_ns = [0] * len(self.spans)
        exists_by_label: Counter[str] = Counter()
        for name, start, end, parent, request in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_ns[parent] += end - start
            if name == "oracle.exists":
                exists_by_label[self.labels[request]] += end - start
        represent_self = sum(
            end - start - child_ns[i]
            for i, (name, start, end, _, _) in enumerate(self.spans)
            if name == "forms.represent"
        )
        c = self.counts
        two_calls = calls["three_squares.two_squares"]
        out = {
            "three_squares.calls": (calls["three_squares"], "count"),
            "three_squares.busy_s": (busy["three_squares"] / 1e9, "s"),
            "three_squares.share": (_ratio(busy["three_squares"], busy[ROOT_SPAN]), "ratio"),
            "three_squares.x_candidates": (c["x_candidates"], "count"),
            "three_squares.two_squares_calls": (two_calls, "count"),
            "three_squares.two_squares_useful_ratio": (
                _ratio(c["two_squares_hits"], two_calls),
                "ratio",
            ),
            "three_squares.inner_steps": (c["inner_steps"], "count"),
            "three_squares.wasted_step_ratio": (
                _ratio(c["wasted_steps"], c["inner_steps"]),
                "ratio",
            ),
            "jacobi.calls": (calls["jacobi.align_mod3"] + calls["jacobi.jacobi_transform"], "count"),
            "jacobi.busy_s": (
                (busy["jacobi.align_mod3"] + busy["jacobi.jacobi_transform"]) / 1e9,
                "s",
            ),
            "forms.represent.self_s": (represent_self / 1e9, "s"),
            "forms.verify.busy_s": (busy["forms.verify"] / 1e9, "s"),
        }
        for form in forms:
            ns = sorted(self.samples.get(form, ()))
            p50 = ns[len(ns) // 2] / 1e3 if ns else 0.0
            out[f"forms.represent_p50_us.{metric_suffix(form)}"] = (p50, "us")
        out["oracle.exists.calls"] = (calls["oracle.exists"], "count")
        out["oracle.exists.busy_s"] = (busy["oracle.exists"] / 1e9, "s")
        out["oracle.exists.hit_ratio"] = (_ratio(c["exists_hits"], calls["oracle.exists"]), "ratio")
        out["oracle.exists.miss_busy_s"] = (c["exists_miss_ns"] / 1e9, "s")
        for source in sources:
            out[f"oracle.exists_busy_s.{source}"] = (exists_by_label[source] / 1e9, "s")
        out["arith.classifier.calls"] = (calls["arith.classifier"], "count")
        out["arith.classifier.busy_s"] = (busy["arith.classifier"] / 1e9, "s")
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, one ``[name, start_ns, end_ns,
        parent, request, request_label]`` array each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for name, start, end, parent, request in self.spans:
                label = self.labels[request] if request >= 0 else ""
                f.write(json.dumps([name, start, end, parent, request, label]) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metric_suffix(form: str) -> str:
    """A form spelling as a metric-name component (``x2+3y2+t`` -> ``x2_3y2_t``)."""
    return form.replace("+", "_")
