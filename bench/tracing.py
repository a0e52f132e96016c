"""Spans and counters recorded around compderiv's public functions.

The tracer works from outside the package: ``install`` replaces module
attributes with wrappers and ``uninstall`` puts the originals back, so an
untraced run executes the package exactly as shipped.  A function is
wrapped under every name any ``compderiv`` module binds it to (the names
``cli`` and ``composition`` import included), so calls made inside the
package are seen too.

Functions called once or a few times per route get a span (name, start,
end, parent, op id).  Hot or recursive functions get a counter, optionally
with accumulated time, because a span per call would distort the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# (module, function) pairs that get a span.
SPANS = (
    ("partitions", "enumerate_multiplicity_vectors"),
    ("composition", "derivative_partition_sum"),
    ("composition", "derivative_bell"),
    ("composition", "partial_bell"),
    ("composition", "lagrange_power_coefficient"),
    ("composition", "power_derivatives"),
    ("determinant", "build_matrix"),
    ("determinant", "determinant_expand"),
    ("determinant", "interpret_phi_polynomial"),
    ("determinant", "derivative_determinant"),
    ("series", "jet_from_derivatives"),
    ("series", "jet_compose"),
    ("series", "derivative_via_jets"),
    ("symbolic", "parse"),
    ("symbolic", "derivative_sequence_of"),
    ("symbolic", "nth_derivative_of_composition"),
    ("symbolic", "taylor_polynomial"),
    ("cli", "main"),
)
# Hot functions: counted and timed, no span.  Their time is charged to
# the enclosing span as child time, so it is not in that span's self time.
TIMED_COUNTERS = (("partitions", "multinomial_weight"),)
# Hot or recursive functions: counted only; their time stays in the caller.
COUNTERS = (("series", "jet_mul"), ("symbolic", "differentiate"))
# Methods counted only: (module, class, method).
METHOD_COUNTERS = (("determinant", "PhiPolynomial", "__mul__"),)
# Routes whose returned Fraction sizes are recorded.
VALUE_ROUTES = {
    "composition.derivative_partition_sum",
    "composition.derivative_bell",
    "composition.lagrange_power_coefficient",
    "determinant.derivative_determinant",
    "series.derivative_via_jets",
    "symbolic.nth_derivative_of_composition",
}


class Tracer:
    """Collects spans and counters in memory while installed."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, op id, child seconds].
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.timed: defaultdict[str, float] = defaultdict(float)
        self.num_bits_max = 0
        self.den_bits_max = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_result = None
        if name == "partitions.enumerate_multiplicity_vectors":
            on_result = self._count_vectors
        elif name in VALUE_ROUTES:
            on_result = self._record_value

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.op_id, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += record[2] - record[1]
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _timed_counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts, timed = self.counts, self.timed

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                counts[name] += 1
                timed[name] += elapsed
                if stack:
                    spans[stack[-1]][5] += elapsed

        return wrapper

    def _counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_vectors(self, vectors: list[Any]) -> None:
        self.counts["partitions.vectors_visited"] += len(vectors)

    def _record_value(self, value: Any) -> None:
        self.num_bits_max = max(self.num_bits_max, abs(value.numerator).bit_length())
        self.den_bits_max = max(self.den_bits_max, value.denominator.bit_length())

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Wrap every target under every name a compderiv module gives it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "compderiv" or name.startswith("compderiv."))
        ]
        plans = ((SPANS, self._span), (TIMED_COUNTERS, self._timed_counter), (COUNTERS, self._counter))
        for targets, make in plans:
            for module_name, attr in targets:
                original = getattr(sys.modules[f"compderiv.{module_name}"], attr)
                wrapper = make(f"{module_name}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        for module_name, cls_name, method in METHOD_COUNTERS:
            cls = getattr(sys.modules[f"compderiv.{module_name}"], cls_name)
            original = cls.__dict__[method]
            self._patch(cls, method, self._counter(f"{module_name}.{cls_name}.{method}", original))

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus child spans and timed counters."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, start, end, _parent, _op, child in self.spans:
            out[name] += (end - start) - child
        return dict(out)

    def span_counts(self) -> Counter[str]:
        return Counter(span[0] for span in self.spans)

    def export_spans(self) -> list[list[Any]]:
        """Spans as [name, start, end, parent, op], times relative to the first."""
        if not self.spans:
            return []
        origin = self.spans[0][1]
        return [
            [name, round(start - origin, 7), round(end - origin, 7), parent, op]
            for name, start, end, parent, op, _child in self.spans
        ]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""
    self_s = tracer.self_seconds()
    calls = tracer.span_counts()
    counts, timed = tracer.counts, tracer.timed

    def s(*names: str) -> float:
        return sum(self_s.get(n, 0.0) for n in names)

    def layer(module: str) -> float:
        spans = sum(v for k, v in self_s.items() if k.startswith(module + "."))
        return spans + sum(v for k, v in timed.items() if k.startswith(module + "."))

    return {
        "partitions.enumerate_s": (s("partitions.enumerate_multiplicity_vectors"), "s"),
        "partitions.enumerate_calls": (calls["partitions.enumerate_multiplicity_vectors"], "count"),
        "partitions.vectors_visited": (counts["partitions.vectors_visited"], "count"),
        "partitions.weight_s": (timed["partitions.multinomial_weight"], "s"),
        "partitions.weight_calls": (counts["partitions.multinomial_weight"], "count"),
        "partitions.self_s": (layer("partitions"), "s"),
        "composition.partition_sum_s": (s("composition.derivative_partition_sum"), "s"),
        "composition.bell_s": (s("composition.derivative_bell", "composition.partial_bell"), "s"),
        "composition.partial_bell_calls": (calls["composition.partial_bell"], "count"),
        "composition.lagrange_s": (s("composition.lagrange_power_coefficient"), "s"),
        "composition.self_s": (layer("composition"), "s"),
        "determinant.build_s": (s("determinant.build_matrix"), "s"),
        "determinant.expand_s": (s("determinant.determinant_expand"), "s"),
        "determinant.interpret_s": (s("determinant.interpret_phi_polynomial"), "s"),
        "determinant.ring_muls": (counts["determinant.PhiPolynomial.__mul__"], "count"),
        "determinant.self_s": (layer("determinant"), "s"),
        "series.from_derivs_s": (s("series.jet_from_derivatives"), "s"),
        "series.compose_s": (s("series.jet_compose"), "s"),
        "series.jet_mul_calls": (counts["series.jet_mul"], "count"),
        "series.self_s": (layer("series"), "s"),
        "symbolic.parse_s": (s("symbolic.parse"), "s"),
        "symbolic.sequence_of_s": (s("symbolic.derivative_sequence_of"), "s"),
        "symbolic.differentiate_calls": (counts["symbolic.differentiate"], "count"),
        "symbolic.composition_s": (s("symbolic.nth_derivative_of_composition"), "s"),
        "symbolic.taylor_s": (s("symbolic.taylor_polynomial"), "s"),
        "symbolic.self_s": (layer("symbolic"), "s"),
        "cli.self_s": (s("cli.main"), "s"),
        "exact.result_num_bits_max": (tracer.num_bits_max, "bit"),
        "exact.result_den_bits_max": (tracer.den_bits_max, "bit"),
    }