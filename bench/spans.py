"""Per-layer spans recorded from outside the package.

The tracer replaces functions on the module attributes where their callers
look them up (``pmmobility.cli.parse_mechanism_text`` and so on) with
wrappers that record a span: name, op id, parent span, start, end, and the
exception type if one escaped.  The relation-graph lookups are only counted,
because they run thousands of times per op and a span each would swamp
them.  A wrap point that no longer exists is reported as an absent layer.

Spans are kept in memory; self time is a span's duration minus the time its
direct children cover.  The CLI runs each file on a worker thread while the
calling thread waits, so at most one thread is inside a traced call at any
moment and one shared span stack is enough.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name)
SPAN_POINTS = (
    ("pmmobility.cli", "run", "cli.run"),
    ("pmmobility.cli", "parse_mechanism_text", "parser.parse"),
    ("pmmobility.cli", "analyze_mechanism", "mobility.analyze"),
    ("pmmobility.cli", "verify_mechanism", "oracle.verify"),
    ("pmmobility.cli", "render_human", "report.render"),
    ("pmmobility.cli", "render_structured", "report.render"),
    ("pmmobility.mobility", "validate_mechanism", "mobility.validate"),
    ("pmmobility.mobility", "build_relation_graph", "relations.build"),
    ("pmmobility.mobility", "analyze_leg", "legs.analyze"),
    ("pmmobility.legs", "extract_subchains", "subchains.extract"),
    ("pmmobility.legs", "normalize", "poc.normalize"),
    ("pmmobility.oracle", "build_relation_graph", "relations.build"),
    ("pmmobility.oracle", "instantiate_geometry", "oracle.sample"),
    ("pmmobility.oracle", "numeric_loop_and_platform", "oracle.rank"),
)

# (module, class, method, counter name)
COUNT_POINTS = tuple(
    ("pmmobility.relations", "RelationGraph", method, "relations.lookup")
    for method in ("relation_between", "parallel", "perpendicular", "same_axis", "parallel_class")
)

# per-layer metric computed from the spans -> unit
LAYER_METRICS = {
    "cli.self_ms": "ms",
    "parser.parse_ms": "ms",
    "relations.build_ms": "ms",
    "relations.build_calls": "count",
    "relations.reject_frac": "fraction",
    "relations.lookup_calls": "count",
    "subchains.extract_ms": "ms",
    "poc.normalize_ms": "ms",
    "legs.self_ms": "ms",
    "mobility.fold_ms": "ms",
    "mobility.validate_ms": "ms",
    "report.render_ms": "ms",
    "oracle.sample_ms": "ms",
    "oracle.sample_calls": "count",
    "oracle.resample_frac": "fraction",
    "oracle.rank_ms": "ms",
    "oracle.verify_self_ms": "ms",
}


class Tracer:
    """Installs span and counter wrappers and keeps what they record."""

    def __init__(self) -> None:
        # [name, op, parent index, start, end, exception type name]
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _span_wrapper(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, self.op, stack[-1] if stack else None, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                record[5] = type(err).__name__
                raise
            finally:
                record[4] = perf_counter()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for module_name, attr, name in SPAN_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._replace(module, attr, self._span_wrapper(fn, name))
        for module_name, cls_name, method, name in COUNT_POINTS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            fn = getattr(cls, method, None)
            if fn is None:
                self.absent.append(f"{module_name}.{cls_name}.{method}")
                continue
            self._replace(cls, method, self._count_wrapper(fn, name))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Self time in seconds of every span, by span index."""
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for _, _, parent, start, end, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_metrics(self, ops: int, seeds: int) -> dict[str, float]:
        """Per-op means of the per-layer metrics over ``ops`` traced ops."""
        own = self.self_times()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        rejected_ops = set()
        verified_ok = set()
        samples_in_ok_verify = 0
        for index, (name, op, parent, start, end, error) in enumerate(self.spans):
            self_s[name] += own[index]
            total_s[name] += end - start
            calls[name] += 1
            if name == "relations.build" and error == "InconsistentRelations":
                rejected_ops.add(op)
            if name == "oracle.verify" and error is None:
                verified_ok.add(index)
        for name, _, parent, *_ in self.spans:
            if name == "oracle.sample" and parent in verified_ok:
                samples_in_ok_verify += 1

        def per_op_ms(seconds: float) -> float:
            return 1e3 * seconds / ops

        return {
            "cli.self_ms": per_op_ms(self_s["cli.run"]),
            "parser.parse_ms": per_op_ms(total_s["parser.parse"]),
            "relations.build_ms": per_op_ms(total_s["relations.build"]),
            "relations.build_calls": calls["relations.build"] / ops,
            "relations.reject_frac": len(rejected_ops) / ops,
            "relations.lookup_calls": self.counts["relations.lookup"] / ops,
            "subchains.extract_ms": per_op_ms(total_s["subchains.extract"]),
            "poc.normalize_ms": per_op_ms(total_s["poc.normalize"]),
            "legs.self_ms": per_op_ms(self_s["legs.analyze"]),
            "mobility.fold_ms": per_op_ms(self_s["mobility.analyze"]),
            "mobility.validate_ms": per_op_ms(total_s["mobility.validate"]),
            "report.render_ms": per_op_ms(total_s["report.render"]),
            "oracle.sample_ms": per_op_ms(total_s["oracle.sample"]),
            "oracle.sample_calls": calls["oracle.sample"] / ops,
            "oracle.resample_frac": (
                samples_in_ok_verify / (len(verified_ok) * seeds) - 1 if verified_ok else 0.0
            ),
            "oracle.rank_ms": per_op_ms(total_s["oracle.rank"]),
            "oracle.verify_self_ms": per_op_ms(self_s["oracle.verify"]),
        }

    def self_time_by_span(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for record, seconds in zip(self.spans, self.self_times()):
            out[record[0]] += seconds
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write the spans and counts as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, op, parent, start, end, error in self.spans:
                out.write(json.dumps([name, op, parent, start, end, error]) + "\n")
            for name, n in sorted(self.counts.items()):
                out.write(json.dumps(["count", name, n]) + "\n")
