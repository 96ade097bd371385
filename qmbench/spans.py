"""Spans around the calls into qmconvex's modules, installed from outside.

The tracer wraps the functions listed in TARGETS wherever the package's
modules hold a reference to them (``cli`` imports ``parse_instance`` by
name, for instance), so calls made inside the program are recorded too.
Nothing in the program is edited; ``uninstall`` puts every original back.

A span is (op id, span id, parent span id, name, start, end).  Spans stay
in memory; ``end_op`` folds the current operation's spans into inclusive
and self time per name, self time being the span's duration minus the
part its child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

#: (module, attribute) pairs to time; "Class.method" names a method.
TARGETS = (
    ("cli", "main"),
    ("cli", "_read_text"),
    ("cli", "_emit"),
    ("core", "parse_instance"),
    ("core", "QuadraticInstance.from_entries"),
    ("core", "serialize_instance"),
    ("core", "Verdict.to_json"),
    ("structure", "build_infinity_graph"),
    ("structure", "decompose_components"),
    ("structure", "check_condition_b"),
    ("structure", "classify"),
    ("fast_tester", "test_mconvexity"),
    ("fast_tester", "test_type1"),
    ("fast_tester", "normalize_type1"),
    ("fast_tester", "check_anti_ultrametric"),
    ("fast_tester", "test_type2"),
    ("fast_tester", "test_type3"),
    ("fast_tester", "find_violation_quadruple"),
    ("oracle", "exchange_axiom_holds"),
    ("oracle", "enumerate_domain"),
    ("oracle", "verify_witness"),
    ("generators", "gen_tree_metric_type1"),
    ("generators", "gen_linear_typed"),
)

#: Counts taken from a traced call's result, by span name.
RESULT_COUNTS = {
    "structure.build_infinity_graph": lambda g: {
        "inf_pairs": sum(len(nb) for nb in g.neighbors) // 2
    },
    "structure.decompose_components": lambda d: {"big_components": len(d.big)},
    "oracle.enumerate_domain": lambda d: {"domain_size": len(d.supports)},
}

#: Functions whose calls are counted but not timed: per-block checks are
#: too many and too short to wrap in spans without distorting type III.
CALL_COUNTS = {("fast_tester", "_adjacent_2x2_ok"): "blocks_checked"}


class Tracer:
    def __init__(self, package) -> None:
        self._package = package
        self._modules = [package] + [
            getattr(package, name) for name in sorted({m for m, _ in TARGETS})
        ]
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._op_start = 0
        self.op_id = 0
        self.counts: dict[str, float] = {}
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.missing: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr in TARGETS:
            self._patch(module_name, attr, lambda fn, name: self._timed(name, fn))
        for (module_name, attr), counter in CALL_COUNTS.items():
            self._patch(module_name, attr, lambda fn, name, c=counter: self._counted(c, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module_name: str, attr: str, make) -> None:
        name = f"{module_name}.{attr}"
        module = getattr(self._package, module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name, None)
            raw = owner.__dict__.get(method) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                return
            if isinstance(raw, classmethod):
                replacement = classmethod(make(raw.__func__, name))
            else:
                replacement = make(raw, name)
            self._patches.append((owner, method, raw))
            setattr(owner, method, replacement)
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = make(original, name)
        for mod in self._modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _timed(self, name: str, fn):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                try:
                    self.add_counts(count(result))
                except (AttributeError, TypeError):
                    pass  # the result changed shape; the count reads 0
            return result

        return traced

    def _counted(self, counter: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[counter] = self.counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- recording ----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else 0
        self._next_id += 1
        span_id = self._next_id
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.op_id, span_id, parent, name, start, end))

    def add_counts(self, counts: dict) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def begin_op(self) -> None:
        self.op_id += 1
        self.counts = {}
        self._op_start = len(self.spans)

    def end_op(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds of the
        current operation, plus its counts."""
        spans = self.spans[self._op_start:]
        child = {}
        for _, _, parent, _, start, end in spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        totals: dict[str, dict] = {}
        for _, span_id, _, name, start, end in spans:
            entry = totals.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += end - start - child.get(span_id, 0.0)
        return {"spans": totals, "counts": dict(self.counts)}
