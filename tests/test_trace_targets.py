"""The benchmark's per-layer trace (qmbench/spans.py) finds every function
it times.  The tracer wraps its targets by module and attribute name and
lists the names it cannot find in ``missing`` instead of raising, so a
renamed function would otherwise drop out of the trace without an error.
This test reads qmbench/ and edits nothing there."""

import importlib.util
from pathlib import Path

import qmconvex as q
import qmconvex.cli  # noqa: F401  (the tracer reaches every module as an attribute)

SPANS = Path(__file__).resolve().parents[1] / "qmbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("qmbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(module_name, attr):
    """The function behind a target name; "Class.method" reads the class."""
    owner = getattr(q, module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, attr)


def test_every_timed_target_resolves():
    spans = load_spans()
    originals = {target: lookup(*target) for target in spans.TARGETS}
    tracer = spans.Tracer(q)
    tracer.install()
    try:
        # only the counted-call names may be missing; every timed one is wrapped
        counted = {f"{m}.{a}" for m, a in spans.CALL_COUNTS}
        assert set(tracer.missing) <= counted, tracer.missing
        # the type I layers show up as spans when the pipeline runs
        tracer.begin_op()
        verdict = q.test_mconvexity(q.gen_tree_metric_type1(12, 3, 1))
        names = set(tracer.end_op()["spans"])
    finally:
        tracer.uninstall()
    assert verdict.status == q.M_CONVEX
    assert {
        "fast_tester.test_mconvexity",
        "fast_tester.test_type1",
        "fast_tester.normalize_type1",
        "fast_tester.check_anti_ultrametric",
    } <= names, names
    # uninstall puts every original back
    for target, original in originals.items():
        assert lookup(*target) is original, target
