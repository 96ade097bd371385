#!/usr/bin/env python3
"""Benchmark of qmconvex, from the checkout it sits in.

    python3 qmbench/run.py --workload cli_io --seed 1 --seconds 30 --trace 0

A round runs the workload's operations in a fixed order: `test` and `gen`
through ``qmconvex.cli.main`` on files, `decide` and `explain` through
``test_mconvexity`` in memory, and `crosscheck` through the CLI.  Rounds
repeat, one process and one thread, for --seconds.  Every
verdict is checked; a wrong one, or an exception, counts as a failed
operation.  The last line of stdout is one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).  A traced run
alternates untraced and traced rounds and also writes
``.qmbench/breakdown_<workload>_seed<seed>.json`` and the raw spans.
See README.md for what each workload and metric is for.
"""

import os

# One thread: the load is one process; pin BLAS/OpenMP before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".qmbench"
SETUP_REPEATS = 3  # at least; more until SETUP_MIN_S of set-up have run
SETUP_MIN_S = 1.0

# The host is shared, and its speed drifts by 10-20% between half-minute
# windows, the same for every operation.  A fixed reference kernel, run
# between operations, measures that drift; end-to-end times are reported as
# seconds on a host where the kernel takes REFERENCE_S (raw time times
# REFERENCE_S / mean kernel time of the same phase of the run: set-up,
# untraced or traced rounds).  The kernel is independent of qmconvex, so a
# change to the program moves only the raw times.
REFERENCE_S = 0.005
REFERENCE_EVERY_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "test_s": "s",
    "gen_s": "s",
    "decide.I_yes_s": "s",
    "decide.I_no_s": "s",
    "decide.II_clique_s": "s",
    "decide.III_many_s": "s",
    "crosscheck_s": "s",
    "explain_s": "s",
}


def import_program():
    """Import qmconvex from this checkout's src/, timing the import."""
    if not (SRC / "qmconvex" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'qmconvex'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qmconvex
    import corpus  # noqa: F401  (imports numpy and every qmconvex module)

    elapsed = time.perf_counter() - start
    if Path(qmconvex.__file__).resolve().parent != SRC / "qmconvex":
        sys.exit(f"error: imported qmconvex from {qmconvex.__file__}, not {SRC}")
    return qmconvex, elapsed


def reference_kernel(rows) -> float:
    """Seconds of one call of fixed work: interpreted integer arithmetic,
    then numpy arithmetic on a 300x300 array."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    for _ in range(20):
        rows + rows.T
    return time.perf_counter() - start


class Tally:
    """Call times, failures, reference-kernel times and traced layer
    records of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known = 0  # wrong results a known defect explains; not failures
        self.problems: list[str] = []
        self.known_problems: list[str] = []
        # (kind, cls) -> seconds of every untraced / traced call
        self.untraced: dict[tuple, list[float]] = {}
        self.traced: dict[tuple, list[float]] = {}
        self.layers: dict[tuple, list[dict]] = {}
        self.meta: dict[tuple, dict] = {}
        # reference kernel seconds in set-up, untraced (False) and traced rounds
        self.reference: dict = {"setup": [], False: [], True: []}
        self._reference_at = -REFERENCE_EVERY_S
        import numpy

        self._rows = numpy.ones((300, 300))

    def describe(self, ops) -> None:
        """Record the size, input bytes and calls per round of each class."""
        for op in ops:
            meta = self.meta.setdefault((op.kind, op.cls), {"n": op.n, "bytes": [], "per_round": 0})
            meta["bytes"].append(op.doc_bytes)
            meta["per_round"] += 1

    def calibrate(self, phase) -> None:
        """Run the reference kernel when REFERENCE_EVERY_S have passed."""
        if time.perf_counter() - self._reference_at >= REFERENCE_EVERY_S:
            self.reference[phase].append(reference_kernel(self._rows))
            self._reference_at = time.perf_counter()

    def host_factor(self, phase=False) -> float:
        """Factor from raw seconds of a phase to reported seconds."""
        return REFERENCE_S / statistics.fmean(self.reference[phase])

    def fail(self, reason: str) -> None:
        """Count a failed operation, or a wrong result that a known defect
        of the program explains (corpus.KnownDefect) apart from failures."""
        from corpus import KnownDefect  # imported with the program

        if isinstance(reason, KnownDefect):
            self.known += 1
            problems = self.known_problems
        else:
            self.failed += 1
            problems = self.problems
        if len(problems) < 20:
            problems.append(str(reason))


def execute(op, tally: Tally, tracer=None) -> None:
    """Run one operation; time only op.run(), then check its result.  A call
    that raises is timed up to the exception and counts as failed."""
    key = (op.kind, op.cls)
    tally.attempted += 1
    if op.out is not None:
        op.out.unlink(missing_ok=True)
    if tracer is not None:
        tracer.begin_op()
    problem = None
    start = time.perf_counter()
    try:
        result = op.run()
    except (Exception, SystemExit) as exc:  # a failed operation must not end the run
        problem = f"{op.kind} {op.cls}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if problem is None:
        try:
            problem = op.check(result)
        except Exception as exc:
            problem = f"{op.kind} {op.cls}: check raised {type(exc).__name__}: {exc}"
    if problem is not None:
        tally.fail(problem)
    (tally.untraced if tracer is None else tally.traced).setdefault(key, []).append(elapsed)
    if tracer is None:
        return
    if op.kind == "test":
        with tracer.span("bench.json_loads"):
            json.loads(op.doc.read_text())
    tally.layers.setdefault(key, []).append(tracer.end_op())


def run_round(ops, tally: Tally, tracer=None) -> None:
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            tally.calibrate(tracer is not None)
            execute(op, tally, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()


# ---------------------------------------------------------------------------
# Metrics


def kind_mean(table: dict, kind: str) -> float:
    """Mean over the kind's classes of each class's mean seconds per call.

    The mean, not the median: on a shared host a call's time jumps between
    a fast and a slow state, and the median of a run follows whichever
    state held more calls, while the mean moves only by the mix."""
    return statistics.fmean(statistics.fmean(v) for (k, _), v in table.items() if k == kind)


def end_to_end(tally: Tally, setup_s: float) -> dict:
    """Raw end-to-end figures; times in seconds of this run's host."""
    u = tally.untraced
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "test_s": kind_mean(u, "test"),
        "gen_s": kind_mean(u, "gen"),
        "decide.I_yes_s": statistics.fmean(u[("decide", "I_yes")]),
        "decide.I_no_s": statistics.fmean(u[("decide", "I_no")]),
        "decide.II_clique_s": statistics.fmean(u[("decide", "II_clique")]),
        "decide.III_many_s": statistics.fmean(u[("decide", "III_many")]),
        "crosscheck_s": kind_mean(u, "crosscheck"),
        "explain_s": kind_mean(u, "explain"),
    }


def summarize_layers(tally: Tally) -> dict:
    """Per kind and class: medians over traced calls of every span's calls,
    inclusive and self seconds and of every count; mean call times.  Times
    are calibrated with the factor of the rounds they come from."""
    untraced, traced = tally.host_factor(False), tally.host_factor(True)
    out: dict[str, dict] = {}
    for (kind, cls), records in sorted(tally.layers.items()):
        names = sorted({s for r in records for s in r["spans"]})
        counts = sorted({c for r in records for c in r["counts"]})
        meta = tally.meta[(kind, cls)]

        def median_of(name: str, field: str) -> float:
            return statistics.median(r["spans"].get(name, {}).get(field, 0) for r in records)

        out.setdefault(kind, {})[cls] = {
            "n": meta["n"],
            "doc_bytes": statistics.fmean(meta["bytes"]),
            "calls_per_round": meta["per_round"],
            "calls_traced": len(records),
            "op_s_untraced": statistics.fmean(tally.untraced[(kind, cls)]) * untraced,
            "op_s_traced": statistics.fmean(tally.traced[(kind, cls)]) * traced,
            "spans": {
                name: {
                    "calls": median_of(name, "calls"),
                    "incl_s": median_of(name, "incl_s") * traced,
                    "self_s": median_of(name, "self_s") * traced,
                }
                for name in names
            },
            "counts": {
                c: statistics.median(r["counts"].get(c, 0) for r in records) for c in counts
            },
        }
    return out


def _incl(summary: dict, kind: str, *spans: str) -> float:
    """Mean over the kind's classes that call any of spans of their summed
    inclusive seconds per call."""
    values = [
        sum(c["spans"][s]["incl_s"] for s in spans if s in c["spans"])
        for c in summary.get(kind, {}).values()
        if any(s in c["spans"] for s in spans)
    ]
    return statistics.fmean(values) if values else 0.0


def _count_sum(summary: dict, kind: str, name: str) -> float:
    return sum(c["counts"].get(name, 0) for c in summary.get(kind, {}).values())


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _ns_per_cell(summary: dict) -> float:
    values = [
        c["spans"]["fast_tester.test_type1"]["incl_s"] / c["n"] ** 2 * 1e9
        for c in summary.get("decide", {}).values()
        if "fast_tester.test_type1" in c["spans"]
    ]
    return statistics.fmean(values) if values else 0.0


def _domain_size(summary: dict) -> float:
    values = [
        c["counts"]["domain_size"] / c["spans"]["oracle.enumerate_domain"]["calls"]
        for c in summary.get("crosscheck", {}).values()
        if c["counts"].get("domain_size") and "oracle.enumerate_domain" in c["spans"]
    ]
    return statistics.fmean(values) if values else 0.0


def _verify_per_call(tally: Tally) -> float:
    calls = total = 0.0
    for records in tally.layers.values():
        for r in records:
            span = r["spans"].get("oracle.verify_witness")
            if span:
                calls += span["calls"]
                total += span["incl_s"]
    return _ratio(total, calls) * tally.host_factor(True)


def _doc_mb(summary: dict, kind: str) -> float:
    values = [c["doc_bytes"] for c in summary.get(kind, {}).values()]
    return statistics.fmean(values) / 1e6 if values else 0.0


TEST_STEPS = ("cli._read_text", "core.parse_instance", "fast_tester.test_mconvexity",
              "core.Verdict.to_json", "cli._emit")


def _residual(summary: dict) -> float:
    values = [
        c["op_s_untraced"] - sum(c["spans"][s]["incl_s"] for s in TEST_STEPS if s in c["spans"])
        for c in summary.get("test", {}).values()
    ]
    return statistics.fmean(values) if values else 0.0


def _decision_share(summary: dict) -> float:
    classes = summary.get("test", {}).values()
    decide = sum(c["spans"].get("fast_tester.test_mconvexity", {}).get("incl_s", 0) for c in classes)
    return _ratio(decide, sum(c["op_s_traced"] for c in classes))


def _overhead(summary: dict) -> tuple[float, float]:
    """Traced minus untraced seconds of one round, and that as a share of
    the untraced round."""
    extra = base = 0.0
    for kind, classes in summary.items():
        for cls, c in classes.items():
            extra += c["calls_per_round"] * (c["op_s_traced"] - c["op_s_untraced"])
            base += c["calls_per_round"] * c["op_s_untraced"]
    return extra, _ratio(extra, base)


#: name -> (unit, end-to-end metric it should move, value from the summary)
PER_LAYER = {
    "core.json_decode_s": ("s", "test_s on cli_io (floor for parse)",
                           lambda s, t: _incl(s, "test", "bench.json_loads")),
    "core.from_entries_s": ("s", "test_s on cli_io",
                            lambda s, t: _incl(s, "test", "core.QuadraticInstance.from_entries")),
    "core.parse_s": ("s", "test_s on cli_io", lambda s, t: _incl(s, "test", "core.parse_instance")),
    "core.parse_vs_json": ("ratio", "test_s on cli_io (target <= 1.5)",
                           lambda s, t: _ratio(_incl(s, "test", "core.parse_instance"),
                                               _incl(s, "test", "bench.json_loads"))),
    "core.parse_MBps": ("MB/s", "test_s on cli_io",
                        lambda s, t: _ratio(_doc_mb(s, "test"),
                                            _incl(s, "test", "core.parse_instance"))),
    "core.doc_bytes": ("bytes", "test_s on cli_io (input size)",
                       lambda s, t: _doc_mb(s, "test") * 1e6),
    "core.serialize_s": ("s", "gen_s on cli_io",
                         lambda s, t: _incl(s, "gen", "core.serialize_instance")),
    "core.serialize_MBps": ("MB/s", "gen_s on cli_io",
                            lambda s, t: _ratio(_doc_mb(s, "gen"),
                                                _incl(s, "gen", "core.serialize_instance"))),
    "core.emit_s": ("s", "test_s on cli_io",
                    lambda s, t: _incl(s, "test", "core.Verdict.to_json", "cli._emit")),
    "structure.graph_s": ("s", "decide.II_clique_s on decide_mem",
                          lambda s, t: _incl(s, "decide", "structure.build_infinity_graph")),
    "structure.components_s": ("s", "decide.II_clique_s on decide_mem",
                               lambda s, t: _incl(s, "decide", "structure.decompose_components")),
    "structure.condition_b_s": ("s", "decide.II_clique_s on decide_mem",
                                lambda s, t: _incl(s, "decide", "structure.check_condition_b")),
    "structure.classify_s": ("s", "decide.II_clique_s on decide_mem",
                             lambda s, t: _incl(s, "decide", "structure.classify")),
    "structure.inf_pairs": ("count", "none (instance shape)",
                            lambda s, t: _count_sum(s, "decide", "inf_pairs")),
    "structure.big_components": ("count", "none (instance shape)",
                                 lambda s, t: _count_sum(s, "decide", "big_components")),
    "fast_tester.normalize_s": ("s", "decide.I_*_s on decide_mem, a little of test_s",
                                lambda s, t: _incl(s, "decide", "fast_tester.normalize_type1")),
    "fast_tester.anti_ultrametric_s": (
        "s", "decide.I_*_s on decide_mem, a little of test_s",
        lambda s, t: _incl(s, "decide", "fast_tester.check_anti_ultrametric")),
    "fast_tester.ns_per_cell": ("ns", "decide.I_*_s on decide_mem", lambda s, t: _ns_per_cell(s)),
    "fast_tester.type2_s": ("s", "decide.II_clique_s on decide_mem",
                            lambda s, t: _incl(s, "decide", "fast_tester.test_type2")),
    "fast_tester.type3_s": ("s", "decide.III_many_s on decide_mem",
                            lambda s, t: _incl(s, "decide", "fast_tester.test_type3")),
    "fast_tester.blocks_checked": ("count", "decide.III_many_s on decide_mem",
                                   lambda s, t: _count_sum(s, "decide", "blocks_checked")),
    "fast_tester.witness_s": ("s", "explain_s on explain_small",
                              lambda s, t: _incl(s, "explain", "fast_tester.find_violation_quadruple")),
    "fast_tester.decision_share": ("ratio", "none (share of test_s spent deciding)",
                                   lambda s, t: _decision_share(s)),
    "oracle.exchange_s": ("s", "crosscheck_s on explain_small",
                          lambda s, t: _incl(s, "crosscheck", "oracle.exchange_axiom_holds")),
    "oracle.domain_size": ("count", "crosscheck_s on explain_small", lambda s, t: _domain_size(s)),
    "oracle.verify_witness_s": ("s", "none (timed outside every end-to-end metric)",
                                lambda s, t: _verify_per_call(t)),
    "generators.gen_s": ("s", "gen_s on cli_io and setup_s",
                         lambda s, t: _incl(s, "gen", "generators.gen_tree_metric_type1",
                                            "generators.gen_linear_typed")),
    "cli.residual_s": ("s", "test_s on cli_io (untraced test minus read, parse, decide, emit)",
                       lambda s, t: _residual(s)),
    "trace.overhead_s": ("s", "none (traced minus untraced seconds per round)",
                         lambda s, t: _overhead(s)[0]),
    "trace.overhead_frac": ("ratio", "none (overhead share of an untraced round)",
                            lambda s, t: _overhead(s)[1]),
}


# ---------------------------------------------------------------------------
# Running a workload


def measure(args, package, corpus, workdir: Path, import_s: float):
    sizes = corpus.WORKLOADS[args.workload]
    if args.tiny:
        sizes = {**sizes, **corpus.TINY, "cross_noise": min(1, sizes["cross_noise"])}
    tally = Tally()
    setup_times = []
    while len(setup_times) < (1 if args.tiny else SETUP_REPEATS) or (
        not args.tiny and sum(setup_times) < SETUP_MIN_S
    ):
        ops = None
        gc.collect()
        tally.calibrate("setup")
        start = time.perf_counter()
        ops = corpus.build(sizes, args.seed, workdir / "corpus")
        warm = corpus.build({**corpus.PROBE, **corpus.TINY}, args.seed, workdir / "warm")
        seen, scratch = set(), Tally()
        for op in warm:  # first call of each kind, so no timed call pays for it
            if op.kind not in seen:
                seen.add(op.kind)
                execute(op, scratch)
        setup_times.append(time.perf_counter() - start)
    tally.calibrate("setup")
    setup_s = import_s + statistics.median(setup_times)

    import spans

    tally.describe(ops)
    tracer = spans.Tracer(package) if args.trace else None
    start = time.perf_counter()
    rounds, last = 0, 0.0
    # no round starts that would end past --seconds, beyond the minimum
    while rounds < 1 + args.trace or time.perf_counter() - start + last <= args.seconds:
        begin = time.perf_counter()
        run_round(ops, tally, tracer if rounds % 2 else None)
        last = time.perf_counter() - begin
        rounds += 1
    raw = end_to_end(tally, setup_s)
    e2e = {k: v * tally.host_factor() if END_TO_END[k] == "s" else v for k, v in raw.items()}
    e2e["setup_s"] = raw["setup_s"] * tally.host_factor("setup")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "sizes": sizes,
        "rounds": rounds,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
        "known_defect": tally.known,
        "known_defect_frac": tally.known / tally.attempted,
        "known_defect_problems": tally.known_problems,
        "host_factor": tally.host_factor(),
        "reference_calls": len(tally.reference[False]),
        "end_to_end": e2e,
        "end_to_end_raw": raw,
    }
    if not args.trace:
        return report, {name: (e2e[name], unit) for name, unit in END_TO_END.items()}, tally

    summary = summarize_layers(tally)
    layers = {name: spec[2](summary, tally) for name, spec in PER_LAYER.items()}
    report.update(
        per_layer={name: {"value": layers[name], "unit": spec[0], "moves": spec[1]}
                   for name, spec in PER_LAYER.items()},
        traced_host_factor=tally.host_factor(True),
        breakdown=summary,
        untraced_targets=tracer.missing,
    )
    tag = f"{args.workload}{'_tiny' if args.tiny else ''}_seed{args.seed}"
    (OUT / f"breakdown_{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    with open(OUT / f"spans_{tag}.jsonl", "w", encoding="utf-8") as handle:
        for op_id, span_id, parent, name, s0, s1 in tracer.spans:
            handle.write(json.dumps([op_id, span_id, parent, name, s0, s1]) + "\n")
    return report, {name: (layers[name], spec[0]) for name, spec in PER_LAYER.items()}, tally


def print_summary(report: dict, metrics: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  rounds {report['rounds']}"
          f"  host factor {report['host_factor']:.4f} ({report['reference_calls']} reference calls)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':32s} {report['fail_frac']:14.6g} ratio"
          f"  ({report['failed']}/{report['attempted']} operations)")
    print(f"  {'known_defect_frac':32s} {report['known_defect_frac']:14.6g} ratio"
          f"  ({report['known_defect']}/{report['attempted']} operations: fast path and oracle"
          " disagree on sub-eps noise, ROADMAP item 1)")
    for problem in report["problems"][:5]:
        print(f"  failed: {problem}")
    for problem in report["known_defect_problems"][:3]:
        print(f"  known defect: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli_io", "decide_mem", "explain_small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="start no round that would end later (0: one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes, one set-up")
    args = parser.parse_args(argv)

    package, import_s = import_program()
    import corpus

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        report, metrics, tally = measure(args, package, corpus, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_summary(report, metrics)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
