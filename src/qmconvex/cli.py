"""Command-line interface.

Subcommands: test, classify, explain, oracle, crosscheck, gen, bench.
Each subcommand's parser names its handler, and the handler reads the
parsed namespace; every default is written once, in ``build_parser`` or
a constant above it.  Output is JSON on stdout (human-readable only
under --pretty) and fully deterministic for given options and input, so
scripts can diff it.

Exit codes: 0 m_convex, 1 not_m_convex, 2 undecided, 3 invalid instance
or option value (a usage error such as an unknown flag, a --budget,
--repeats, --n or --r that is not a positive integer, an epsilon that is
not a finite positive number or is below MIN_EPSILON = 1e-15, a gen or
bench n, r, size or seed that the generators refuse, a gen --n or
--sizes that does not fit the kind's component count, a gen option that
the kind does not take), 4 I/O error or out of memory (an n too large
for the n x n matrix), 5 internal inconsistency (a bug).  Codes 3 to 5
print one ``error:`` line on stderr.  The relative tolerance eps is
--epsilon, else MCONVEX_EPSILON, else 1e-9.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, fast_tester, generators, oracle, structure
from .core import (
    DEFAULT_EPSILON,
    EXIT_CODES,
    MIN_EPSILON,
    BudgetExceededError,
    InstanceFormatError,
    InternalInconsistencyError,
    parse_instance,
    serialize_instance,
)

_BENCH_SIZES = (100, 200, 400, 800, 1600, 3200)
_GEN_N = 8


def _read_epsilon(args: argparse.Namespace) -> float:
    """--epsilon, else MCONVEX_EPSILON, else the default: finite and at
    least MIN_EPSILON."""
    source, text = "--epsilon", args.epsilon
    if text is None:
        source, text = "MCONVEX_EPSILON", os.environ.get("MCONVEX_EPSILON", repr(DEFAULT_EPSILON))
    try:
        eps = float(text)
    except ValueError:
        eps = math.nan
    if not (math.isfinite(eps) and eps > 0):
        raise InstanceFormatError(f"{source} must be a finite positive number, got {text!r}")
    if eps < MIN_EPSILON:
        raise InstanceFormatError(f"{source} must be at least {MIN_EPSILON!r}, got {text!r}")
    return eps


def _read_text(args: argparse.Namespace) -> str:
    try:
        if args.input is None or args.input == "-":
            return sys.stdin.read()
        with open(args.input, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"document is not UTF-8 text: {exc}") from None


def _emit(payload, args: argparse.Namespace) -> None:
    if isinstance(payload, str):
        text = payload
    elif args.pretty:
        text = json.dumps(payload, indent=2)
    else:
        text = json.dumps(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _cmd_test(args: argparse.Namespace) -> int:
    verdict = fast_tester.test_mconvexity(
        parse_instance(_read_text(args)),
        assume_condition_a=args.assume_condition_a,
        brute_force_budget=args.budget,
        eps=args.epsilon,
        explain=args.explain,
    )
    _emit(verdict.to_json(), args)
    return EXIT_CODES[verdict.status]


def _cmd_classify(args: argparse.Namespace) -> int:
    instance = parse_instance(_read_text(args))
    graph = structure.build_infinity_graph(instance)
    decomposition = structure.decompose_components(graph)
    b_ok, _ = structure.check_condition_b(graph, decomposition)
    payload = {
        "condition_b": b_ok,
        "condition_a": (
            structure.check_condition_a_under_b(decomposition, instance.r)
            if b_ok
            else None
        ),
        "type": structure.classify(decomposition, instance.r) if b_ok else None,
        "components": [list(c) for c in decomposition.big],
        "isolated": list(decomposition.isolated),
    }
    _emit(payload, args)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = parse_instance(_read_text(args))
    runner = (
        oracle.exchange_axiom_holds
        if args.method == "exchange"
        else oracle.local_exchange_holds
    )
    verdict = runner(instance, eps=args.epsilon, max_candidates=args.budget)
    _emit(verdict.to_json(), args)
    return EXIT_CODES[verdict.status]


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    instance = parse_instance(_read_text(args))
    fast = fast_tester.test_mconvexity(
        instance,
        assume_condition_a=args.assume_condition_a,
        brute_force_budget=args.budget,
        eps=args.epsilon,
    )
    reference = oracle.exchange_axiom_holds(
        instance, eps=args.epsilon, max_candidates=args.budget
    )
    # an honest "undecided" makes no claim, so it cannot disagree
    agree = fast.status == reference.status or fast.status == "undecided"
    payload = {"fast": fast.to_json(), "oracle": reference.to_json(), "agree": agree}
    _emit(payload, args)
    return 0 if agree else 1


def _random_sizes(n: int, count: int, rng: np.random.Generator) -> list[int]:
    sizes = [1] * count
    for _ in range(n - count):
        sizes[int(rng.integers(0, count))] += 1
    return sizes


def _cmd_gen(args: argparse.Namespace) -> int:
    linear, fgraph = args.kind in ("linear2", "linear3"), args.kind == "fgraph"
    for flag, given, takes in (("--n", args.n, not fgraph), ("--sizes", args.sizes, linear),
                               ("--graph", args.graph, fgraph)):
        if given is not None and not takes:
            raise InstanceFormatError(f"qmconvex gen: --kind {args.kind} does not take {flag}")
    n = _GEN_N if args.n is None else args.n
    try:
        rng = np.random.default_rng(args.seed)
        if args.kind == "tree":
            instance = generators.gen_tree_metric_type1(n, args.r, args.seed)
        elif args.kind in ("linear2", "linear3"):
            count = args.r + 1 if args.kind == "linear2" else args.r
            if args.sizes is None and n < count:
                raise ValueError(
                    f"--kind {args.kind} with --r {args.r} needs {count} components,"
                    f" more than --n {n}"
                )
            sizes = args.sizes or _random_sizes(n, count, rng)
            instance = generators.gen_linear_typed(sizes, args.r, args.seed)
            if len(sizes) != count or sum(sizes) != n:
                raise ValueError(
                    f"--sizes {','.join(map(str, sizes))} must be {count} components"
                    f" summing to --n {n} for --kind {args.kind} with --r {args.r}"
                )
        elif args.kind == "fgraph":
            if args.graph is None:
                raise InstanceFormatError("--graph is required for --kind fgraph")
            with open(args.graph, "r", encoding="utf-8") as handle:
                graph = generators.parse_edge_list(handle.read())
            instance = generators.build_f_graph(graph, args.r)
        else:  # perturbed
            instance = generators.gen_tree_metric_type1(n, args.r, args.seed)
            i = int(rng.integers(1, n))
            j = int(rng.integers(i + 1, n + 1))
            delta = float(rng.choice((-1.0, 1.0)))
            instance = generators.perturb(instance, (i, j), delta)
    except InstanceFormatError:
        raise
    except ValueError as exc:  # range checks here and in the generators, a negative seed
        raise InstanceFormatError(f"qmconvex gen: {exc}") from None
    _emit(serialize_instance(instance), args)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    results = []
    for n in args.sizes:
        r = max(2, n // 4)
        times = []
        for rep in range(args.repeats):
            try:
                instance = generators.gen_tree_metric_type1(n, r, args.seed + rep)
            except ValueError as exc:
                raise InstanceFormatError(
                    f"qmconvex bench: {exc} (n={n}, r={r}, seed={args.seed + rep})"
                ) from None
            start = time.perf_counter()
            verdict = fast_tester.test_mconvexity(instance, eps=args.epsilon)
            times.append(time.perf_counter() - start)
            if verdict.status != "m_convex":
                raise InternalInconsistencyError(f"benchmark instance at n={n} was not accepted")
        results.append({"n": n, "seconds_median": float(np.median(times)), "runs": times})
    _emit({"seed": args.seed, "results": results}, args)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, as invalid option values, with one line: argparse's
    own exit 2 would read as "undecided".  Subparsers inherit the class."""

    def error(self, message: str):
        raise InstanceFormatError(f"{self.prog}: {message}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", default=None, help="instance JSON path (default: stdin)")
    parser.add_argument("--output", default=None, help="write JSON here instead of stdout")
    parser.add_argument("--epsilon", help="relative tolerance (default: MCONVEX_EPSILON or 1e-9)")
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")


def _add_test_flags(parser: argparse.ArgumentParser) -> None:
    _add_io_flags(parser)
    parser.add_argument("--assume-condition-a", action="store_true")
    parser.add_argument(
        "--budget",
        type=_positive_int,
        default=fast_tester.DEFAULT_BRUTE_FORCE_BUDGET,
        help="max C(n,r) for brute-force fallback / enumeration",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmconvex",
        description="Decide M-convexity of quadratic functions on the size-r slice",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="run the quadratic-time pipeline")
    _add_test_flags(p)
    p.add_argument("--explain", action="store_true", help="attach a witness on rejection")
    p.set_defaults(handler=_cmd_test)

    p = sub.add_parser("classify", help="report components, conditions, and type")
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("explain", help="test with witness extraction forced on")
    _add_test_flags(p)
    p.set_defaults(handler=_cmd_test, explain=True)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    _add_test_flags(p)
    p.add_argument("--method", choices=("exchange", "local"), default="exchange")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("crosscheck", help="run fast path and oracle, compare")
    _add_test_flags(p)
    p.set_defaults(handler=_cmd_crosscheck)

    p = sub.add_parser("gen", help="generate an instance")
    _add_io_flags(p)
    p.add_argument("--kind", choices=("tree", "linear2", "linear3", "fgraph", "perturbed"),
                   default="tree")
    p.add_argument("--n", type=_positive_int, default=None,
                   help=f"index count (default {_GEN_N}; not for --kind fgraph)")
    p.add_argument("--r", type=_positive_int, default=3)
    p.add_argument("--sizes", type=_int_list, default=None, help="comma-separated component sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--graph", default=None, help="edge-list file for --kind fgraph")
    p.add_argument("--out", dest="output", help="alias for --output")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("bench", help="time the pipeline on growing yes-instances")
    _add_io_flags(p)
    p.add_argument("--sizes", type=_int_list, default=list(_BENCH_SIZES),
                   help=f"comma-separated n values (default: {','.join(map(str, _BENCH_SIZES))})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=_positive_int, default=3)
    p.set_defaults(handler=_cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.epsilon = _read_epsilon(args)
        return args.handler(args)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 4
    except InternalInconsistencyError as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
