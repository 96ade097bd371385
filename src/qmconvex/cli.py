"""Command-line interface.

Subcommands: test, classify, explain, oracle, crosscheck, gen, bench.
Output is JSON on stdout (human-readable only under --pretty) and fully
deterministic for a given config and input, so scripts can diff it.

Exit codes: 0 m_convex, 1 not_m_convex, 2 undecided, 3 invalid instance
or option value (a usage error such as an unknown flag or a non-integer
--budget, an epsilon that is not a finite positive number, a budget
below 1), 4 I/O error or out of memory (an n too large for the n x n
matrix), 5 internal inconsistency (a bug).  Codes 3 to 5 print one
``error:`` line on stderr.
The relative tolerance eps is --epsilon, else MCONVEX_EPSILON, else 1e-9.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, fast_tester, generators, oracle, structure
from .core import (
    DEFAULT_EPSILON,
    EXIT_CODES,
    BudgetExceededError,
    InstanceFormatError,
    InternalInconsistencyError,
    QuadraticInstance,
    parse_instance,
    serialize_instance,
)

_BENCH_SIZES = (100, 200, 400, 800, 1600, 3200)


@dataclass
class RunConfig:
    """Everything a subcommand needs, resolved from flags and environment."""

    command: str
    input_path: str | None = None
    output_path: str | None = None
    epsilon: float = DEFAULT_EPSILON
    assume_condition_a: bool = False
    budget: int = fast_tester.DEFAULT_BRUTE_FORCE_BUDGET
    seed: int = 0
    explain: bool = False
    pretty: bool = False
    method: str = "exchange"
    kind: str = "tree"
    n: int = 8
    r: int = 3
    sizes: list[int] | None = None  # gen: component sizes; bench: n values
    graph_path: str | None = None
    repeats: int = 3

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise InstanceFormatError("budget must be positive")


def _read_epsilon(args: argparse.Namespace) -> float:
    """--epsilon, else MCONVEX_EPSILON, else the default: finite and positive."""
    source, text = "--epsilon", args.epsilon
    if text is None:
        source, text = "MCONVEX_EPSILON", os.environ.get("MCONVEX_EPSILON", repr(DEFAULT_EPSILON))
    try:
        eps = float(text)
    except ValueError:
        eps = math.nan
    if not (math.isfinite(eps) and eps > 0):
        raise InstanceFormatError(f"{source} must be a finite positive number, got {text!r}")
    return eps


def _read_text(config: RunConfig) -> str:
    try:
        if config.input_path is None or config.input_path == "-":
            return sys.stdin.read()
        with open(config.input_path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"document is not UTF-8 text: {exc}") from None


def _read_instance(config: RunConfig) -> QuadraticInstance:
    return parse_instance(_read_text(config))


def _emit(payload, config: RunConfig) -> None:
    if isinstance(payload, str):
        text = payload
    elif config.pretty:
        text = json.dumps(payload, indent=2)
    else:
        text = json.dumps(payload)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _cmd_test(config: RunConfig) -> int:
    instance = _read_instance(config)
    verdict = fast_tester.test_mconvexity(
        instance,
        assume_condition_a=config.assume_condition_a,
        brute_force_budget=config.budget,
        eps=config.epsilon,
        explain=config.explain,
    )
    _emit(verdict.to_json(), config)
    return EXIT_CODES[verdict.status]


def _cmd_classify(config: RunConfig) -> int:
    instance = _read_instance(config)
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
    _emit(payload, config)
    return 0


def _cmd_oracle(config: RunConfig) -> int:
    instance = _read_instance(config)
    runner = (
        oracle.exchange_axiom_holds
        if config.method == "exchange"
        else oracle.local_exchange_holds
    )
    verdict = runner(instance, eps=config.epsilon, max_candidates=config.budget)
    _emit(verdict.to_json(), config)
    return EXIT_CODES[verdict.status]


def _cmd_crosscheck(config: RunConfig) -> int:
    instance = _read_instance(config)
    fast = fast_tester.test_mconvexity(
        instance,
        assume_condition_a=config.assume_condition_a,
        brute_force_budget=config.budget,
        eps=config.epsilon,
    )
    reference = oracle.exchange_axiom_holds(
        instance, eps=config.epsilon, max_candidates=config.budget
    )
    # an honest "undecided" makes no claim, so it cannot disagree
    agree = fast.status == reference.status or fast.status == "undecided"
    payload = {"fast": fast.to_json(), "oracle": reference.to_json(), "agree": agree}
    _emit(payload, config)
    return 0 if agree else 1


def _random_sizes(n: int, count: int, rng: np.random.Generator) -> list[int]:
    sizes = [1] * count
    for _ in range(n - count):
        sizes[int(rng.integers(0, count))] += 1
    return sizes


def _cmd_gen(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    if config.kind == "tree":
        instance = generators.gen_tree_metric_type1(config.n, config.r, config.seed)
    elif config.kind in ("linear2", "linear3"):
        count = config.r + 1 if config.kind == "linear2" else config.r
        sizes = config.sizes or _random_sizes(config.n, count, rng)
        instance = generators.gen_linear_typed(sizes, config.r, config.seed)
    elif config.kind == "fgraph":
        if config.graph_path is None:
            raise InstanceFormatError("--graph is required for --kind fgraph")
        with open(config.graph_path, "r", encoding="utf-8") as handle:
            graph = generators.parse_edge_list(handle.read())
        instance = generators.build_f_graph(graph, config.r)
    elif config.kind == "perturbed":
        instance = generators.gen_tree_metric_type1(config.n, config.r, config.seed)
        i = int(rng.integers(1, config.n))
        j = int(rng.integers(i + 1, config.n + 1))
        delta = float(rng.choice((-1.0, 1.0)))
        instance = generators.perturb(instance, (i, j), delta)
    else:
        raise InstanceFormatError(f"unknown generator kind {config.kind!r}")
    _emit(serialize_instance(instance), config)
    return 0


def _cmd_bench(config: RunConfig) -> int:
    results = []
    for n in config.sizes or _BENCH_SIZES:
        r = max(2, n // 4)
        times = []
        for rep in range(config.repeats):
            instance = generators.gen_tree_metric_type1(n, r, config.seed + rep)
            start = time.perf_counter()
            verdict = fast_tester.test_mconvexity(instance, eps=config.epsilon)
            times.append(time.perf_counter() - start)
            if verdict.status != "m_convex":
                raise InternalInconsistencyError(f"benchmark instance at n={n} was not accepted")
        results.append({"n": n, "seconds_median": float(np.median(times)), "runs": times})
    _emit({"seed": config.seed, "results": results}, config)
    return 0


_DISPATCH = {
    "test": _cmd_test,
    "classify": _cmd_classify,
    "explain": _cmd_test,
    "oracle": _cmd_oracle,
    "crosscheck": _cmd_crosscheck,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def run(config: RunConfig) -> int:
    return _DISPATCH[config.command](config)


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
        type=int,
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

    p = sub.add_parser("classify", help="report components, conditions, and type")
    _add_io_flags(p)

    p = sub.add_parser("explain", help="test with witness extraction forced on")
    _add_test_flags(p)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    _add_test_flags(p)
    p.add_argument("--method", choices=("exchange", "local"), default="exchange")

    p = sub.add_parser("crosscheck", help="run fast path and oracle, compare")
    _add_test_flags(p)

    p = sub.add_parser("gen", help="generate an instance")
    _add_io_flags(p)
    p.add_argument("--kind", choices=("tree", "linear2", "linear3", "fgraph", "perturbed"),
                   default="tree")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--sizes", type=_int_list, default=None, help="comma-separated component sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--graph", default=None, help="edge-list file for --kind fgraph")
    p.add_argument("--out", default=None, help="alias for --output")

    p = sub.add_parser("bench", help="time the pipeline on growing yes-instances")
    _add_io_flags(p)
    p.add_argument("--sizes", type=_int_list, default=None,
                   help=f"comma-separated n values (default: {','.join(map(str, _BENCH_SIZES))})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        output_path=getattr(args, "output", None) or getattr(args, "out", None),
        epsilon=_read_epsilon(args),
        assume_condition_a=getattr(args, "assume_condition_a", False),
        budget=getattr(args, "budget", fast_tester.DEFAULT_BRUTE_FORCE_BUDGET),
        seed=getattr(args, "seed", 0),
        explain=getattr(args, "explain", False) or args.command == "explain",
        pretty=getattr(args, "pretty", False),
        method=getattr(args, "method", "exchange"),
        kind=getattr(args, "kind", "tree"),
        n=getattr(args, "n", 8),
        r=getattr(args, "r", 3),
        sizes=getattr(args, "sizes", None),
        graph_path=getattr(args, "graph", None),
        repeats=getattr(args, "repeats", 3),
    )


def main(argv=None) -> int:
    try:
        config = _config_from_args(build_parser().parse_args(argv))
        return run(config)
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
