"""Inputs and operations of the qmconvex benchmark.

Every input is built from the workload seed during set-up and written to a
scratch directory; the timed calls only read what set-up left there, except
the ``gen`` operation, whose job is to write a document.

Instance classes (the same four at every size):

* ``I_yes``     tree-metric yes-instance, type I (``gen_tree_metric_type1``).
* ``I_no``      the same with the last pair (n-1, n) bumped so that quadruple
                (1, 2, n-1, n) violates by one unit: a no-instance by
                construction, whose first violating quadruple sits deep in
                lexicographic order.
* ``II_clique`` one infinite clique of n/2 indices plus isolated ones, type II.
* ``III_many``  n/8 infinite cliques of 8 (cliques of 2 below n=64), type III.

The crosscheck corpus adds two classes whose label comes only from the
exchange oracle: ``nonclique`` (a non-clique infinity pattern, so the fast
path falls back to enumeration) and ``noise`` (a tree metric plus symmetric
noise of eps/30 relative to max|a|, the tolerance contract's test case).
The fast path disagrees with the oracle on many ``noise`` instances, a known
defect of the program (ROADMAP item 1, the tolerance contract); such a
disagreement is reported as a ``KnownDefect``, counted and printed apart
from failed operations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qmconvex import cli, core, fast_tester, generators, oracle

EPS = core.DEFAULT_EPSILON
CLASSES = ("I_yes", "I_no", "II_clique", "III_many")
EXPECTED = {
    "I_yes": (core.M_CONVEX, "I"),
    "I_no": (core.NOT_M_CONVEX, "I"),
    "II_clique": (core.M_CONVEX, "II"),
    "III_many": (core.M_CONVEX, "III"),
}
GEN_KIND = {"I_yes": "tree", "II_clique": "linear2", "III_many": "linear3"}

#: Input sizes every workload uses for the operations it does not enlarge.
PROBE = {
    "doc_n": 100,  # n of the documents for `test` and `gen`
    "mem_n": 200,  # n of the in-memory instances for `decide`
    "mem_per_class": 1,  # in-memory instances per class
    "cross_n": 8,  # n of the crosscheck documents
    "cross_per_class": 1,  # crosscheck documents per class
    "cross_noise": 0,  # sub-eps noise documents (explain_small only)
    "explain_n": 60,  # n of the deep no-instances for `explain`
    "explain_count": 2,
    "headline": (),  # operation kinds at enlarged sizes
    "passes": 1,  # passes over the other kinds per round, between headline calls
}

#: Each workload enlarges the operations it is about; see README.md.  The
#: probe passes spread the short calls over the whole run, so that each of
#: them samples the host's speed as the long calls do.
WORKLOADS = {
    "cli_io": {**PROBE, "doc_n": 800, "headline": ("test", "gen"), "passes": 14},
    "decide_mem": {**PROBE, "mem_n": 1600, "mem_per_class": 2, "headline": ("decide",),
                   "passes": 4},
    "explain_small": {
        **PROBE,
        "cross_n": 10,
        "cross_per_class": 5,
        "cross_noise": 10,
        "explain_n": 300,
        "explain_count": 3,
        "headline": ("crosscheck", "explain"),
        "passes": 4,
    },
}

#: Sizes of the warm-up calls and, with a workload's noise documents capped
#: at one, of the smoke run.
TINY = {
    "doc_n": 16,
    "mem_n": 16,
    "mem_per_class": 1,
    "cross_n": 8,
    "cross_per_class": 1,
    "cross_noise": 0,
    "explain_n": 16,
    "explain_count": 1,
}


class KnownDefect(str):
    """The reason a check gives for a wrong result that a known defect of
    the program explains: the fast path and the exchange oracle disagree on
    a ``noise`` instance.  It is counted apart from failed operations, so the
    benchmark stays usable while the defect is open and shows when it closes."""


@dataclass
class Op:
    """One timed call. ``run`` is timed; ``check`` is not and returns None
    when the result is correct, else the reason it is not (a ``KnownDefect``
    when the known defect explains it)."""

    kind: str
    cls: str
    n: int
    run: Callable[[], object]
    check: Callable[[object], str | None]
    doc: Path | None = None  # the `test` input, decoded again in traced rounds
    doc_bytes: int = 0
    out: Path | None = None  # removed before each call, so a stale file cannot pass


# ---------------------------------------------------------------------------
# Instances


def _clique_sizes(cls: str, n: int) -> list[int]:
    if cls == "II_clique":
        return [n // 2] + [1] * (n - n // 2)
    c = 8 if n >= 64 else 2
    return [c] * (n // c) + ([n % c] if n % c else [])


def _violate_at(instance: core.QuadraticInstance, i: int, j: int) -> core.QuadraticInstance:
    """Bump pair (i, j), 0-based with i, j >= 2, so that a_ij + a_01 becomes
    the unique smallest pairing sum of {0, 1, i, j}, one unit below the
    others.  Only quadruples holding both i and j change, so (0, 1, i, j) is
    the first violating quadruple in lexicographic order."""
    a = instance.quad
    target = min(a[0, i] + a[1, j], a[0, j] + a[1, i]) - 1.0
    return generators.perturb(instance, (i + 1, j + 1), target - a[i, j] - a[0, 1])


def make_instance(cls: str, n: int, rng: np.random.Generator):
    """Instance of the class at size n, and the `gen` arguments that write
    the same document (None for classes `gen` cannot produce exactly)."""
    seed = int(rng.integers(2**31))
    if cls in ("I_yes", "I_no"):
        r = max(3, n // 4)
        instance = generators.gen_tree_metric_type1(n, r, seed)
        if cls == "I_no":  # the last pair, so explain scans deep
            return _violate_at(instance, n - 2, n - 1), None
        return instance, ["--kind", "tree", "--n", str(n), "--r", str(r), "--seed", str(seed)]
    sizes = _clique_sizes(cls, n)
    r = len(sizes) - 1 if cls == "II_clique" else len(sizes)
    instance = generators.gen_linear_typed(sizes, r, seed)
    argv = ["--kind", GEN_KIND[cls], "--n", str(n), "--r", str(r), "--seed", str(seed),
            "--sizes", ",".join(map(str, sizes))]
    return instance, argv


def _nonclique(n: int, rng: np.random.Generator) -> core.QuadraticInstance:
    """Infinite pairs {1,2} and {2,3} only, so component {1,2,3} is a path."""
    base, _ = make_instance("I_yes", n, rng)
    quad = base.quad.copy()
    quad[0, 1] = quad[1, 0] = quad[1, 2] = quad[2, 1] = core.INF
    return core.QuadraticInstance(n, base.r, base.linear, quad)


def _noise(n: int, rng: np.random.Generator) -> core.QuadraticInstance:
    base, _ = make_instance("I_yes", n, rng)
    scale = float(np.nanmax(np.abs(base.quad)))
    upper = np.triu(rng.uniform(-1.0, 1.0, (n, n)) * (EPS / 30) * scale, 1)
    return core.QuadraticInstance(n, base.r, base.linear, base.quad + upper + upper.T)


# ---------------------------------------------------------------------------
# Operations


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _witness(doc: dict) -> core.Witness:
    return core.Witness(
        doc["kind"],
        indices=tuple(doc["indices"]) if "indices" in doc else None,
        x=tuple(doc["x"]) if "x" in doc else None,
        y=tuple(doc["y"]) if "y" in doc else None,
        i=doc.get("i"),
    )


def _verdict_problem(status: str, type_label, cls: str) -> str | None:
    if (status, type_label) != EXPECTED[cls]:
        return f"{cls}: got {status}/{type_label}, expected {'/'.join(EXPECTED[cls])}"
    return None


def test_op(cls: str, n: int, doc: Path, out: Path) -> Op:
    def check(code):
        verdict = json.loads(out.read_text())
        problem = _verdict_problem(verdict["status"], verdict["type"], cls)
        if problem is None and code != core.EXIT_CODES[verdict["status"]]:
            problem = f"{cls}: exit code {code} for {verdict['status']}"
        return problem

    argv = ["test", "--input", str(doc), "--output", str(out)]
    return Op("test", cls, n, lambda: cli.main(argv), check, doc=doc,
              doc_bytes=doc.stat().st_size, out=out)


def gen_op(cls: str, n: int, gen_argv: list[str], text: str, out: Path) -> Op:
    expected = _digest((text + "\n").encode())

    def check(code):
        if code != 0:
            return f"gen {cls}: exit code {code}"
        if _digest(out.read_bytes()) != expected:
            return f"gen {cls}: document differs from the canonical serialization"
        return None

    argv = ["gen", *gen_argv, "--output", str(out)]
    return Op("gen", cls, n, lambda: cli.main(argv), check, doc_bytes=len(text) + 1, out=out)


def decide_op(cls: str, instance: core.QuadraticInstance) -> Op:
    def check(verdict):
        return _verdict_problem(verdict.status, verdict.type_label, cls)

    return Op("decide", cls, instance.n,
              lambda: fast_tester.test_mconvexity(instance), check)


def explain_op(cls: str, instance: core.QuadraticInstance) -> Op:
    def check(verdict):
        problem = _verdict_problem(verdict.status, verdict.type_label, cls)
        if problem is None and verdict.witness is None:
            problem = f"{cls}: rejection without a witness"
        elif problem is None and not oracle.verify_witness(instance, verdict.witness):
            problem = f"{cls}: witness {verdict.witness.indices} does not verify"
        return problem

    return Op("explain", cls, instance.n,
              lambda: fast_tester.test_mconvexity(instance, explain=True), check)


def crosscheck_op(cls: str, instance: core.QuadraticInstance, doc: Path, out: Path) -> Op:
    def check(code):
        payload = json.loads(out.read_text())
        if code != 0 or not payload["agree"]:
            reason = (f"crosscheck {cls}: exit code {code}, fast {payload['fast']['status']}"
                      f" vs oracle {payload['oracle']['status']}")
            known = cls == "noise" and code == 1 and not payload["agree"]
            return KnownDefect(reason) if known else reason
        for side in ("fast", "oracle"):
            witness = payload[side]["witness"]
            if witness and not oracle.verify_witness(instance, _witness(witness)):
                return f"crosscheck {cls}: {side} witness {witness} does not verify"
        return None

    argv = ["crosscheck", "--input", str(doc), "--output", str(out)]
    return Op("crosscheck", cls, instance.n, lambda: cli.main(argv), check,
              doc_bytes=doc.stat().st_size, out=out)


def build(sizes: dict, seed: int, workdir: Path) -> list[Op]:
    """All operations of one round, in order, with their inputs written to
    workdir.  The headline calls are split into ``passes`` runs, each
    followed by one call of every other operation."""
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "out.json"
    tests, gens, decides, explains, crosses = [], [], [], [], []
    for cls in CLASSES:
        instance, gen_argv = make_instance(cls, sizes["doc_n"], rng)
        text = core.serialize_instance(instance)
        doc = workdir / f"test_{cls}.json"
        doc.write_text(text)
        tests.append(test_op(cls, instance.n, doc, out))
        if gen_argv is not None:
            gens.append(gen_op(cls, instance.n, gen_argv, text, workdir / f"gen_{cls}.json"))
    for _ in range(sizes["mem_per_class"]):
        for cls in CLASSES:
            decides.append(decide_op(cls, make_instance(cls, sizes["mem_n"], rng)[0]))
    for _ in range(sizes["explain_count"]):
        explains.append(explain_op("I_no", make_instance("I_no", sizes["explain_n"], rng)[0]))
    n = sizes["cross_n"]
    plan = [(cls, lambda c=cls: make_instance(c, n, rng)[0]) for cls in CLASSES]
    plan.append(("nonclique", lambda: _nonclique(n, rng)))
    plan = [entry for entry in plan for _ in range(sizes["cross_per_class"])]
    plan += [("noise", lambda: _noise(n, rng))] * sizes["cross_noise"]
    for k, (cls, factory) in enumerate(plan):
        instance = factory()
        doc = workdir / f"cross_{k}.json"
        doc.write_text(core.serialize_instance(instance))
        crosses.append(crosscheck_op(cls, instance, doc, out))
    ops = tests + gens + decides + crosses + explains
    headline = [op for op in ops if op.kind in sizes["headline"]]
    probes = [op for op in ops if op.kind not in sizes["headline"]]
    passes = sizes["passes"]
    cuts = [k * len(headline) // passes for k in range(passes + 1)]
    return [op for k in range(passes) for op in headline[cuts[k]:cuts[k + 1]] + probes]
