"""CLI surface: JSON outputs, exit codes, determinism, piping."""

import json
import subprocess
import sys

import pytest

import qmconvex as q
from helpers import golden_yes, golden_no
from qmconvex.cli import main


@pytest.fixture()
def golden_yes_path(tmp_path):
    path = tmp_path / "golden_yes.json"
    path.write_text(q.serialize_instance(golden_yes()))
    return str(path)


@pytest.fixture()
def golden_no_path(tmp_path):
    path = tmp_path / "golden_no.json"
    path.write_text(q.serialize_instance(golden_no()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_test_golden_yes(capsys, golden_yes_path):
    code, out = run_cli(capsys, "test", "--input", golden_yes_path)
    doc = json.loads(out)
    assert code == 0
    assert doc["status"] == "m_convex"
    assert doc["type"] == "II"
    assert doc["method"] == "algorithm-II"
    assert doc["witness"] is None


def test_test_golden_no_exit_code(capsys, golden_no_path):
    code, out = run_cli(capsys, "test", "--input", golden_no_path)
    assert code == 1
    assert json.loads(out)["method"] == "algorithm-I"


def test_explain_golden_no(capsys, golden_no_path):
    code, out = run_cli(capsys, "explain", "--input", golden_no_path)
    doc = json.loads(out)
    assert code == 1
    assert doc["witness"]["kind"] == "quadruple_violation"
    assert doc["witness"]["indices"] == [1, 2, 3, 5]


def test_classify_golden_yes(capsys, golden_yes_path):
    code, out = run_cli(capsys, "classify", "--input", golden_yes_path)
    doc = json.loads(out)
    assert code == 0
    assert doc == {
        "condition_b": True,
        "condition_a": True,
        "type": "II",
        "components": [[1, 5]],
        "isolated": [2, 3, 4],
    }


def test_oracle_methods(capsys, golden_yes_path):
    for method in ("exchange", "local"):
        code, out = run_cli(capsys, "oracle", "--input", golden_yes_path, "--method", method)
        assert code == 0
        assert json.loads(out)["status"] == "m_convex"


def test_crosscheck_golden_no(capsys, golden_no_path):
    code, out = run_cli(capsys, "crosscheck", "--input", golden_no_path, "--budget", "100000")
    doc = json.loads(out)
    assert code == 0
    assert doc["agree"] is True
    assert doc["fast"]["status"] == doc["oracle"]["status"] == "not_m_convex"


def test_gen_then_test_pipe(tmp_path, capsys):
    gen_path = tmp_path / "gen.json"
    code, _ = run_cli(
        capsys, "gen", "--kind", "tree", "--n", "8", "--r", "3", "--seed", "7",
        "--out", str(gen_path),
    )
    assert code == 0
    code, out = run_cli(capsys, "test", "--input", str(gen_path))
    assert code == 0
    assert json.loads(out)["status"] == "m_convex"


def test_gen_kinds(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    graph_path.write_text("5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n")
    cases = [
        ("gen", "--kind", "linear2", "--n", "7", "--r", "3", "--seed", "1"),
        ("gen", "--kind", "linear3", "--n", "7", "--r", "3", "--seed", "1"),
        ("gen", "--kind", "perturbed", "--n", "7", "--r", "3", "--seed", "1"),
        ("gen", "--kind", "fgraph", "--graph", str(graph_path), "--r", "2"),
        ("gen", "--kind", "linear2", "--n", "6", "--r", "3", "--sizes", "2,2,1,1", "--seed", "0"),
    ]
    for argv in cases:
        code, out = run_cli(capsys, *argv)
        assert code == 0
        q.parse_instance(out)  # must be a valid document


def test_deterministic_output(capsys, golden_yes_path):
    _, first = run_cli(capsys, "test", "--input", golden_yes_path)
    _, second = run_cli(capsys, "test", "--input", golden_yes_path)
    assert first == second
    _, g1 = run_cli(capsys, "gen", "--kind", "tree", "--n", "9", "--r", "4", "--seed", "3")
    _, g2 = run_cli(capsys, "gen", "--kind", "tree", "--n", "9", "--r", "4", "--seed", "3")
    assert g1 == g2


def test_error_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _ = run_cli(capsys, "test", "--input", str(bad))
    assert code == 3
    code, _ = run_cli(capsys, "test", "--input", str(tmp_path / "missing.json"))
    assert code == 4
    empty = tmp_path / "empty_domain.json"
    empty.write_text(
        '{"n": 4, "r": 2, "quad": ['
        '{"i": 1, "j": 2, "v": "inf"}, {"i": 1, "j": 3, "v": "inf"},'
        '{"i": 1, "j": 4, "v": "inf"}, {"i": 2, "j": 3, "v": "inf"},'
        '{"i": 2, "j": 4, "v": "inf"}, {"i": 3, "j": 4, "v": "inf"}]}'
    )
    code, _ = run_cli(capsys, "test", "--input", str(empty))
    assert code == 3
    path = tmp_path / "undecided.json"
    path.write_text(
        '{"n": 30, "r": 15, "quad": [{"i": 1, "j": 2, "v": "inf"}, {"i": 2, "j": 3, "v": "inf"}]}'
    )
    code, _ = run_cli(capsys, "test", "--input", str(path), "--budget", "10")
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 4, "r": 2, "quad": null}',
        '{"n": 4, "r": 2, "quad": 5}',
        '{"n": 4, "r": 2, "linear": [null, 0, 0, 0], "quad": []}',
        '{"n": 4, "r": 2, "quad": [{"i": 1, "j": 2, "v": 1%s}]}' % ("0" * 400),
        '{"n": 4, "r": 2, "quad": [{"i": 1, "j": 2, "v": 1e400}]}',
        '{"n": 4, "r": 2, "linear": [true, 0, 0, 0], "quad": []}',
        '{"n": 4, "r": 2, "linear": ["2", 0, 0, 0], "quad": []}',
        '{"n": 3000000, "r": 0}',
        b'{"n": 4, "r": 2, "quad": [], "note": "\xff"}',
    ],
    ids=["quad-null", "quad-number", "linear-null", "int-overflow", "float-overflow",
         "linear-bool", "linear-string", "huge-n-bad-r", "not-utf8"],
)
def test_invalid_document_exit_code(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = main(["test", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_matrix_too_large_exit_code(tmp_path, capsys):
    # a 50-byte document whose n x n matrix would need about 72 TB
    path = tmp_path / "huge.json"
    path.write_text('{"n": 3000000, "r": 1, "quad": []}')
    code = main(["test", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: ")
    assert captured.err.count("\n") == 1


def test_internal_inconsistency_exit_code(capsys, golden_yes_path, monkeypatch):
    def broken(*args, **kwargs):
        raise q.InternalInconsistencyError("forced for the test")

    monkeypatch.setattr(q.fast_tester, "test_mconvexity", broken)
    code = main(["test", "--input", golden_yes_path])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == "error: internal inconsistency: forced for the test\n"


def test_config_validation(capsys, golden_yes_path):
    code, _ = run_cli(capsys, "test", "--input", golden_yes_path, "--epsilon", "-1")
    assert code == 3
    code, _ = run_cli(capsys, "test", "--input", golden_yes_path, "--budget", "0")
    assert code == 3
    # epsilon must be a finite positive number; argparse's exit 2 would read
    # as "undecided", and NaN or Infinity would not be valid JSON
    for bad in ("abc", "nan", "inf", "0", "-1"):
        code = main(["test", "--input", golden_yes_path, "--epsilon", bad])
        captured = capsys.readouterr()
        assert code == 3, bad
        assert captured.out == ""
        assert captured.err == (
            f"error: --epsilon must be a finite positive number, got {bad!r}\n"
        )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["test", "--budget", "abc"], "qmconvex test: argument --budget: invalid int value: 'abc'"),
        # "-inf" is not a plain negative number, so argparse reads it as a flag
        (["test", "--epsilon", "-inf"], "qmconvex test: argument --epsilon: expected one argument"),
        (["test", "--no-such-flag"], "qmconvex: unrecognized arguments: --no-such-flag"),
        (["frobnicate"], None),
        ([], "qmconvex: the following arguments are required: command"),
        (["gen", "--sizes", "2,x"],
         "qmconvex gen: argument --sizes: not a comma-separated list of integers: '2,x'"),
        (["bench", "--sizes", "30,"],
         "qmconvex bench: argument --sizes: not a comma-separated list of integers: '30,'"),
        # out-of-range values: a zero count, and n, r or sizes the generators refuse
        (["test", "--budget", "0"], "qmconvex test: argument --budget: invalid int value: '0'"),
        (["bench", "--repeats", "0"],
         "qmconvex bench: argument --repeats: invalid int value: '0'"),
        (["gen", "--kind", "tree", "--n", "3"], "qmconvex gen: need n >= 4 and 2 <= r <= n-2"),
        (["gen", "--kind", "linear2", "--n", "7", "--r", "3", "--sizes", "0,7"],
         "qmconvex gen: component sizes must be positive"),
        (["gen", "--kind", "linear3", "--r", "0"],
         "qmconvex gen: argument --r: invalid int value: '0'"),
        (["bench", "--sizes", "2"],
         "qmconvex bench: need n >= 4 and 2 <= r <= n-2 (n=2, r=2, seed=0)"),
        # --n and --kind must agree with the components written
        (["gen", "--kind", "linear2", "--n", "2", "--r", "3"],
         "qmconvex gen: --kind linear2 with --r 3 needs 4 components, more than --n 2"),
        (["gen", "--kind", "linear2", "--n", "7", "--r", "2", "--sizes", "3,3"],
         "qmconvex gen: --sizes 3,3 must be 3 components summing to --n 7"
         " for --kind linear2 with --r 2"),
        (["gen", "--kind", "linear3", "--n", "8", "--r", "2", "--sizes", "3,3"],
         "qmconvex gen: --sizes 3,3 must be 2 components summing to --n 8"
         " for --kind linear3 with --r 2"),
        # an option that the kind does not take is refused, not dropped
        (["gen", "--kind", "fgraph", "--graph", "g.txt", "--n", "40", "--r", "2"],
         "qmconvex gen: --kind fgraph does not take --n"),
        (["gen", "--kind", "tree", "--n", "8", "--r", "3", "--sizes", "3,3"],
         "qmconvex gen: --kind tree does not take --sizes"),
        (["gen", "--kind", "perturbed", "--sizes", "4,4"],
         "qmconvex gen: --kind perturbed does not take --sizes"),
        (["gen", "--kind", "fgraph", "--graph", "g.txt", "--sizes", "3"],
         "qmconvex gen: --kind fgraph does not take --sizes"),
        (["gen", "--kind", "linear2", "--graph", "g.txt"],
         "qmconvex gen: --kind linear2 does not take --graph"),
    ],
    ids=["budget-abc", "epsilon-minus-inf", "unknown-flag", "unknown-command", "no-command",
         "gen-sizes", "bench-sizes", "budget-zero", "repeats-zero", "gen-tree-small-n",
         "gen-zero-size", "gen-r-zero", "bench-small-n", "gen-n-below-count",
         "gen-sizes-count", "gen-sizes-sum", "gen-fgraph-n", "gen-tree-sizes",
         "gen-perturbed-sizes", "gen-fgraph-sizes", "gen-linear2-graph"],
)
def test_usage_errors_exit_3(capsys, argv, message):
    # argparse's own exit 2 would read as "undecided"
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: qmconvex") and captured.err.count("\n") == 1
    if message is not None:
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["--help"], ["test", "--help"], ["--version"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out


def test_epsilon_env_override(capsys, golden_yes_path, monkeypatch):
    monkeypatch.setenv("MCONVEX_EPSILON", "0.001")
    code, out = run_cli(capsys, "test", "--input", golden_yes_path)
    assert code == 0
    assert json.loads(out)["epsilon"] == 0.001
    # the flag wins over the environment
    code, out = run_cli(capsys, "test", "--input", golden_yes_path, "--epsilon", "0.01")
    assert code == 0
    assert json.loads(out)["epsilon"] == 0.01
    for bad in ("abc", "nan", "inf", "0", "-1"):
        monkeypatch.setenv("MCONVEX_EPSILON", bad)
        for argv in (["test", "--input", golden_yes_path], ["gen", "--n", "6"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 3, (bad, argv)
            assert captured.out == ""
            assert captured.err == (
                f"error: MCONVEX_EPSILON must be a finite positive number, got {bad!r}\n"
            )
    monkeypatch.setenv("MCONVEX_EPSILON", "abc")
    code, out = run_cli(capsys, "test", "--input", golden_yes_path, "--epsilon", "0.01")
    assert code == 0  # not read when the flag is given


def test_bench_rejection_is_an_internal_inconsistency(capsys, monkeypatch):
    def reject(*args, **kwargs):
        return q.Verdict(q.NOT_M_CONVEX, method="forced")

    monkeypatch.setattr(q.fast_tester, "test_mconvexity", reject)
    code = main(["bench", "--sizes", "30", "--repeats", "1"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.err == (
        "error: internal inconsistency: benchmark instance at n=30 was not accepted\n"
    )


def test_pretty_flag(capsys, golden_yes_path):
    _, out = run_cli(capsys, "test", "--input", golden_yes_path, "--pretty")
    assert "\n  " in out
    assert json.loads(out)["status"] == "m_convex"


def test_module_entry_point(golden_yes_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qmconvex", "test", "--input", golden_yes_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "m_convex"
    version = subprocess.run(
        [sys.executable, "-m", "qmconvex", "--version"], capture_output=True, text=True
    )
    assert version.stdout.strip() == q.__version__


def test_stdin_input(golden_yes_path):
    with open(golden_yes_path) as handle:
        text = handle.read()
    proc = subprocess.run(
        [sys.executable, "-m", "qmconvex", "test"],
        input=text,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "m_convex"


def test_bench_smoke(capsys):
    code, out = run_cli(
        capsys, "bench", "--sizes", "30,60", "--repeats", "1", "--seed", "1"
    )
    doc = json.loads(out)
    assert code == 0
    assert [entry["n"] for entry in doc["results"]] == [30, 60]
    assert all(entry["seconds_median"] > 0 for entry in doc["results"])