import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quatdyn import FieldSpec, OctSpec, ParseError, QQ, QuatSpec, __version__, cli, dynamics
from quatdyn.cli import parse_algebra, parse_field
from quatdyn.parsing import parse_element

from helpers import run_cli

GOLDEN = sorted(Path(__file__).parent.glob("golden/*.json"))


def test_parse_field():
    assert parse_field("Q") == QQ
    assert parse_field("Q(s5)") == FieldSpec(5)
    with pytest.raises(ParseError):
        parse_field("R")
    with pytest.raises(ParseError):
        parse_field("Q(s4)")  # not squarefree


def test_parse_algebra():
    spec = parse_algebra("quat:-1,-1@Q")
    assert spec == QuatSpec.standard()
    spec5 = parse_algebra("quat:-1,-1@Q(s5)")
    assert spec5 == QuatSpec.standard(FieldSpec(5))
    oct_spec = parse_algebra("oct:-1,-1,-1@Q")
    assert oct_spec == OctSpec.standard()
    generic = parse_algebra("quat:2,1/3@Q")
    assert generic.alpha == QQ.scalar(2)
    for bad in ("quat:-1@Q", "tri:-1,-1@Q", "quat:-1,-1", "oct:-1,-1@Q"):
        with pytest.raises(ParseError):
            parse_algebra(bad)


def test_parse_algebra_is_memoized():
    for text in ("quat:-1,-1@Q", "oct:-1,-1,-1@Q", "quat:2,1/3@Q(s5)"):
        assert parse_algebra(text) is parse_algebra(text)


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_corpus(path):
    case = json.loads(path.read_text())
    code, out = run_cli(case["argv"])
    assert code == case["exit_code"]
    assert json.loads(out) == case["expected"]


def test_output_is_byte_stable():
    argv = ["fixed-points", "--poly", "x^2+(i+1)*x+1+i*j"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


@pytest.mark.parametrize(
    "argv, paths",
    [
        # the one call of the report's corpus that sums a composite on columns
        (["compose", "--poly", "i*x^2", "--n", "2"], {("compose", "columns"): 1, ("compose powers", "schoolbook"): 1}),
        (["compose", "--poly", "x^2+(i+1)*x+1+i*j", "--n", "4"], {("compose", "packed"): 3}),
        # two products parsed, one companion
        (
            ["roots", "--poly", "(x-1/3)*(x^2+2)*(x-i)"],
            {("poly_mul", "schoolbook"): 3, ("squarefree part", "repeated"): 1, ("local prime", 11): 1},
        ),
        (
            ["roots", "--poly", "x^2+i*x+1", "--mode", "numeric"],
            {
                ("poly_mul", "schoolbook"): 1,
                ("squarefree part", "squarefree"): 1,
                ("numeric", "approximants"): 4,
                ("numeric", "evaluations"): 4,
            },
        ),
    ],
)
def test_paths_are_counted_where_they_are_decided(argv, paths):
    """_kernel.PATHS, which tools/report.py prints, counts each path of a
    call once, the same on a repeated call."""
    from quatdyn._kernel import PATHS

    for _ in range(2):
        PATHS.clear()
        assert run_cli(argv)[0] == 0
        assert PATHS == paths


def test_numeric_roots_payload():
    code, out = run_cli(["roots", "--poly", "x^2+i*x+1", "--mode", "numeric"])
    assert code == 0
    payload = json.loads(out)
    assert payload["inputs"]["precision"] == 128
    assert payload["inputs"]["tolerance"] == 1e-9
    sols = payload["result"]
    assert len(sols) == 2
    H = QuatSpec.standard()
    for sol in sols:
        assert sol["variant"] == "point"
        assert sol["approx"] is True
        assert sol["residual"] <= 1e-9
        assert sol["class"]["exact"] is False
        # coordinates are exact strings that parse back into the algebra
        point = parse_element(sol["point"], H)
        assert not point.is_zero


def test_exit_codes():
    code, out = run_cli(["roots", "--poly", "x^2+i*x+1"])  # irrational classes
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ClassSearchIncompleteError"

    code, out = run_cli(["fixed-points", "--poly", "x"])
    assert code == 1

    code, out = run_cli(["roots", "--poly", "x +"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"

    # nesting past the parser's bound, in a polynomial, a point and an
    # algebra parameter, is a parse error and not a RecursionError
    for argv in (
        ["roots", "--poly", "(" * 250 + "x" + ")" * 250],
        ["roots", "--poly=" + "-" * 1000 + "x"],
        ["orbit", "--poly", "x^2", "--point=" + "(" * 250 + "j" + ")" * 250],
        ["companion", "--algebra", "quat:" + "-" * 1000 + "1,-1@Q", "--poly", "x"],
    ):
        code, out = run_cli(argv)
        assert code == 2, argv
        assert json.loads(out)["error"]["type"] == "ParseError"

    code, out = run_cli(["roots", "--algebra", "quat:-1,-1@Q(s18)", "--poly", "x"])
    assert code == 2
    assert json.loads(out)["error"]["message"] == "d = 18 is not squarefree"
    code, out = run_cli(["roots", "--algebra", "quat:-1,-1@Q(s50)", "--poly", "x"])
    assert code == 2
    assert json.loads(out)["error"]["message"] == "d = 50 is not squarefree"

    code, out = run_cli(["compose", "--poly", "i*x^2", "--n", "20"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DegreeCapError"

    # numeric extraction needs a real embedding of the ground field
    code, out = run_cli(
        ["roots", "--algebra", "quat:-1,-1@Q(s-3)", "--poly", "x^2+1", "--mode", "numeric"]
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "UnsupportedAlgebraError"

    code, out = run_cli(["roots", "--nonsense"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "UsageError"

    for argv in (
        ["compose", "--poly", "x^2+i", "--n", "0"],
        ["check-periodic", "--poly", "x^2+i", "--point=-i", "--r", "0"],
        ["orbit", "--poly", "x^2+i", "--point=-i", "--n-max=-3"],
        ["oct-check", "--poly", "x^2+i", "--point=-i", "--n-max", "0"],
        # --degree-cap is no option of any command: an unknown option
        ["compose", "--poly", "x^2+i", "--n", "2", "--degree-cap=-1"],
        ["compose", "--poly", "x^2+i", "--n", "2", "--degree-cap", "0"],
        ["roots", "--poly", "x^2+i*x+1", "--mode", "numeric", "--tolerance", "nan"],
        ["roots", "--poly", "x^2+i*x+1", "--mode", "numeric", "--tolerance", "inf"],
        ["roots", "--poly", "x^2+i*x+1", "--mode", "numeric", "--tolerance=-1e-9"],
        ["roots", "--poly", "x^2+1", "--mode", "numeric", "--precision", "0"],
        ["fixed-points", "--poly", "x^2", "--mode", "numeric", "--precision", "52"],
        ["roots", "--poly", "x^2+1", "--mode", "numeric", "--precision", "2049"],
        ["roots", "--poly", "x^2+i*x+2", "--mode", "numeric", "--precision", "1000000"],
        ["compose", "--poly", "x^2", "--n", "1", "--degree-cap", "4097"],
    ):
        code, out = run_cli(argv)
        assert code == 2, argv
        assert json.loads(out)["error"]["type"] == "UsageError"

    # options a subcommand never reads, or does not know, are usage errors
    # that print JSON like every other error
    for argv in (
        ["roots", "--stats", "--poly", "x"],
        ["compose", "--poly", "x^2+i", "--n", "2", "--mode", "numeric"],
        ["orbit", "--poly", "x^2+i", "--point=-i", "--precision", "256"],
        ["check-periodic", "--poly", "x^2+i", "--point=-i", "--r", "2", "--tolerance", "1e-3"],
        ["oct-check", "--poly", "x^2+i", "--point=-i", "--mode", "exact"],
        ["companion", "--poly", "x^2+i", "--mode", "numeric"],
        ["companion", "--poly", "x^2+i", "--degree-cap", "8"],
        ["roots", "--poly", "x^2+1", "--degree-cap", "8"],
        ["fixed-points", "--poly", "x^2", "--degree-cap", "8"],
        ["orbit", "--poly", "x^2+i", "--point=-i", "--degree-cap", "8"],
        ["check-periodic", "--poly", "x^2+i", "--point=-i", "--r", "2", "--degree-cap", "8"],
        ["oct-check", "--poly", "x^2+i", "--point=-i", "--degree-cap", "8"],
    ):
        code, out = run_cli(argv)
        assert code == 2, argv
        payload = json.loads(out)
        assert payload["command"] == argv[0], argv
        assert payload["error"]["type"] == "UsageError", argv

    code, _ = run_cli(["--version"])
    assert code == 0


# Command argv go straight to the command's own parser.  Each argv below runs
# that way and, as the reference, through the top-level parser (which hands the
# rest to the same command parser by its subparsers action), then through the
# same handler: exit code and stdout must be equal.
DISPATCH_ARGV = [
    # valid, --flag=value and a negative value after '='
    ["fixed-points", "--poly", "x^2+(i+1)*x+1+i*j"],
    ["fixed-points", "--poly=x^2", "--mode=numeric", "--precision=64", "--tolerance=1e-6"],
    ["roots", "--poly", "x^2+1"],
    ["roots", "--algebra=quat:-1,-1@Q(s5)", "--poly=x^2-5"],
    ["companion", "--poly=i*x^2+j"],
    ["compose", "--poly", "x^2+i", "--n=3"],
    ["orbit", "--poly", "x^2+i", "--point=-i", "--n-max", "3", "--semantics=eval"],
    ["check-periodic", "--poly=x^2+i", "--point=-i", "--r", "2"],
    ["oct-check", "--algebra", "oct:-1,-1,-1@Q", "--poly", "l*x^2+x", "--point=-l"],
    # missing, duplicated and unknown options
    ["fixed-points"],
    ["roots", "--mode", "exact"],
    ["companion", "--poly", "x", "--poly", "x^2"],
    ["compose", "--poly", "x^2"],
    ["orbit", "--poly", "x^2+i"],
    ["check-periodic", "--poly", "x^2+i", "--point=-i", "--r", "1", "--r", "2"],
    ["oct-check", "--poly", "x", "--point", "i", "--stats"],
    ["roots", "--poly", "x", "--nonsense=1"],
    # abbreviations: --prec of --precision, --n of --n-max, --po of --poly, and
    # the ambiguous --p (--poly or --precision)
    ["roots", "--poly", "x^2+1", "--mode", "numeric", "--prec", "64"],
    ["orbit", "--poly", "x^2+i", "--point=-i", "--n", "2"],
    ["check-periodic", "--poly", "x^2+i", "--point=-i", "--r", "1", "--n", "2"],
    ["compose", "--po", "x^2", "--n", "2"],
    ["fixed-points", "--p", "x"],
    # -h and --version after the command, and --
    ["fixed-points", "-h"],
    ["roots", "--help"],
    ["companion", "--poly", "x", "-h"],
    ["compose", "--version"],
    ["orbit", "--poly", "x", "--point", "i", "--version"],
    ["compose", "--poly", "x^2", "--n", "2", "--"],
    ["compose", "--", "--poly", "x^2", "--n", "2"],
    ["check-periodic", "--poly", "x^2+i", "--point", "--", "-i", "--r", "1"],
    ["oct-check", "--poly", "x", "--", "--point", "i"],
    # a bad int, a negative number without '=' and trailing positionals
    ["compose", "--poly", "x^2", "--n", "two"],
    ["orbit", "--poly", "x^2+i", "--point=-i", "--n-max", "1.5"],
    ["check-periodic", "--poly", "x^2+i", "--point=-i", "--r", "-2"],
    ["orbit", "--poly", "x^2+i", "--point", "-i"],
    ["roots", "--poly", "-x^2+1"],
    ["fixed-points", "--poly", "x", "extra"],
    ["companion", "extra", "--poly", "x"],
    ["oct-check", "--poly", "x", "--point", "i", "a", "b"],
    # argv that does not start with a command: the top-level parser reads it
    [],
    ["-h"],
    ["--version"],
    ["unknown", "--poly", "x"],
    ["--poly", "x", "roots"],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
def test_command_argv_parse_as_through_the_top_level_parser(argv, monkeypatch):
    code, out = run_cli(argv)
    # without the command table every argv goes to the top-level parser
    monkeypatch.setattr(cli.build_parser(), "commands", {}, raising=False)
    assert (code, out) == run_cli(argv)


def test_command_argv_skip_the_top_level_parser(monkeypatch):
    parser, calls = cli.build_parser(), []
    parse_args = parser.parse_args

    def spy(*args, **kwargs):
        calls.append(args)
        return parse_args(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_args", spy)
    for argv in DISPATCH_ARGV:
        run_cli(argv)
        if argv and argv[0] in cli._HANDLERS:
            assert not calls, argv
        calls.clear()
    assert run_cli(["--version"])[0] == 0 and calls


def test_precision_is_capped_and_the_cap_is_named():
    """2048 bits is the largest precision accepted; an anomaly whose
    resolving precision lies above it says so."""
    code, out = run_cli(["roots", "--poly", "x^2+1", "--mode", "numeric", "--precision", "2049"])
    assert code == 2
    assert json.loads(out)["error"]["message"] == "--precision must be at most 2048, got 2049"
    code, _ = run_cli(["roots", "--poly", "x^2+1", "--mode", "numeric", "--precision", "2048"])
    assert code == 0

    argv = ["roots", "--poly", "10^300*x-i", "--mode", "numeric"]
    code, out = run_cli(argv + ["--precision", "1536"])
    [solution] = json.loads(out)["result"]
    assert solution["variant"] == "anomaly"
    assert solution["detail"].endswith(
        "about 3072 bits would resolve the class, above the cap of 2048 bits"
    )
    code, out = run_cli(argv + ["--precision", "1024"])
    [solution] = json.loads(out)["result"]
    assert solution["detail"].endswith("about 2048 bits would resolve the class")
    code, out = run_cli(argv + ["--precision", "2048"])
    assert [s["variant"] for s in json.loads(out)["result"]] == ["point"]
    # a lead with a radical part: its size in bits counts sqrt(d) as well
    code, out = run_cli(
        ["roots", "--algebra", "quat:-1,-1@Q(s5)", "--poly", "(10^60+s5)*x-i", "--mode", "numeric"]
    )
    [solution] = json.loads(out)["result"]
    assert solution["variant"] == "anomaly"
    assert re.search(r"about \d+ bits would resolve the class$", solution["detail"])


def test_numeric_class_data_is_snapped():
    code, out = run_cli(["roots", "--poly", "x^2+1", "--mode", "numeric"])
    assert code == 0
    (sol,) = json.loads(out)["result"]
    assert sol["variant"] == "sphere"
    assert (sol["class"]["trace"], sol["class"]["norm"]) == ("0", "1")

    # central roots snap too: (3x - 1)(x - 1) has the points 1/3 and 1
    code, out = run_cli(["roots", "--poly", "3*x^2-4*x+1", "--mode", "numeric"])
    sols = json.loads(out)["result"]
    assert [(s["class"]["trace"], s["class"]["norm"]) for s in sols] == [("2/3", "1/9"), ("2", "1")]
    assert [s["point"] for s in sols] == ["1/3", "1"]


def test_numeric_point_with_a_large_coordinate_is_not_a_sphere():
    # the terms summed into A and B are 1 and 10^100*i, so neither vanishes
    code, out = run_cli(["roots", "--poly", "x-10^100*i", "--mode", "numeric"])
    assert code == 0
    (sol,) = json.loads(out)["result"]
    assert sol["variant"] == "point"
    assert sol["point"] == f"{10**100}*i"


def test_numeric_point_residual_is_relative_to_its_terms():
    # the root i/10^60 rounds to 0 at 128 bits, where the residual is 1 and
    # the terms of g(0) sum to 1; that is no point
    argv = ["roots", "--poly", "10^60*x-i", "--mode", "numeric"]
    for precision in ("128", "256", "512"):
        code, out = run_cli(argv + ["--precision", precision])
        assert code == 0
        H = QuatSpec.standard()
        for sol in json.loads(out)["result"]:
            if sol["variant"] == "point":
                size = abs(float(parse_element(sol["point"], H).coords()[1]))
                scale = 1 + 10**60 * size  # |c_0| + |c_1|*|lam|
                assert sol["residual"] < 1e-9 * scale


def test_small_roots_next_to_large_coefficients_converge():
    # each approximant carries its own exponent, and the step test is relative
    # to its modulus, so the roots near 10^-40 are refined as far as the others
    argv = ["roots", "--algebra", "quat:2,1/3@Q", "--poly", "x^4+10^40*j*x-4-6*j-k", "--mode", "numeric"]
    code, out = run_cli(argv)
    assert code == 0
    assert len(json.loads(out)["result"]) == 6


def test_roots_spread_past_the_double_range_start_on_the_newton_polygon():
    # the companion x^4 + (2 - 10^3000) x^2 + 1 has roots near 10^1500 and
    # 10^-1500, far outside the range of a double; starts on the Newton
    # polygon's circles let the ladder settle at once (the sweeps are bounded
    # in test_aberth); from one circle the call took 8.8 s or more
    argv = ["roots", "--algebra", "quat:10^3000,-1@Q", "--poly", "x^2+i*x+1"]
    start = time.perf_counter()
    code, out = run_cli(argv)
    assert time.perf_counter() - start < 4
    assert code == 0
    assert [s["variant"] for s in json.loads(out)["result"]] == ["anomaly", "anomaly"]


def test_solving_never_imports_mpmath():
    import quatdyn

    # exact roots of x^2+i*x+1 climb the ladder to prove that its companion
    # has no rational factor (exit 1); the numeric calls climb to the top
    calls = [
        ["roots", "--poly", "x^2+i*x+1"],
        ["roots", "--poly", "x^3+i*x+j", "--mode", "numeric"],
        ["fixed-points", "--poly", "x^2+(i+1)*x+1+i*j"],
        ["fixed-points", "--poly", "x^3+j*x+1", "--mode", "numeric", "--precision", "512"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from quatdyn.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) in (0, 1), argv\n"
        "print('mpmath' in sys.modules)\n"
    )
    src = str(Path(quatdyn.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(calls)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_library_imports_only_the_standard_library():
    """The library runs on the standard library alone: every import in
    src/quatdyn names a standard module or quatdyn itself.  `_arith`, which
    every module may read, imports the standard library only, and `aberth`
    of quatdyn only `_kernel`, `errors` and `scalars`, so that numeric
    extraction stays below the solver.  The reference algebra that the tests
    and the benchmark check products with, `perfbench/algebra.py`, imports
    the standard library only, so that it stays independent of the library.
    And each name a module imports is read there (`__init__` exports its
    `__all__`)."""
    import ast

    import algebra
    import quatdyn

    # the quatdyn modules a module may import, where not all of them
    limited = {"_arith.py": set(), "aberth.py": {"_kernel", "errors", "scalars"}, "algebra.py": set()}
    allowed = sys.stdlib_module_names | {"quatdyn"}
    foreign, unread = [], []
    for path in sorted(Path(quatdyn.__file__).parent.glob("*.py")) + [Path(algebra.__file__)]:
        own = limited.get(path.name)
        tree = ast.parse(path.read_text(), str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if path.name == "__init__.py":
            read |= set(quatdyn.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                # a relative import is quatdyn's own
                names = [f"quatdyn.{node.module or ''}" if node.level else node.module]
            else:
                continue
            for n in names:
                top, _, rest = n.partition(".")
                if top not in allowed or top == "quatdyn" and own is not None and rest.split(".")[0] not in own:
                    foreign.append(f"{path.name}: {n}")
            unread += [
                f"{path.name}: {bound}"
                for alias in node.names
                if (bound := (alias.asname or alias.name).split(".")[0]) not in read
            ]
    assert not foreign
    assert not unread


def test_every_module_has_a_layout_row():
    """README's "Layout" table has one row per module of src/quatdyn but
    `__init__`, which only exports."""
    import quatdyn

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    layout = readme.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = {line.split("`")[1] for line in layout.splitlines() if line.startswith("| `")}
    modules = {f"quatdyn.{path.stem}" for path in Path(quatdyn.__file__).parent.glob("*.py")}
    assert modules - {"quatdyn.__init__"} <= rows


# 10^5000 has 16610 bits, so the residues of these quadratics pass the height
# budget at the third step
BIG = "10^5000"
FIXES_J = f"x^2+{BIG}*x+1+j-{BIG}*j"  # j^2 = -1, so f(j) = j
HEIGHT_STOP = "step 3 exceeds the budget: degree 2 times {} bits is over 65536"

# (argv, the flag that sets the step, the step where the budget fires, the
# result one step below, the message at the step)
DEGREE_CAP_CASES = [
    (["orbit", "--poly", f"x^2+{BIG}*i", "--point=j"], "--n-max", 3, 2,
     HEIGHT_STOP.format(33220)),
    (["orbit", "--poly", f"x^2+{BIG}*i", "--point=j", "--semantics", "eval"], "--n-max", 3, 2,
     HEIGHT_STOP.format(33220)),
    (["oct-check", "--algebra", "oct:-1,-1,-1@Q", "--poly", FIXES_J, "--point=j"], "--n-max", 3,
     {"fixed": True, "checked_up_to": 2, "first_failure": None}, HEIGHT_STOP.format(33221)),
    (["oct-check", "--algebra", "oct:-1,-1,-1@Q", "--poly", "x", "--point=j"], "--n-max", 4097,
     {"fixed": True, "checked_up_to": 4096, "first_failure": None},
     "step 4097 exceeds the budget: degree 1 times 4097 steps is over 4096"),
    # f o f = x fixes every point, but f(i) = j - i does not commute with i:
    # the refutation search runs two steps per n until the step budget
    (["check-periodic", "--poly=-x+j", "--point=i", "--r", "2"], "--n-max", 2049,
     {"failed_t": [1], "refutation_checked": list(range(2, 2049))},
     "step 4097 exceeds the budget: degree 1 times 4097 steps is over 4096"),
    (["check-periodic", "--poly", FIXES_J, "--point=j"], "--r", 3,
     {"r_fixed": True, "commutes_with_evals": [True]}, HEIGHT_STOP.format(33221)),
    (["check-periodic", "--algebra", "oct:-1,-1,-1@Q", "--poly", FIXES_J, "--point=j", "--r", "1"],
     "--n-max", 3, {"r_fixed": True, "refutation_checked": [2]}, HEIGHT_STOP.format(33221)),
    # a rational point: a residue's height is each part's in lowest terms,
    # 33232 bits, where a and b over their joint denominator have 33233
    (["orbit", "--poly", f"x^2+1/7*{BIG}*i+1/5*x", "--point=1/3+1/2*j"], "--n-max", 3, 2,
     HEIGHT_STOP.format(33232)),
]


@pytest.mark.parametrize(
    "argv,flag,step,below,message",
    DEGREE_CAP_CASES,
    ids=["orbit", "orbit-eval", "oct-check-fixed", "oct-check-steps", "refuted", "r-fold", "octonion-r1",
         "orbit-rational"],
)
def test_degree_cap_boundaries(argv, flag, step, below, message):
    # one step below the work budget, and at the step where it fires; the
    # budget raises DegreeCapError, which check-periodic reports as evidence
    code, out = run_cli(argv + [flag, str(step - 1)])
    assert code == 0
    got = json.loads(out)["result"]
    if argv[0] == "orbit":
        assert len(got["points"]) == below
    elif argv[0] == "oct-check":
        assert got == below
    else:
        assert got["status"] != "inconclusive" or "budget" not in got["evidence"]
        assert below.items() <= got["evidence"].items()

    code, out = run_cli(argv + [flag, str(step)])
    payload = json.loads(out)
    if argv[0] == "check-periodic":
        assert code == 0
        assert payload["result"]["status"] == "inconclusive"
        assert payload["result"]["evidence"]["budget"] == message
    else:
        assert code == 1
        assert payload["error"] == {"type": "DegreeCapError", "message": message}


def test_octonion_periodic_point_is_decided_past_the_old_cap():
    # the ROADMAP example: the residues keep 1 bit, so the whole search runs
    argv = ["check-periodic", "--algebra", "oct:-1,-1,-1@Q", "--poly", "x^2+i",
            "--point=-i", "--r", "2", "--n-max", "30"]
    code, out = run_cli(argv)
    assert code == 0
    got = json.loads(out)["result"]
    assert got["status"] == "certified_periodic"
    assert got["evidence"]["refutation_checked"] == list(range(2, 31))


@pytest.mark.parametrize("argv", [
    ["orbit", "--poly", "x+i", "--point=j"],
    ["orbit", "--poly", "i", "--point=j"],
    ["oct-check", "--poly", "x", "--point=j"],
    ["check-periodic", "--algebra", "oct:-1,-1,-1@Q", "--poly", "x", "--point=j", "--r", "1"],
], ids=["orbit-linear", "orbit-constant", "oct-check-identity", "octonion-identity"])
def test_maps_that_keep_their_height_end_at_the_step_budget(argv):
    start = time.perf_counter()
    code, out = run_cli(argv + ["--n-max", "1000000000"])
    assert time.perf_counter() - start < 2
    assert code in (0, 1, 2)
    json.loads(out)


@pytest.mark.parametrize("poly", [
    "x^1000000", "x-10^1000000", "x-((10^100)^100)^100", "x-10^40000", "x^128*x^129",
])
def test_parser_refuses_powers_past_the_input_bounds(poly):
    start = time.perf_counter()
    code, out = run_cli(["companion", "--poly", poly])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


# every power in this sum passes the power bound, but the common denominator
# of its terms passes the height budget many times over
SUM_PAST_BUDGET = (
    "1/2^32500+1/3^25145+1/5^19566+1/7^17072+1/11^14575+1/13^13828+1/17^12776"
    "+1/19^12385+1/23^11767+1/29^11095+1/31^10916+1/37^10467"
)


@pytest.mark.parametrize(
    "poly", ["10^16000*10^16000*x", "x+" + SUM_PAST_BUDGET], ids=["product", "sum"]
)
def test_parser_refuses_sums_and_products_past_the_height_budget(poly):
    start = time.perf_counter()
    code, out = run_cli(["compose", "--poly", poly, "--n", "1"])
    assert time.perf_counter() - start < 1
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ParseError"
    assert "of height above 65536 bits (at position" in error["message"]


def test_huge_field_discriminant_is_a_parse_error():
    start = time.perf_counter()
    code, out = run_cli(["companion", "--algebra",
                         "quat:-1,-1@Q(s1000000000000000000000000000001)", "--poly", "x"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize(
    "argv",
    [
        # digits of another script: Arabic-Indic two, one and five
        ["compose", "--poly", "x^\u0662", "--n", "1"],
        ["compose", "--algebra", "quat:-\u0661,-1@Q", "--poly", "x", "--n", "1"],
        ["compose", "--algebra", "quat:-1,-1@Q(s\u0665)", "--poly", "x", "--n", "1"],
        # a field matches the whole text, up to its last character
        ["compose", "--algebra", "quat:-1,-1@Q(s5)\n", "--poly", "x", "--n", "1"],
        # whitespace between tokens is ASCII: an ideographic and a no-break space
        ["compose", "--poly", "x\u3000+ 1", "--n", "1"],
        ["compose", "--poly", "x\u00a0+ 1", "--n", "1"],
    ],
)
def test_digits_are_ascii_and_fields_match_the_whole_text(argv):
    code, out = run_cli(argv)
    assert code == 2, argv
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_an_algebra_parameter_must_be_a_scalar():
    for parameter, got in (("x", "a degree-1 polynomial"), ("i", "a non-central element")):
        algebra = f"quat:{parameter},-1@Q"
        code, out = run_cli(["compose", "--algebra", algebra, "--poly", "x", "--n", "1"])
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ParseError",
            "message": f"bad algebra parameter in {algebra!r}: expected a scalar, got {got}",
        }


def test_a_zero_algebra_parameter_is_refused_with_its_message():
    for algebra, message in (
        ("quat:0,1@Q", "alpha and beta must be nonzero"),
        ("quat:1,0@Q(s5)", "alpha and beta must be nonzero"),
        ("oct:-1,-1,0@Q", "gamma must be nonzero"),
    ):
        code, out = run_cli(["compose", "--algebra", algebra, "--poly", "x", "--n", "1"])
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "ParseError",
            "message": f"bad algebra parameter in {algebra!r}: {message}",
        }


def test_linear_composition_counts_against_the_cap():
    start = time.perf_counter()
    code, out = run_cli(["compose", "--poly", "x+i", "--n", "1000000000"])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DegreeCapError"

    code, out = run_cli(["compose", "--poly", "x+i", "--n", "3"])
    assert code == 0
    assert json.loads(out)["result"] == {"poly": "(1)*x + (3*i)", "degree": 1}
    code, out = run_cli(["compose", "--poly", "x+i", "--n", "8"])
    assert json.loads(out)["result"] == {"poly": "(1)*x + (8*i)", "degree": 1}

    start = time.perf_counter()
    code, out = run_cli(["compose", "--poly", "i", "--n", "1000000000"])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert json.loads(out)["result"] == {"poly": "(i)", "degree": 0}


WORK_STOP = "step {} exceeds the budget: degree {} times {} bits of work is over 10000000"

# (poly, the last n that answers, the degree it answers, the message at n + 1):
# compose steps through the same budget as the loops above
COMPOSE_CASES = [
    ("x^2+(i+1)*x+1+i*j", 10, 1024, WORK_STOP.format(10, 2, 17137664)),
    # 10^5000 has 16610 bits: the second composite holds 49829
    ("10^5000*x^2+i*x", 2, 4, "step 2 exceeds the budget: degree 2 times 49829 bits is over 65536"),
    # the products run on the columns over the common denominator 210, whose
    # height the work reads, not the coefficients' in lowest terms
    ("1/7*x^2+(1/3*i+1/3)*x+1/2+1/5*i*j", 8, 256, WORK_STOP.format(8, 2, 5505024)),
    # sparse composites of low height pass the work, and their degree stops them
    ("x^2", 12, 4096, "step 12 exceeds the budget: degree 2 times 4096 degrees is over 4096"),
    ("(x+1+i)^16", 2, 256, WORK_STOP.format(2, 16, 42205184)),
    ("x^2+10^300*i", 6, 64, WORK_STOP.format(6, 2, 16328192)),
    # a linear map keeps degree 1: its n - 1 compositions count as steps
    ("x+i", 4097, 1, "step 4097 exceeds the budget: degree 1 times 4097 steps is over 4096"),
]


@pytest.mark.parametrize(
    "poly,n,degree,message",
    COMPOSE_CASES,
    ids=["readme", "height", "column-height", "degree", "work", "column-sum", "linear"],
)
def test_compose_boundaries(poly, n, degree, message):
    # the refusal comes before the composite it would build: within 0.5 s of
    # the last answer's time
    start = time.perf_counter()
    code, out = run_cli(["compose", "--poly", poly, "--n", str(n)])
    answer = time.perf_counter() - start
    assert code == 0 and json.loads(out)["result"]["degree"] == degree
    start = time.perf_counter()
    code, out = run_cli(["compose", "--poly", poly, "--n", str(n + 1)])
    assert time.perf_counter() - start < answer + 0.5
    assert code == 1
    assert json.loads(out)["error"] == {"type": "DegreeCapError", "message": message}


def test_degree_cap_flag():
    # the budget is fixed, and no option sets it
    code, out = run_cli(["compose", "--poly", "x^2", "--n", "1", "--degree-cap", "4096"])
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "UsageError", "message": "unrecognized arguments: --degree-cap 4096",
    }


def test_point_with_radical_coordinates():
    argv = [
        "check-periodic",
        "--algebra",
        "quat:-1,-1@Q(s5)",
        "--poly",
        "x^2+(i+1)*x+1+i*j",
        "--point=-1 + (133/362*s5 - 333/362)*i - (14/181*s5 + 165/181)*j"
        " - (26/181*s5 + 22/181)*k",
        "--r",
        "2",
        "--n-max",
        "2",
    ]
    code, out = run_cli(argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["status"] == "refuted_at"
    assert payload["result"]["refuted_at"] == 2


def test_octonion_solver_rejected():
    code, out = run_cli(
        ["roots", "--algebra", "oct:-1,-1,-1@Q", "--poly", "x^2+1"]
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "UnsupportedAlgebraError"


def test_orbit_eval_semantics_flag():
    code, out = run_cli(
        ["orbit", "--poly", "i*x^2", "--point", "j+1", "--n-max", "2",
         "--semantics", "eval"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["points"] == ["2*k", "-4*i"]
    assert payload["result"]["commutes_with_start"] == [False, False]


# x^2+(i+1)*x+1+i*j doubles the numerators' length at each step; these orbits
# end in coordinates past CPython's 4300-digit int-to-text limit
LONG_ORBITS = [
    ["orbit", "--poly", "x^2+(i+1)*x+1+i*j", "--point=1/1000+j", "--n-max", "12"],
    ["orbit", "--poly", "x^2+(i+1)*x+1+i*j", "--point=1/2+j", "--n-max", "13",
     "--semantics", "eval"],
]


@pytest.mark.parametrize("argv", LONG_ORBITS, ids=["compose", "eval"])
def test_exact_results_render_past_the_int_text_limit(argv):
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(argv)
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # lifted only while rendering
    last = json.loads(out)["result"]["points"][-1]
    assert max(map(len, re.findall(r"\d+", last))) > 4300


def test_numeric_residual_prints_past_the_int_text_limit():
    """A residual past the double range is a JSON integer, printed in full."""
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(["roots", "--poly", "x^2-2*10^10000", "--mode", "numeric"])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # lifted only while printing
    residuals = re.findall(r'"residual": (\d+)', out)
    assert len(residuals) == 2 and min(map(len, residuals)) > 4300


_JSON_TEXT = st.text(st.characters() | st.integers(0xD800, 0xDFFF).map(chr))  # lone surrogates too
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(10**4300, 10**4400) | st.integers(-10**4400, -10**4300),
    st.floats(), st.sampled_from([1e-09, -0.0, math.nan, math.inf, -math.inf]),
    _JSON_TEXT,
)
_JSON_PAYLOADS = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple)
    | st.dictionaries(_JSON_TEXT, kids),
    max_leaves=30,
)


@settings(deadline=None)
@given(_JSON_PAYLOADS)
def test_the_json_writer_prints_what_json_dumps_prints(payload):
    """Byte for byte json.dumps(payload, indent=2), ints past the int-to-text
    limit too, under the limit cli.main lifts while it prints."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert cli._dumps(payload) == json.dumps(payload, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


def test_number_token_past_the_int_text_limit_is_a_parse_error():
    code, out = run_cli(["roots", "--poly", "x-" + "7" * 5000])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


# one argv per outcome of cli.main: the exit code, and the error type that its
# JSON document names (None for a result), or for --help and --version the
# start of argparse's text; "companion" is made to raise ZeroDivisionError
OUTCOMES = [
    (["compose", "--poly", "x^2+i", "--n", "2"], 0, None),
    (["roots"], 2, "UsageError"),  # argparse: --poly is required
    (["compose", "--poly", "x", "--n", "0"], 2, "UsageError"),  # _check_arguments
    (["roots", "--poly", "x^2+$"], 2, "ParseError"),
    (["fixed-points", "--poly", "x"], 1, "ZeroPolynomialError"),
    (["companion", "--poly", "x"], 1, "ZeroDivisionError"),
    (["--help"], 0, "usage: quatdyn"),
    (["--version"], 0, __version__ + "\n"),
]


@pytest.mark.parametrize(
    "argv,code,printed",
    OUTCOMES,
    ids=["result", "argparse", "range", "parse", "algebra", "zero-division", "help", "version"],
)
def test_each_outcome_prints_one_json_document(argv, code, printed, monkeypatch):
    def divide_by_zero(ns):
        return 1 // 0

    monkeypatch.setitem(cli._HANDLERS, "companion", divide_by_zero)
    got, out = run_cli(argv)
    assert got == code
    if argv[0].startswith("--"):  # argparse's text, and no JSON
        assert out.startswith(printed)
        with pytest.raises(ValueError):
            json.loads(out)
        return
    document = json.loads(out)  # all of stdout: one document and nothing else
    assert out.endswith("}\n") and document["command"] == argv[0]
    assert document.get("error", {}).get("type") == printed
    assert ("result" in document) == (printed is None)


# check-periodic's verdicts and oct-check's reports: one argv each, and the
# verdict's status, its r_fixed and whether the budget stopped it, or the
# report's fixed and first_failure
VERDICT_CASES = [
    (["check-periodic", "--poly", "x^2+x+1", "--point", "j", "--r", "1"],
     ("fixed_point", True, False)),
    (["check-periodic", "--poly", "x^2+i", "--point=-i", "--r", "2"],
     ("certified_periodic", True, False)),
    (["check-periodic", "--algebra", "quat:-1,-1@Q(s5)", "--poly", "x^2+(1+i)*x+1+k", "--point",
      "-1 + (-333/362 + 133/362*s5)*i + (-165/181 - 14/181*s5)*j + (-22/181 - 26/181*s5)*k",
      "--r", "2"], ("refuted_at", True, False)),
    (["check-periodic", "--poly", "x^2+i", "--point", "j", "--r", "2"],
     ("inconclusive", False, False)),
    (["check-periodic", "--poly", FIXES_J, "--point=j", "--r", "3"], ("inconclusive", None, True)),
    (["oct-check", "--algebra", "oct:-1,-1,-1@Q", "--poly", "x", "--point=j"], (True, None)),
    (["oct-check", "--algebra", "oct:-1,-1,-1@Q", "--poly", "l*x^2+(1-i*l)*x+l-(i*j)*l",
      "--point", "j"], (True, 2)),
    (["oct-check", "--poly", "x^2+i", "--point", "j"], (False, 1)),
]


@pytest.mark.parametrize(
    "argv,case",
    VERDICT_CASES,
    ids=["fixed_point", "certified_periodic", "refuted_at", "not-r-fixed", "budget",
         "oct-fixed", "oct-first-failure", "oct-not-fixed"],
)
def test_verdicts_print_as_their_dataclass_fields(argv, case):
    """The result is the dataclass that dynamics returns, field by field in
    order, as dataclasses.asdict copies it."""
    ns = argparse.Namespace(command=argv[0])
    cli.build_parser().commands[argv[0]].parse_args(argv[1:], ns)
    if argv[0] == "check-periodic":
        f, start, payload = cli._inputs(ns, "r", "n_max")
        verdict = dynamics.certify_periodic(f, start, ns.r, n_max=ns.n_max)
        evidence = verdict.evidence
        assert (verdict.status, evidence.get("r_fixed"), "budget" in evidence) == case
    else:
        f, start, payload = cli._inputs(ns, "n_max")
        verdict = dynamics.octonion_fixed_check(f, start, n_max=ns.n_max)
        assert (verdict.fixed, verdict.first_failure) == case
    payload["result"] = dataclasses.asdict(verdict)
    assert run_cli(argv) == (0, json.dumps(payload, indent=2) + "\n")
