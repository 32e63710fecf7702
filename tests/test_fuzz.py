"""Fuzz the command line over all seven subcommands, in-process via cli.main.

Each case must print exactly one JSON document on stdout, exit with 0, 1 or
2, and end within CASE_SECONDS.  The cases draw algebra declarations with d
up to 10^40, polynomials built from the expression grammar with large
exponents and numbers and, rarely, nesting deeper than the parser's bound,
points, counts up to 10^9 and options that belong to another subcommand.

Two commands see a narrower space, because their cost is not bounded by
the parser's degree and height bounds nor by a work budget:

* `roots` and `fixed-points` get sums of up to 4 terms c*x^e.  Exact mode
  draws e up to 128 and c from small integers, integers up to 10^60 and
  powers 10^t with t up to 300: roots modulo a prime, lifted p-adically,
  settle such a companion within the case budget.  So that most exact cases
  reach the class search rather than a `ParseError`,
  `UnsupportedAlgebraError` or `UsageError`, they draw a quaternion algebra
  over Q and the units i, j, k, and only one time in sixteen each another
  algebra, an `l` or `s5` unit, an out-of-range `--precision` or
  `--tolerance`, or foreign options.  Numeric mode draws e up to 12, small
  c and `--precision` at most 512, or rarely one past either bound (53 and
  2048 bits), a usage error.  The Aberth ladder's cost grows
  with the degree (a dense numeric `roots` at 512 bits takes up to 0.5 s at
  degree 12 and 1.1 s at degree 16; at 128 bits, 0.7 s at degree 24) and
  with the coefficients' height; bounding its work is a change of its own.
* The expression grammar draws no exponent between 5 and 256:
  `companion --poly "(x+i+10^50)^128"` passes the parser's bounds and
  takes seconds.

`compose` draws from the full polynomial space: its work budget bounds the
composites it builds by their predicted height and size, not only by degree.
"""

import contextlib
import io
import json
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from quatdyn.cli import main

CASE_SECONDS = 3.0

def _mostly(common, rare):
    """common three times in four, rare otherwise."""
    return st.integers(0, 3).flatmap(lambda k: rare if k == 3 else common)


def _seldom(common, rare):
    """rare one time in sixteen, common otherwise."""
    return _mostly(common, _mostly(common, rare))


SMALL = st.integers(-9, 9).map(str)
BIG = st.one_of(
    st.integers(0, 10**60).map(str),
    st.integers(1, 10**9).map(lambda t: f"10^{t}"),
    st.sampled_from(["2^65536", "2^65537", "7" * 5000, "10^5000", "i^65536"]),
)
EXACT_NUMBER = st.one_of(
    SMALL, st.integers(0, 10**60).map(str), st.integers(0, 300).map(lambda t: f"10^{t}")
)
SYMBOL = st.sampled_from(["x", "i", "j", "k", "1/2", "3/7", "0"])
# nesting of '(' and unary '-' at and past the parser's bound of 100 levels
DEEP = st.tuples(st.booleans(), st.sampled_from([100, 101, 250, 1000])).map(
    lambda t: "(" * t[1] + "x" + ")" * t[1] if t[0] else "-" * t[1] + "i"
)
# symbols that only some algebras know
EXOTIC = st.sampled_from(["l", "il", "kl", "s5", "s2", "s-3"])
EXPONENT = _mostly(
    st.integers(0, 4),
    st.one_of(st.integers(257, 10**9), st.sampled_from([65536, 65537, 10**40])),
)


def _grammar(leaves, exponents):
    """Expressions of the CLI grammar over the given leaves."""

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
            st.tuples(inner, exponents).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda e: f"-({e})"),
        )

    return st.recursive(leaves, extend, max_leaves=6)


LEAF = _mostly(st.one_of(SYMBOL, SMALL), st.one_of(BIG, EXOTIC, DEEP))
POLY = _grammar(LEAF, EXPONENT)
POINT = st.one_of(
    st.sampled_from(["j", "-i", "1/2+j", "i+j", "1+l", "s5*i", "0", "1"]),
    _grammar(LEAF, EXPONENT),
)


UNIT = st.sampled_from(["", "+i", "-j", "+i*j", "+s5*k", "+l"])
# what the exact solver accepts: quaternion algebras over Q and their units
EXACT_ALGEBRA = st.sampled_from(["quat:-1,-1@Q", "quat:1,-1@Q", "quat:-2,-5@Q", "quat:3,-1/7@Q"])
EXACT_UNIT = st.sampled_from(["", "+i", "-j", "+i*j", "-k"])


def _term_poly(max_degree, number, unit=UNIT):
    """sum c*x^e over e <= max_degree, with quaternion coefficients c whose
    real part is drawn from number and whose unit part from unit."""
    coeff = st.tuples(number, unit)
    term = st.tuples(coeff, st.integers(0, max_degree)).map(
        lambda t: f"({t[0][0]}{t[0][1]})*x^{t[1]}"
    )
    return st.lists(term, min_size=1, max_size=4).map("+".join)


D = st.one_of(st.integers(-12, 12), st.integers(-(10**40), 10**40))
FIELD = st.one_of(st.just("Q"), D.map(lambda d: f"Q(s{d})"), st.sampled_from(["R", "Q(s)", ""]))
PARAM = st.one_of(SMALL, st.sampled_from(["1/2", "-3", "s5", "x", "i", "2^3", "", "0"]))
ALGEBRA = _mostly(
    st.sampled_from(["quat:-1,-1@Q", "oct:-1,-1,-1@Q", "quat:-1,-1@Q(s5)", "quat:1,-1@Q"]),
    st.one_of(
        st.tuples(PARAM, PARAM, FIELD).map(lambda t: f"quat:{t[0]},{t[1]}@{t[2]}"),
        st.tuples(PARAM, PARAM, PARAM, FIELD).map(lambda t: f"oct:{t[0]},{t[1]},{t[2]}@{t[3]}"),
        st.just("quat:-1,-1@Q(s-3)"),
        st.text(max_size=12),
    ),
)
COUNT = _mostly(st.integers(1, 8), st.integers(-3, 10**9))
FOREIGN = _mostly(st.just([]), st.lists(
    st.sampled_from([
        ["--degree-cap", "8"], ["--mode", "numeric"], ["--precision", "64"],
        ["--tolerance", "1e-3"], ["--semantics", "eval"], ["--r", "2"], ["--n", "2"],
        ["--n-max", "3"], ["--point", "j"], ["--stats"], ["--nonsense", "1"],
    ]),
    min_size=1,
    max_size=2,
))


def _solver_case():
    """The algebra, the options and foreign options of `roots` and
    `fixed-points`; exact cases draw mostly what the exact solver accepts."""
    precision = st.integers(53, 512), st.one_of(st.integers(0, 52), st.integers(2049, 10**9))
    tolerance = st.floats(0, 1), st.floats()
    exact = st.tuples(
        _seldom(EXACT_ALGEBRA, ALGEBRA),
        _term_poly(128, EXACT_NUMBER, _seldom(EXACT_UNIT, UNIT)),
        st.just("exact"),
        _seldom(*precision),
        _seldom(*tolerance),
        _seldom(st.just([]), FOREIGN),
    )
    numeric = st.tuples(
        ALGEBRA, _term_poly(12, SMALL), st.just("numeric"), _mostly(*precision),
        _mostly(*tolerance), FOREIGN,
    )
    return st.one_of(exact, numeric).map(
        lambda t: (t[0], [f"--poly={t[1]}", "--mode", t[2], "--precision", str(t[3]),
                          f"--tolerance={t[4]}"], t[5])
    )


def _options(command):
    """The options a subcommand reads, with drawn values."""
    if command == "companion":
        return POLY.map(lambda p: [f"--poly={p}"])
    if command == "compose":
        return st.tuples(POLY, COUNT).map(lambda t: [f"--poly={t[0]}", "--n", str(t[1])])
    pointed = st.tuples(POLY, POINT, COUNT).map(
        lambda t: [f"--poly={t[0]}", f"--point={t[1]}", "--n-max", str(t[2])]
    )
    if command == "orbit":
        return st.tuples(pointed, st.sampled_from(["compose", "eval"])).map(
            lambda t: t[0] + ["--semantics", t[1]]
        )
    if command == "check-periodic":
        return st.tuples(pointed, COUNT).map(lambda t: t[0] + ["--r", str(t[1])])
    return pointed


def _case(command):
    """The algebra, the options and foreign options of one subcommand."""
    if command in ("roots", "fixed-points"):
        return _solver_case()
    return st.tuples(ALGEBRA, _options(command), FOREIGN)


COMMANDS = ["roots", "fixed-points", "companion", "compose", "orbit", "check-periodic", "oct-check"]
ARGV = st.sampled_from(COMMANDS).flatmap(
    lambda c: _case(c).map(
        lambda t: [c, f"--algebra={t[0]}"] + t[1] + [v for opt in t[2] for v in opt]
    )
)


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ARGV)
def test_every_argv_ends_with_one_json_document(argv):
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), argv
    json.loads(buf.getvalue())  # exactly one document: extra data raises
    assert elapsed < CASE_SECONDS, (argv, elapsed)
