"""The Python protocol of the value types at its edges: immutability, foreign
operands, refused arguments, and the exact `str` and `repr` texts."""

import operator
import re

import pytest

from quatdyn import FieldSpec, OctSpec, Poly, QQ, QuatSpec, SpecMismatchError, __version__, cli

H = QuatSpec.standard()
O = OctSpec(H, -1)
F5 = FieldSpec(5)
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


class Foreign:
    """An operand no value type knows."""


def _name(value):
    return type(value).__name__


def test_elements_and_polys_are_immutable():
    values = (H.i(), "Quaternion"), (O.basis_element("l"), "Octonion"), (F5.sqrt_gen(), "Scalar")
    for value, name in values:
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            value.den = 2
    with pytest.raises(AttributeError, match="^Poly is immutable$"):
        Poly(H, [1, H.i()]).cols = [[1]]


def test_an_element_returns_not_implemented_for_a_foreign_operand():
    """Python then tries the foreign side, and raises TypeError when it too
    declines: for every binary operator of every element class, reflected
    ones included, for `commutes`, and for the order of scalars."""
    other = Foreign()
    names = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__")
    for value in (H.i(), O.basis_element("l"), F5.sqrt_gen()):
        for name in names:
            assert getattr(value, name)(other) is NotImplemented, (_name(value), name)
        for op, apply in ARITHMETIC.items():
            for left, right in ((value, other), (other, value)):
                message = f"unsupported operand type(s) for {op}: '{_name(left)}' and '{_name(right)}'"
                with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                    apply(left, right)
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \*: 'Quaternion' and 'Foreign'$"):
        H.i().commutes(other)
    s = F5.sqrt_gen()
    assert s.__lt__(other) is NotImplemented
    assert 2 < s <= s + 1 and s > 2 and s >= s  # total_ordering derives the rest from __lt__
    for op, apply in ORDER.items():
        for left, right in ((s, other), (other, s)):
            message = f"'{op}' not supported between instances of '{_name(left)}' and '{_name(right)}'"
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                apply(left, right)


def test_a_poly_returns_not_implemented_for_a_foreign_operand():
    f, other = Poly(H, [1, H.i()]), Foreign()
    assert f._lift(other) is None
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__eq__"):
        assert getattr(f, name)(other) is NotImplemented
    assert f != other and not f == other  # __eq__ declines on both sides: identity decides
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for \*: 'Poly' and 'Foreign'$"):
        f * other
    with pytest.raises(TypeError, match=r"^unsupported operand type\(s\) for -: 'Foreign' and 'Poly'$"):
        other - f


def test_refused_arguments_raise_with_their_message():
    f = Poly(H, [1, H.i()])
    with pytest.raises(SpecMismatchError, match="^polynomials over different algebras$"):
        f + Poly(O, [1, O.basis_element("l")])
    with pytest.raises(ValueError, match="^the zero polynomial has no leading coefficient$"):
        Poly(H).leading()
    with pytest.raises(TypeError, match="^cannot compose with 'x'$"):
        f.compose("x")
    with pytest.raises(ValueError, match="^bits must be positive$"):
        F5.scalar(1, 2).to_real(0)
    with pytest.raises(ValueError, match="^the rational field has no radical generator$"):
        QQ.sqrt_gen()


def test_str_and_repr_texts():
    q = H.i() + 2
    assert (str(q), repr(q)) == ("2 + i", "<2 + i in quat:-1,-1@Q>")
    s = F5.sqrt_gen()
    assert (str(s), repr(s)) == ("s5", "<s5 in Q(s5)>")
    f = Poly(H, [1, H.i()])
    assert (str(f), repr(f)) == ("(i)*x + (1)", "<(i)*x + (1) over quat:-1,-1@Q>")
    assert [repr(spec) for spec in (QQ, F5, H, QuatSpec(F5, 2, -3), O)] == [
        "FieldSpec(d=None)",
        "FieldSpec(d=5)",
        "QuatSpec(FieldSpec(d=None), <-1 in Q>, <-1 in Q>)",
        "QuatSpec(FieldSpec(d=5), <2 in Q(s5)>, <-3 in Q(s5)>)",
        "OctSpec(QuatSpec(FieldSpec(d=None), <-1 in Q>, <-1 in Q>), <-1 in Q>)",
    ]


def test_run_exits_with_the_code_of_main(monkeypatch, capsys):
    """`cli.run`, the console entry point, reads sys.argv and exits with main's code."""
    monkeypatch.setattr("sys.argv", ["quatdyn", "--version"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{__version__}\n"
