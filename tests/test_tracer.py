"""The benchmark's per-layer tracer still finds every name it wraps.

`perfbench/layers.py` patches public names of `quatdyn` from outside (the
scalar operators on `Scalar` itself, the products on `Quaternion` and
`Octonion`, `Poly` methods, the solver and dynamics functions).  A name that
moves, say an operator that a class now inherits, breaks a traced benchmark
run; this test breaks first.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

from quatdyn import Poly, QuatSpec
from quatdyn.cli import main

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# one call per subcommand
ARGVS = [
    ["fixed-points", "--poly", "x^2+(i+1)*x+1+i*j", "--mode", "numeric"],
    ["roots", "--poly", "(x-1/3)*(x^2+2)*(x-i)"],
    ["companion", "--algebra", "quat:-1,-1@Q(s5)", "--poly", "(1/2+s5)*x^2+(i-s5*j)*x+3/7"],
    ["compose", "--poly", "x^2+i", "--n", "3"],
    ["orbit", "--algebra", "quat:-1,-1@Q(s5)", "--poly", "s5*x^2+(i+1)*x+1", "--point=1/2-s5*k",
     "--n-max", "3", "--semantics", "eval"],
    ["check-periodic", "--poly", "x^2+i", "--point=-i", "--r", "2"],
    ["oct-check", "--algebra", "oct:-1,-1,-1@Q", "--poly", "l*x^2+(1-i*l)*x+l-(i*j)*l",
     "--point", "j"],
]


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(entry, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = entry(argv)
    return code, buf.getvalue()


def test_traced_outputs_equal_untraced_outputs():
    plain = [_run(main, argv) for argv in ARGVS]
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        traced = [_run(tracer.main, argv) for argv in ARGVS]
        # no subcommand multiplies two Poly values (compose works on the
        # columns), so one direct product keeps the wrapped Poly.__mul__ checked
        x = Poly.x(QuatSpec.standard())
        assert (x + 1) * x == x * x + x
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(code in (0, 1) for code, _ in plain)
    for key in ("scalars.mul", "scalars.add", "quaternions.mul", "octonions.mul",
                "polynomials.mul", "polynomials.compose", "solver.companion",
                "dynamics.orbit", "dynamics.certify", "dynamics.oct_check", "aberth"):
        assert tracer.count[key] > 0, key
    assert [_run(main, argv) for argv in ARGVS] == plain
