"""The benchmark's per-layer tracer still finds every name it wraps.

`perfbench/layers.py` patches public names of `quatdyn` from outside (the
scalar operators on `Scalar` itself, the products on `Quaternion` and
`Octonion`, all in the class's own namespace, where
`Element.__init_subclass__` puts them; `Poly` methods, the solver and
dynamics functions).  A name that moves, say a function renamed or imported
into its caller under another name, breaks a traced benchmark run; this test
breaks first.
"""

import importlib.util
from pathlib import Path

from quatdyn import QQ, OctSpec, Poly, QuatSpec

from helpers import run_cli

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


def test_traced_outputs_equal_untraced_outputs():
    plain = [run_cli(argv) for argv in ARGVS]
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        traced = [run_cli(argv, tracer.main) for argv in ARGVS]
        # no subcommand multiplies two Poly values (compose works on the
        # columns), or two octonions (orbits step on numerators), or adds two
        # scalars (class data are built, sorted and tested on rationals), so
        # one direct product or sum of each keeps the wrapped operator checked
        x = Poly.x(QuatSpec.standard())
        assert (x + 1) * x == x * x + x
        i, l = (OctSpec.standard().basis_element(s) for s in "il")
        assert i * l == -(l * i)
        assert QQ.scalar(1) + QQ.scalar(2) == 3
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(code in (0, 1) for code, _ in plain)
    for key in ("scalars.mul", "scalars.add", "quaternions.mul", "octonions.mul",
                "polynomials.mul", "polynomials.compose", "solver.companion",
                "dynamics.orbit", "dynamics.certify", "dynamics.oct_check", "aberth"):
        assert tracer.count[key] > 0, key
    assert [run_cli(argv) for argv in ARGVS] == plain
