"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 5 is split: the behavioral checks pass, while the verbatim
reference expansion of the octonion composite is asserted as recorded and is
expected to fail, because direct expansion of the doubling product gives
different x^1 and x^0 coefficients.  It is kept red on purpose rather than
adjusted; see test_criterion_5_reference_composite_verbatim.
"""

import json
import random
import time

from quatdyn import (
    FieldSpec,
    OctSpec,
    Poly,
    QQ,
    QuatSpec,
    certify_periodic,
    companion,
    extract_classes,
    fixed_points,
    octonion_fixed_check,
    roots,
)
from quatdyn.parsing import parse_element

from helpers import (
    rand_oct,
    rand_poly,
    rand_quat,
    rand_solvable_poly,
    rand_subfield_pair,
    reference,
    run_cli,
    values,
)

H = QuatSpec.standard()
F5 = FieldSpec(5)
H5 = QuatSpec.standard(F5)
O = OctSpec.standard()
I, J, K = H.i(), H.j(), H.k()

N_CASES = 1000


def test_criterion_1_fixed_points_of_the_worked_quadratic():
    started = time.monotonic()
    code, out = run_cli(
        ["fixed-points", "--algebra", "quat:-1,-1@Q", "--poly",
         "x^2+(i+1)*x+1+i*j"]
    )
    payload = json.loads(out)
    elapsed = time.monotonic() - started
    assert code == 0
    points = {parse_element(s["point"], H) for s in payload["result"]}
    assert points == {-J, -I - J}
    assert all(s["variant"] == "point" for s in payload["result"])
    assert all(s["class"]["exact"] is True for s in payload["result"])
    assert all("residual" not in s for s in payload["result"])  # zero tolerance

    f = Poly(H, [1 + K, 1 + I, 1])
    g = f - Poly.x(H)
    C = companion(g)
    assert C == Poly(QQ, [2, 0, 3, 0, 1])
    classes = extract_classes(C)
    assert [(c.trace, c.norm) for c in classes] == [
        (QQ.scalar(0), QQ.scalar(1)),
        (QQ.scalar(0), QQ.scalar(2)),
    ]
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: fixed points -j, -i-j; companion x^4+3x^2+2; "
          f"classes (0,1),(0,2); {elapsed:.3f}s")


def test_criterion_2_two_cycle_refuted_exactly():
    started = time.monotonic()
    lam_text = (
        "-1 + (133/362*s5 - 333/362)*i - (14/181*s5 + 165/181)*j"
        " - (26/181*s5 + 22/181)*k"
    )
    code, out = run_cli(
        ["check-periodic", "--algebra", "quat:-1,-1@Q(s5)",
         "--poly", "x^2+(i+1)*x+1+i*j", f"--point={lam_text}",
         "--r", "2", "--n-max", "2"]
    )
    payload = json.loads(out)
    assert code == 0
    result = payload["result"]
    assert result["status"] == "refuted_at"
    assert result["refuted_at"] == 2
    assert result["evidence"]["r_fixed"] is True

    lam = parse_element(lam_text, H5)
    f = Poly(H5, [H5.element(1, 0, 0, 1), H5.element(1, 1, 0, 0), 1])
    f2 = f.compose_iterate(2)
    assert f2(lam) == lam
    f4 = f.compose_iterate(4)
    assert f4.degree == 16
    assert f4(lam) != lam
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS: 2-cycle fixed by f^o2, refuted at f^o4, "
          f"exact over Q(s5); {elapsed:.3f}s")


def test_criterion_3_substitution_is_not_associative():
    f = Poly(H, [0, 0, I])
    lam = 1 + J
    assert f.compose_iterate(2)(lam) == 4 * I
    assert f.eval_iterate(lam, 2) == -4 * I
    print("\nACCEPTANCE 3 PASS: compose-then-evaluate 4i vs iterated "
          "evaluation -4i, exactly")


def test_criterion_4_certified_periodicity_and_outside_fixed_point():
    verdict = certify_periodic(Poly(H, [I, 0, 1]), -I, 2)
    assert verdict.status == "certified_periodic"

    f = Poly(H, [0, 1 + I, 0, I])  # ix^3 + (1+i)x
    assert f(J) == J
    sols = fixed_points(f)
    assert any(
        (s.kind == "point" and s.point == J)
        or (s.kind == "sphere" and J.in_class(s.klass.trace, s.klass.norm))
        for s in sols
    )
    print("\nACCEPTANCE 4 PASS: x^2+i certifies -i as 2-periodic; "
          "ix^3+(1+i)x has j among its fixed points")


OCT_F = Poly(
    O,
    [
        O.basis_element("l") - O.basis_element("kl"),
        O.one() - O.basis_element("il"),
        O.basis_element("l"),
    ],
)


def test_criterion_5_octonion_counterexample_behavior():
    j = O.basis_element("j")
    assert OCT_F(j) == j
    ff = OCT_F.compose_iterate(2)
    assert ff(j) != j
    report = octonion_fixed_check(OCT_F, j, n_max=4)
    assert report.fixed is True and report.first_failure == 2
    # the composite as computed, frozen from two independent expansions
    i, jj, k = (O.basis_element(s) for s in "ijk")
    l, il, kl = (O.basis_element(s) for s in ("l", "il", "kl"))
    assert ff == Poly(
        O, [i + jj - 2 * kl, -2 - 2 * k - 2 * il, -i - l, O.element(-2), -l]
    )
    print("\nACCEPTANCE 5 PASS (behavior): f(j) = j, (f o f)(j) = 4i + j != j")


def test_criterion_5_reference_composite_verbatim():
    """Recorded reference expansion for (f o f), asserted verbatim.

    Direct expansion of the doubling product gives -(2 + 2k + 2il) for the
    x coefficient and i + j - 2kl for the constant, not the values recorded
    here; the characteristic identity forces (1 - il)^2 = -2il, which the
    recorded expansion contradicts.  Kept as recorded, expected red.
    """
    i, j, k = (O.basis_element(s) for s in "ijk")
    l, kl = O.basis_element("l"), O.basis_element("kl")
    recorded = Poly(
        O,
        [
            i + j + l - kl,
            -2 * (O.one() + k),
            -i - l,
            O.element(-2),
            -l,
        ],
    )
    ff = OCT_F.compose_iterate(2)
    assert ff == recorded, "composite differs from the recorded expansion"
    print("\nACCEPTANCE 5 PASS (verbatim reference)")


def test_criterion_6_property_suites():
    rng = random.Random(2024)

    for _ in range(N_CASES):
        z, w = rand_quat(rng, H), rand_quat(rng, H)
        assert (z * w).norm() == z.norm() * w.norm()

    for _ in range(N_CASES):
        z = rand_quat(rng, H, span=3, den=2)
        assert (z * z - z * z.trace() + z.norm()).is_zero

    for _ in range(N_CASES):
        z, w = rand_quat(rng, H, den=2), rand_quat(rng, H, den=2)
        assert (z * w).conj() == w.conj() * z.conj()

    for _ in range(N_CASES):
        x, y = rand_oct(rng, O), rand_oct(rng, O)
        assert (x * y).conj() == y.conj() * x.conj()

    for _ in range(N_CASES):
        x, y = rand_oct(rng, O), rand_oct(rng, O)
        assert (x * x) * y == x * (x * y)
        assert (y * x) * x == y * (x * x)
        assert (x * y) * x == x * (y * x)

    for _ in range(N_CASES):
        f = rand_poly(rng, H, rng.randint(0, 3))
        lam = rand_quat(rng, H)
        q, r = f.divmod_linear(lam)
        assert r == f(lam)
        assert q * (Poly.x(H) - lam) + r == f

    # product evaluation with a commuting right factor, and powers of values
    for _ in range(N_CASES):
        w, sample = rand_subfield_pair(rng, H)
        g = Poly(H, [sample() for _ in range(rng.randint(1, 3))])
        lam = sample()
        f = rand_poly(rng, H, rng.randint(0, 3))
        assert g(lam).commutes(lam)
        assert (f * g)(lam) == f(lam) * g(lam)
        t = rng.randint(1, 4)
        assert (g**t)(lam) == g(lam) ** t

    # compose/eval agreement under the commutation hypothesis, n <= 4
    for _ in range(N_CASES):
        w, sample = rand_subfield_pair(rng, H)
        f = Poly(H, [sample() for _ in range(3)])
        lam = sample()
        g, value = f, lam
        for n in range(1, 5):
            value = f(value)
            if n > 1:
                g = f.compose(g)
            assert g(lam) == value

    # fixed-point classes never outnumber the degree
    for _ in range(N_CASES):
        deg = rng.randint(2, 4)
        f = rand_solvable_poly(rng, H, deg) + Poly.x(H)
        sols = fixed_points(f)
        classes = {
            (s.klass.trace, s.klass.norm)
            for s in sols
            if s.kind in ("point", "sphere")
        }
        assert len(classes) <= f.degree
        for s in sols:
            if s.kind == "point":
                assert f(s.point) == s.point

    print(f"\nACCEPTANCE 6 PASS: property suites at {N_CASES} exact cases each")


def test_criterion_7_numeric_backend_sanity():
    g = Poly(H, [1, I, 1])
    # companion checked against the reference algebra's convolution conj(g)*g
    alg, coeffs = reference(H), values(g)
    oracle = alg.pmul([alg.conj(c) for c in coeffs], coeffs)
    assert [c[0] for c in oracle] == [1, 0, 3, 0, 1]
    assert all(c[1] == c[2] == c[3] == 0 for c in oracle)
    C = companion(g)
    assert [c.a for c in C.coeffs] == [c[0] for c in oracle]

    sols = roots(g, mode="numeric")
    points = [s for s in sols if s.kind == "point"]
    assert len(points) == 2
    for s in points:
        value = g(s.point)  # exact evaluation at the reported point
        residual = max(abs(float(c)) for c in value.coords())
        assert residual <= 1e-9
        assert s.residual <= 1e-9
    print("\nACCEPTANCE 7 PASS: companion x^4+3x^2+1; two numeric points "
          "with exact-coefficient residual <= 1e-9")


def test_criterion_8_solver_soundness():
    rng = random.Random(4096)
    checked_points = 0
    for _ in range(200):
        deg = rng.randint(1, 3)
        g = rand_solvable_poly(rng, H, deg)
        sols = roots(g, mode="exact")
        for s in sols:
            assert s.kind != "anomaly"
            if s.kind == "point":
                assert g(s.point).is_zero
                checked_points += 1
    assert checked_points > 100
    print(f"\nACCEPTANCE 8 PASS: 200 random polynomials, {checked_points} "
          "points re-evaluated to exactly zero, no anomalies")
