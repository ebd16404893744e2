"""Acceptance gate: the ten package-level criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  Three criteria ask for companion-form seeds at weights where the
unique gamma-matrix provably leaves the integral ring (see README, "known
limits"); those runs are marked strict-xfail — they execute the criterion as
written and are REQUIRED to fail with SeedSingular — and each is paired with
the attainable part of the same criterion tested green.
"""
import random
import time
from fractions import Fraction

import pytest

from wachdeform.cli import main as cli_main
from wachdeform.deform import alpha, default_chi, deform_trace, extend_h, precision_default, precision_floor
from wachdeform.errors import SeedSingular
from wachdeform.padics import (
    PadicElt,
    PadicParams,
    ScaledElt,
    val_or_cap,
)
from wachdeform.series import Mat2, MatrixSeries, mat_gamma
from wachdeform.trianguline import (
    PsiMap,
    TriCharacter,
    char_eval,
    coeff_bound_check,
    hypothesis_star,
    lipschitz_check,
    psi_eval,
    radius_to_level,
    sample_ball_pairs,
    weight_step,
)
from wachdeform.wach import check_axioms, seed_companion

from qp_characters import QpMultChar
from test_deform import alpha0, h_floors


def _vp_int(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _seed(p: int, k: int, ap: int, prec: int, nx: int):
    params = PadicParams(p, 1, prec)
    return seed_companion(params, k, PadicElt.from_int(params, ap),
                          default_chi(p), nx)


# --------------------------------------------------------------------------- #
# 1. alpha: product definition == floor formula, growth bound, < 1 s
# --------------------------------------------------------------------------- #

def test_criterion_01_alpha_product_floor_and_bound():
    t0 = time.monotonic()
    for p in (3, 5, 7):
        chi = default_chi(p)
        acc, power = 0, 1
        for j in range(1, 301):
            power *= chi
            acc += _vp_int(power - 1, p)            # product definition
            floor_sum = 0                            # independent floor formula
            n = 1
            while p ** (n - 1) * (p - 1) <= j:
                floor_sum += j // (p ** (n - 1) * (p - 1))
                n += 1
            assert alpha(p, j, chi) == acc == floor_sum, (p, j)
            assert acc <= Fraction(j * p, (p - 1) ** 2), (p, j)
    assert time.monotonic() - t0 < 1.0


# --------------------------------------------------------------------------- #
# 2. seed validity on the (p=3, k in 2..8, a_p in {3,6,9}, N=32) grid
# --------------------------------------------------------------------------- #

def test_criterion_02_seed_grid_attainable_row():
    # the weight-2 row of the grid; each case well under the 10 s budget
    for ap in (3, 6, 9):
        t0 = time.monotonic()
        w = _seed(3, 2, ap, prec=24, nx=32)
        rep = check_axioms(w)
        assert rep.ok
        assert rep.commutation_defect_val >= rep.commutation_defect_cap
        assert time.monotonic() - t0 < 10.0


@pytest.mark.xfail(
    strict=True,
    raises=SeedSingular,
    reason="for k >= 3 the unique gamma-matrix over the companion seed is "
           "non-integral (first witness: k=3, a_p=3, order 3); see README",
)
def test_criterion_02_seed_grid_as_written():
    for k in range(2, 9):
        for ap in (3, 6, 9):
            w = _seed(3, k, ap, prec=24, nx=32)
            rep = check_axioms(w)
            assert rep.ok
            assert rep.commutation_defect_val >= rep.commutation_defect_cap


# --------------------------------------------------------------------------- #
# 3. trace-deformation desk run and its refused counter-run
# --------------------------------------------------------------------------- #

def test_criterion_03_counter_run_refused_by_bound(capsys):
    # v(30 - 3) = 3 < 2 v(a_p) + alpha(3) + m = 4: refused before seeding
    code = cli_main(["deform", "--p", "3", "--k", "4", "--ap", "3",
                     "--ap-new", "30", "--m", "1"])
    assert code == 2
    assert "v(a_p - a'_p)" in capsys.readouterr().err


def test_criterion_03_desk_run_weight_two_twin():
    # same pipeline, run where a companion seed exists: k=2, a_p 3 -> 30, m=1
    t0 = time.monotonic()
    w = _seed(3, 2, 3, prec=37, nx=32)
    wp, cert = deform_trace(w, PadicElt.from_int(w.params, 30), 1)
    assert cert.ok
    assert Fraction((w.P - wp.P).min_val_or_cap(), 1) >= 1
    assert Fraction((w.G - wp.G).min_val_or_cap(), 1) >= 1
    p0 = wp.P.eval0()   # char poly of P'(0) is exactly T^2 - 30 T + 3 to cap
    assert (p0.trace() - PadicElt.from_int(w.params, 30)).is_zero_at_cap()
    assert (p0.det() - PadicElt.from_int(w.params, 3)).is_zero_at_cap()
    for got, floor in zip(cert.h_valuations, cert.h_floors):
        assert got >= floor
    assert time.monotonic() - t0 < 30.0


@pytest.mark.xfail(
    strict=True,
    raises=SeedSingular,
    reason="no integral companion seed exists at (p, k, a_p) = (3, 4, 3): "
           "the order-1 gamma coefficient is -1/30; see README",
)
def test_criterion_03_desk_run_as_written():
    w = _seed(3, 4, 3, prec=57, nx=32)
    wp, cert = deform_trace(w, PadicElt.from_int(w.params, 84), 1)
    assert cert.ok
    assert Fraction((w.P - wp.P).min_val_or_cap(), 1) >= 1
    assert Fraction((w.G - wp.G).min_val_or_cap(), 1) >= 1
    p0 = wp.P.eval0()
    assert (p0.trace() - PadicElt.from_int(w.params, 84)).is_zero_at_cap()
    assert (p0.det() - PadicElt.from_int(w.params, 27)).is_zero_at_cap()
    for r, (got, floor) in enumerate(zip(cert.h_valuations, cert.h_floors)):
        assert floor == alpha(3, 3, 2) - alpha0(3, r, 2) + 1
        assert got >= floor


# --------------------------------------------------------------------------- #
# 4. recursion floors, against brute-force expansion of H G - G gamma(H)
# --------------------------------------------------------------------------- #

def test_criterion_04_recursion_floors_and_brute_force():
    rng = random.Random(41)
    params = PadicParams(3, 1, 26)
    m = Fraction(1)
    for trial in range(100):
        k = rng.randrange(2, 9)
        ak1 = alpha(3, k - 1, 2)
        nx = k + 4
        scale = 3 ** (ak1 + 1)
        h0 = Mat2(*(PadicElt.from_int(params, scale * rng.randrange(-20, 21))
                    for _ in range(4)))
        g = MatrixSeries.identity(params, nx)
        for i in range(1, nx):
            tail = Mat2(*(PadicElt.from_int(params, rng.randrange(-40, 41))
                          for _ in range(4)))
            g = g + MatrixSeries.from_mats(params, [Mat2.zero(params)] * i + [tail], nx)
        h = extend_h(h0, g, 2, h_floors(3, k, m, 2))
        for r in range(k):
            got = Fraction(h.coeff(r).min_val_or_cap(), params.e)
            assert got >= ak1 - alpha0(3, r, 2) + m, (trial, k, r)
        defect = h * g - g * mat_gamma(h, 2)        # independent oracle
        for j in range(k):
            assert defect.coeff(j).is_zero_at_cap(), (trial, k, j)


# --------------------------------------------------------------------------- #
# 5. round trip a_p -> a'_p -> a_p is the identity mod p^m
# --------------------------------------------------------------------------- #

def test_criterion_05_round_trip_congruence():
    rng = random.Random(55)
    for trial in range(20):
        p = rng.choice((3, 5, 7))
        t = rng.randrange(1, 3)
        m = rng.randrange(1, 3)
        ap = (p ** t) * (rng.randrange(1, p) + p * rng.randrange(0, p))
        eps = (rng.randrange(1, p)) * p ** (2 * t + m)
        nx = 16
        prec = precision_default(p, 1, 2, m, 0, nx)
        params = PadicParams(p, 1, prec)
        w = seed_companion(params, 2, PadicElt.from_int(params, ap),
                           default_chi(p), nx)
        there, cert1 = deform_trace(w, PadicElt.from_int(params, ap + eps), m)
        back, cert2 = deform_trace(there, PadicElt.from_int(params, ap), m)
        assert cert1.ok and cert2.ok, (trial, p, ap, eps, m)
        assert Fraction((w.P - back.P).min_val_or_cap(), 1) >= m
        assert Fraction((w.G - back.G).min_val_or_cap(), 1) >= m


# --------------------------------------------------------------------------- #
# 6. psi machinery: pinned value, coefficient integrality, homomorphism law
# --------------------------------------------------------------------------- #

def test_criterion_06_psi_machinery():
    t0 = time.monotonic()
    params = PadicParams(3, 1, 20)
    four = PadicElt.from_int(params, 4)

    # psi_4(1/2) = -2: the principal square root of 4 (both paths agree)
    got = psi_eval(four, Fraction(1, 2))
    assert got.cap >= 18
    assert got.same_at_cap(PadicElt.from_int(params, -2))
    assert (got.lift_int() + 2) % 3 ** 18 == 0

    # interpolation coefficients are integral through n = 200
    pm = PsiMap.build(four, 200)
    assert len(pm.coeffs) == 201
    assert all(val_or_cap(c) >= 0 for c in pm.coeffs)
    assert coeff_bound_check(four, 200).ok

    # homomorphism law psi(s + t) = psi(s) psi(t) on 500 random pairs
    rng = random.Random(66)
    for _ in range(500):
        s = Fraction(rng.randrange(-(3 ** 9), 3 ** 9))
        t = Fraction(rng.randrange(-(3 ** 9), 3 ** 9), rng.choice((1, 2, 4, 5, 7, 8)))
        both = psi_eval(four, s + t)
        split = psi_eval(four, s) * psi_eval(four, t)
        assert both.same_at_cap(split)
    assert time.monotonic() - t0 < 5.0


# --------------------------------------------------------------------------- #
# 7. character specialization at s = 1 - k
# --------------------------------------------------------------------------- #

def test_criterion_07_character_specialization():
    params = PadicParams(3, 1, 20)
    k = 4
    ap = PadicElt.from_int(params, 3)
    tc = TriCharacter(k=k, a_p=ap, s=PadicElt.from_int(params, 1 - k))
    inv_ap = ScaledElt(PadicElt.one(params)).div(ScaledElt(ap))
    ref = QpMultChar(
        kind="product",
        factors=(
            QpMultChar(kind="mu", z=inv_ap),
            QpMultChar(kind="chi_power", exponent=1 - k),
        ),
    )
    rng = random.Random(77)
    for _ in range(20):
        u = rng.randrange(1, 3 ** 12)
        while u % 3 == 0:
            u += 1
        x = PadicElt.from_int(params, u * 3 ** rng.randrange(0, 3))
        shift = rng.randrange(-2, 1)
        lhs = char_eval(tc, x, shift)
        rhs = ref.evaluate(x, shift)
        assert lhs.exp == rhs.exp
        assert lhs.mantissa.same_at_cap(rhs.mantissa)


# --------------------------------------------------------------------------- #
# 8. ball-norm Lipschitz inequality, equality attained at g = T / p^r
# --------------------------------------------------------------------------- #

def test_criterion_08_lipschitz_suite():
    rng = random.Random(88)
    params = PadicParams(3, 1, 20)
    total_pairs = 0
    for _ in range(100):
        r = rng.randrange(0, 3)
        deg = rng.randrange(1, 6)
        coeffs = []
        for n in range(deg + 1):
            if rng.random() < 0.3:
                down = min(r * n, 2)        # boundary cases: v(a_n) = -down
                coeffs.append(Fraction(rng.choice((1, 2, 4, 5)), 3 ** down))
            else:
                coeffs.append(Fraction(rng.randrange(-40, 41)))
        coeffs[-1] = coeffs[-1] if coeffs[-1] else Fraction(1)
        pairs = sample_ball_pairs(params, r, 10, seed=rng.randrange(10 ** 6))
        rep = lipschitz_check(params, coeffs, r, pairs)
        assert rep.ok, (r, coeffs)
        total_pairs += rep.pairs
    assert total_pairs >= 1000

    for r in (0, 1, 2):
        pairs = sample_ball_pairs(params, r, 16, seed=r + 1)
        rep = lipschitz_check(params, [Fraction(0), Fraction(1, 3 ** r)], r, pairs)
        assert rep.ok and rep.equality_attained and rep.sharpest == 0


# --------------------------------------------------------------------------- #
# 9. minimal weights satisfying hypothesis (*), exact rational arithmetic
# --------------------------------------------------------------------------- #

def test_criterion_09_hypothesis_star_table():
    assert hypothesis_star(3, 1, 1) == 17
    assert hypothesis_star(5, 1, 1) == 7
    assert hypothesis_star(7, 1, 1) == 6
    assert hypothesis_star(3, Fraction(1, 2), 1) == 11   # rational slopes too


# --------------------------------------------------------------------------- #
# 10. weight-side first step at (p, k, a_p, m) = (3, 17, 3, 1)
# --------------------------------------------------------------------------- #

def test_criterion_10_weight_step_arithmetic():
    # the exact quantities the weight step is built from
    alpha_16 = alpha(3, 16, 2)
    assert alpha_16 == 10
    assert hypothesis_star(3, 1, 1) == 17          # k = 17 is exactly minimal

    params = PadicParams(3, 1, 46)
    eps = ScaledElt(PadicElt.one(params), 16).div(
        ScaledElt(PadicElt.from_int(params, 3))).to_padic()
    assert val_or_cap(eps) == 15                    # v(p^(k-1)/a_p)
    assert 15 >= 2 * 1 + alpha_16 + 1               # = 13: bound satisfied

    assert precision_floor(1, 17, 1, 10) == 46      # = 1 + 20 + 17 + 8
    assert radius_to_level(1, 1) == 2               # level = m + r, exact
    assert radius_to_level(Fraction(3, 2), Fraction(1, 2)) == 2
    assert radius_to_level(2, 3) == 5


@pytest.mark.xfail(
    strict=True,
    raises=SeedSingular,
    reason="no integral companion seed exists at (p, k, a_p) = (3, 17, 3); "
           "the perturbation arithmetic is tested green above; see README",
)
def test_criterion_10_weight_step_as_written():
    t0 = time.monotonic()
    w = _seed(3, 17, 3, prec=96, nx=34)
    wp, cert = weight_step(w, 1)
    assert cert.ok
    assert cert.bound_observed == 15
    assert cert.bound_required == 13
    assert cert.prec_pi >= 46
    assert time.monotonic() - t0 < 300.0
