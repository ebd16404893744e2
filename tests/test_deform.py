"""Tests for the deformation engine: alpha, H0, the H recursion, the
Gamma-correction loop, and the end-to-end trace deformation with certificate."""
import hashlib
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wachdeform.deform import (
    _alpha_floor_formula,
    alpha,
    build_h0,
    converse_bound,
    correct_gamma,
    default_chi,
    deform_trace,
    extend_h,
    is_generator,
    precision_default,
    precision_floor,
)
from wachdeform.errors import (
    BoundViolated,
    DefectNotDivisible,
    DomainError,
    InexactDivision,
    NotAGenerator,
    PreconditionFails,
    PrecisionExhausted,
    ValuationFloorUnreachable,
    WachdeformError,
)
from wachdeform import series
from wachdeform.padics import MAX_PREC_PI, PadicElt, PadicParams, val_or_cap, vp
from wachdeform.series import Mat2, MatrixSeries, mat_gamma
from wachdeform.wach import check_axioms, default_nx, seed_companion

P3 = PadicParams(3, 1, 24)


def elt(n: int, params: PadicParams = P3) -> PadicElt:
    return PadicElt.from_int(params, n)


def mat(a: int, b: int, c: int, d: int, params: PadicParams = P3) -> Mat2:
    return Mat2(elt(a, params), elt(b, params), elt(c, params), elt(d, params))


def seed_k2(a: int = 3, nx: int = 16, prec: int = 24):
    params = PadicParams(3, 1, prec)
    return seed_companion(params, k=2, a_p=PadicElt.from_int(params, a), chi_gamma=2, nx=nx)


# --------------------------------------------------------------------------- #
# alpha
# --------------------------------------------------------------------------- #

def alpha0(p: int, r: int, chi: int) -> int:
    """alpha(r), with alpha(0) = 0 as the empty sum."""
    return alpha(p, r, chi) if r else 0


def h_floors(p: int, k: int, m: Fraction, chi: int) -> tuple[Fraction, ...]:
    """The floors alpha(k-1) - alpha(r) + m of H_0..H_{k-1}, each alpha checked per j."""
    return tuple(Fraction(alpha0(p, k - 1, chi) - alpha0(p, r, chi)) + m for r in range(k))


def test_alpha_small_table_p3():
    values = [alpha(3, r, 2) for r in range(1, 7)]
    assert values == [0, 1, 1, 2, 2, 4]
    steps = [b - a for a, b in zip([0] + values, values)]
    assert steps == [0, 1, 0, 1, 0, 2] == [vp(2**j - 1, 3) for j in range(1, 7)]
    assert alpha(3, 3, 2) == 1   # bound ingredient for the weight-4 desk example


def test_alpha_other_primes():
    assert alpha(5, 20, 2) == 6       # floor(20/4) + floor(20/20)
    assert alpha(7, 6, 3) == 1
    assert alpha(3, 16, 2) == 10      # 8 + 2


@pytest.mark.parametrize("p", [3, 5, 7])
def test_alpha_floor_formula_to_300(p):
    # alpha cross-checks product vs floor form at every j <= r; returning at
    # every r up to 300 is the assertion
    values = [alpha(p, r, default_chi(p)) for r in range(1, 301)]
    assert all(type(v) is int for v in values)
    # non-decreasing with nonnegative steps
    assert values[0] >= 0
    assert all(b >= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_alpha_upper_bound(p):
    for r in range(1, 301):
        assert Fraction(alpha(p, r, default_chi(p))) <= Fraction(r * p, (p - 1) ** 2)


def test_alpha_rejects_non_generators():
    with pytest.raises(NotAGenerator):
        alpha(3, 6, 4)          # 4 = 2^2 is a square mod 3
    with pytest.raises(NotAGenerator):
        alpha(3, 6, 1)
    with pytest.raises(NotAGenerator):
        alpha(3, 6, 3)          # divisible by p
    with pytest.raises(NotAGenerator):
        alpha(5, 6, 7)          # generates mod 5 but 7^4 = 2401 = 1 mod 25


def test_alpha_argument_validation():
    with pytest.raises(DomainError):
        alpha(3, 0, 2)
    with pytest.raises(DomainError):
        alpha(3, -4, 2)


def test_alpha_to_large_r_equals_floor_formula():
    # chi^j is carried mod p^L, so alpha at r = 10^5 costs linear time; the
    # sampled values are the floor formula, and their steps those of the exact
    # powers (alpha checks the floor form at every other j itself)
    p, r = 3, 10**5
    moduli = [(p - 1) * p**i for i in range(12) if (p - 1) * p**i <= r]
    sampled = (1, 2, 6, 18, 486, 2 * 3**9, r - 1, r)
    values = {n: alpha0(p, n, 2) for j in sampled for n in (j - 1, j)}
    for n, value in values.items():
        assert value == sum(n // m for m in moduli), n
    for j in sampled:
        assert values[j] - values[j - 1] == vp(2**j - 1, p), j
    assert _alpha_floor_formula(p, r) == values[r]


def test_alpha_memory_is_constant_in_r():
    # running totals only: no list of r values or steps is kept
    tracemalloc.start()
    try:
        assert alpha(3, 10**5, 2) == _alpha_floor_formula(3, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


@pytest.mark.parametrize("args, cls, message", [
    ((4, 5, 2), DomainError, "p must be an odd prime, got 4"),
    ((3, 0, 2), DomainError, "alpha needs r >= 1, got 0"),
    ((3, 5, 4), NotAGenerator, "chi(gamma) = 4 does not topologically generate Z_3^x"),
    ((5, 5, 7), NotAGenerator, "chi(gamma) = 7 does not topologically generate Z_5^x"),
], ids=["not-an-odd-prime", "r-below-1", "square-mod-3", "trivial-mod-25"])
def test_alpha_refusals(args, cls, message):
    # odd prime, then r >= 1, then generator: each refused before any per-j work
    with pytest.raises(WachdeformError) as refused:
        alpha(*args)
    assert (type(refused.value), str(refused.value)) == (cls, message)


def test_default_chi_smallest_generator():
    assert default_chi(3) == 2
    assert default_chi(5) == 2
    assert default_chi(7) == 3
    assert is_generator(7, 3) and not is_generator(7, 2)


def test_is_generator_matches_power_walk():
    # the reference walks the powers of chi mod p for its order, as
    # is_generator once did; the order depends on chi mod p only
    for p in [p for p in range(3, 200) if all(p % q for q in range(2, p))]:
        order = [0] * p
        for r in range(1, p):
            acc, order[r] = r, 1
            while acc != 1:
                acc, order[r] = acc * r % p, order[r] + 1
        want = [chi >= 2 and chi % p != 0 and order[chi % p] == p - 1
                and pow(chi, p - 1, p * p) != 1 for chi in range(p * p + 3)]
        assert [is_generator(p, chi) for chi in range(p * p + 3)] == want, p


def test_default_chi_large_prime():
    # p - 1 = 2 * 491 * 101833: three exponentiations mod p per candidate, not
    # a walk of up to p - 1 powers
    assert default_chi(100000007) == 5


@pytest.mark.parametrize("p", [0, 1, 2, 4, 9])
def test_is_generator_refuses_non_prime(p):
    # p = 0 once raised ZeroDivisionError from chi mod p
    with pytest.raises(DomainError, match=f"p must be an odd prime, got {p}"):
        is_generator(p, 2)


# --------------------------------------------------------------------------- #
# precision budget
# --------------------------------------------------------------------------- #

def test_precision_floor_weight17():
    # m + 2 alpha(16) + k + 8 = 1 + 20 + 17 + 8
    assert precision_floor(1, 17, Fraction(1), 10) == 46
    assert precision_floor(2, 17, Fraction(1), 10) == 92


def test_precision_default_exceeds_floor():
    f = precision_floor(1, 4, Fraction(1), 1)
    d = precision_default(3, 1, 4, Fraction(1), 1, 32)
    assert d > f


def test_precision_default_below_prec_pi_maximum():
    # every default budget up to the weight-17 criterion fits under the maximum
    for p in (3, 5, 7):
        chi = default_chi(p)
        for e in (1, 2):
            for k in range(2, 18):
                a = alpha(p, k - 1, chi)
                assert precision_default(p, e, k, Fraction(1), a, default_nx(p, k)) <= MAX_PREC_PI
    with pytest.raises(PrecisionExhausted, match="exceeds the maximum"):
        PadicParams(3, 1, MAX_PREC_PI + 1)
    assert PadicParams(3, 2, MAX_PREC_PI).prec_pi == MAX_PREC_PI


# --------------------------------------------------------------------------- #
# build_h0
# --------------------------------------------------------------------------- #

def test_build_h0_zero_eps_is_zero():
    h0 = build_h0(mat(0, -1, 3, 3), PadicElt.zero(P3), Fraction(1))
    assert h0.is_zero_at_cap()


def test_build_h0_companion_is_triangular():
    eps = elt(27)
    h0 = build_h0(mat(0, -1, 3, 3), eps, Fraction(1))
    assert h0.a.is_zero_at_cap() and h0.b.is_zero_at_cap() and h0.d.is_zero_at_cap()
    assert (h0.c + eps).is_zero_at_cap()
    one = elt(1)
    assert ((Mat2.identity(P3) + h0).det() - one).is_zero_at_cap()
    assert ((h0 * mat(0, -1, 3, 3)).trace() - eps).is_zero_at_cap()


def test_build_h0_general_conjugated():
    # upper-triangular conjugate of diag(1, 3): b = 2 is a unit, so the
    # rank-one H0 = ((0,0),(eps/2,0)) spends no precision
    p0 = mat(1, 2, 0, 3)
    eps = elt(9)
    h0 = build_h0(p0, eps, Fraction(1))
    assert ((h0 * p0).trace() - eps).is_zero_at_cap()
    one = elt(1)
    assert ((Mat2.identity(P3) + h0).det() - one).is_zero_at_cap()
    assert Fraction(h0.min_val_or_cap(), P3.e) >= 1


def test_build_h0_floor_refused():
    with pytest.raises(ValuationFloorUnreachable, match=r"^v\(eps\) = 1 below the floor 2$"):
        build_h0(mat(0, -1, 3, 3), elt(3), Fraction(2))


def test_build_h0_diagonal_takes_the_sum_vector():
    # P0 = diag(1, 4): b = c = 0, so v = (1,1) and q = d - a = 3; the floor
    # the refusal names carries v(q) = 1
    h0 = build_h0(mat(1, 0, 0, 4), elt(9), Fraction(1))
    assert h0.same_at_cap(mat(-3, 3, -3, 3))
    assert [x.cap for x in h0.entries()] == [23] * 4   # eps / 3 knows one digit less
    with pytest.raises(ValuationFloorUnreachable, match=r"^v\(eps\) = 1 below the floor 2$"):
        build_h0(mat(1, 0, 0, 4), elt(3), Fraction(1))


@st.composite
def h0_case(draw):
    """(P0, eps): P0 integral and exact, general, companion or scalar; eps nonzero."""
    p, e = draw(st.sampled_from([3, 5, 7])), draw(st.sampled_from([1, 2]))
    params = PadicParams(p, e, draw(st.integers(20, 40)))

    def elt(low: int = -p ** 6) -> PadicElt:
        digits = [draw(st.integers(low, p ** 6))] + draw(
            st.lists(st.integers(-p ** 6, p ** 6), min_size=e - 1, max_size=e - 1))
        return pi_pow(params, draw(st.integers(0, 6))) * PadicElt(params, digits, params.prec_pi)

    a, b, c, d = (elt() for _ in range(4))
    shape = draw(st.sampled_from(["general", "companion", "scalar"]))
    if shape == "companion":
        a, b = PadicElt.zero(params), PadicElt.from_int(params, -1)
    elif shape == "scalar":
        b = c = PadicElt.zero(params)
        d = a
    return shape, Mat2(a, b, c, d), elt(low=1)


@settings(max_examples=200, deadline=None)
@given(h0_case())
def test_build_h0_rank_one_properties(case):
    shape, p0, eps = case
    params = eps.params
    if all(x.is_zero_at_cap() for x in (p0.b, p0.c, p0.d - p0.a)):   # shape "scalar" or drawn so
        with pytest.raises(DomainError, match="scalar"):
            build_h0(p0, eps, Fraction(0))
        return
    least = min(val_or_cap(p0.b), val_or_cap(p0.c), val_or_cap(p0.d - p0.a))
    if val_or_cap(eps) < least:   # eps / q(v) is not integral
        with pytest.raises(ValuationFloorUnreachable):
            build_h0(p0, eps, Fraction(0))
        return
    h0 = build_h0(p0, eps, Fraction(0))
    assert h0.trace().is_zero_at_cap() and h0.det().is_zero_at_cap()
    assert ((Mat2.identity(params) + h0).det() - PadicElt.one(params)).is_zero_at_cap()
    assert ((h0 * p0).trace() - eps).is_zero_at_cap()
    assert Fraction(h0.min_val_or_cap(), params.e) >= val_or_cap(eps) - least
    if shape == "companion":
        zero = PadicElt.zero(params)
        assert h0.entries() == (zero, zero, -eps, zero)


# --------------------------------------------------------------------------- #
# extend_h
# --------------------------------------------------------------------------- #

def _const_series(m: Mat2, nx: int, order: int = 0) -> MatrixSeries:
    """x^order m, known mod x^nx."""
    return MatrixSeries.from_mats(m.a.params, [Mat2.zero(m.a.params)] * order + [m], nx)


def test_extend_h_zero_seed_stays_zero():
    w = seed_k2()
    h = extend_h(Mat2.zero(P3), w.G, 2, h_floors(3, 2, Fraction(1), 2))
    assert h.is_zero_at_cap()


def test_extend_h_identity_gamma_keeps_constant():
    h0 = mat(9, 0, 27, 9)
    g = MatrixSeries.identity(P3, 12)
    h = extend_h(h0, g, 2, h_floors(3, 4, Fraction(1), 2))
    assert h.coeff(0).same_at_cap(h0)
    for r in range(1, 4):
        assert h.coeff(r).is_zero_at_cap()


def test_extend_h_first_order_commutator():
    # G = Id + x G_1 with G_1 = ((0,1),(0,0)) and H0 = ((0,0),(c,0)):
    # (1 - chi) H_1 = G_1 H0 - H0 G_1, so H_1 = H0 G_1 - G_1 H0 = ((-c,0),(0,c))
    c = 3
    h0 = mat(0, 0, c, 0)
    g = MatrixSeries.identity(P3, 12) + _const_series(mat(0, 1, 0, 0), 12, 1)
    h = extend_h(h0, g, 2, h_floors(3, 2, Fraction(1), 2))
    assert h.coeff(0).same_at_cap(h0)
    assert h.coeff(1).same_at_cap(mat(-c, 0, 0, c))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_extend_h_corrupted_order_raises_at_that_order(monkeypatch, r):
    # the brute re-expansion, cut to x^k, sees an H_r moved by a unit at order
    # r < k; G has a term beyond x^k, which the cut drops
    g = (MatrixSeries.identity(P3, 12) + _const_series(mat(0, 1, 0, 0), 12, 1)
         + _const_series(mat(1, 0, 2, 1), 12, 6))
    from_mats = MatrixSeries.from_mats.__func__

    def corrupted(cls, params, mats, nx):
        mats = list(mats)
        if len(mats) == 4:   # only the finished H, which the last pass re-expands
            mats[r] = mats[r] + mat(1, 0, 0, 0)
        return from_mats(cls, params, mats, nx)

    monkeypatch.setattr(MatrixSeries, "from_mats", classmethod(corrupted))
    with pytest.raises(PrecisionExhausted, match=rf"fails HG = G gamma\(H\) at order {r}$"):
        extend_h(mat(9, 0, 27, 9), g, 2, h_floors(3, 4, Fraction(1), 2))


def test_extend_h_rejects_shallow_seed():
    w = seed_k2()
    with pytest.raises(ValuationFloorUnreachable):
        extend_h(mat(1, 0, 0, 0), w.G, 2, h_floors(3, 2, Fraction(1), 2))


def test_extend_h_refuses_h_r_below_its_floor():
    # the first-order commutator has v(H_1) = 1: it clears a floor of 1 and is
    # refused at a floor of 2
    h0 = mat(0, 0, 3, 0)
    g = MatrixSeries.identity(P3, 12) + _const_series(mat(0, 1, 0, 0), 12, 1)
    extend_h(h0, g, 2, (Fraction(1), Fraction(1)))
    with pytest.raises(ValuationFloorUnreachable, match=r"step 1: v\(H_1\) = 1 below the floor 2$"):
        extend_h(h0, g, 2, (Fraction(1), Fraction(2)))


def test_extend_h_rejects_gamma_not_identity_at_zero():
    h0 = mat(9, 0, 0, 9)
    g = _const_series(mat(1, 1, 0, 1), 8)
    with pytest.raises(DomainError):
        extend_h(h0, g, 2, h_floors(3, 3, Fraction(1), 2))


def test_extend_h_randomized_floors_and_congruence():
    # 100 random (H0, G): each output must clear every valuation floor
    # v(H_r) >= alpha(k-1) - alpha(r) + m and kill the congruence
    # H G = G gamma(H) below x^k
    rng = random.Random(23)
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
        defect = h * g - g * mat_gamma(h, 2)
        for j in range(k):
            assert defect.coeff(j).is_zero_at_cap(), (trial, k, j)


# --------------------------------------------------------------------------- #
# extend_h against the element loop it replaced, kept here as a reference:
# (1 - chi^r) H_r is summed from Mat2 products over a table of the integer
# coefficients of ((1+x)^chi - 1)^n, then the output is re-expanded
# --------------------------------------------------------------------------- #

def ref_gamma_x_coeffs(chi_gamma: int, k: int) -> list[list[int]]:
    """Integer coefficient table g[n][h] = [x^h] ((1+x)^chi - 1)^n for n, h < k."""
    base = [math.comb(chi_gamma, j) if 1 <= j <= chi_gamma else 0 for j in range(k)]
    table = [[1] + [0] * (k - 1)]
    for _ in range(1, k):
        prev = table[-1]
        nxt = [0] * k
        for i, ci in enumerate(prev):
            if ci == 0:
                continue
            for j in range(1, k - i):
                if base[j]:
                    nxt[i + j] += ci * base[j]
        table.append(nxt)
    return table


def ref_extend_h(h0, g, k, m, chi):
    params = g.params
    alpha_k1 = alpha0(params.p, k - 1, chi)
    if Fraction(h0.min_val_or_cap(), params.e) < alpha_k1 + m:
        raise ValuationFloorUnreachable("H0 below the floor")
    if not (g.eval0() - Mat2.identity(params)).is_zero_at_cap():
        raise DomainError("gamma-matrix must be Id mod x")

    def scale(h, n):
        t = PadicElt.from_int(params, n)
        return Mat2(*(x * t for x in h.entries()))

    gx = ref_gamma_x_coeffs(chi, k)
    hs = [h0]
    for r in range(1, k):
        rhs = Mat2.zero(params)
        for h in range(r):
            inner = Mat2.zero(params)
            for n in range(h + 1):
                if gx[n][h]:
                    inner = inner + scale(hs[n], gx[n][h])
            rhs = rhs + g.coeff(r - h) * inner
        for n in range(r):
            if gx[n][r]:
                rhs = rhs + scale(hs[n], gx[n][r])
        for i in range(r):
            rhs = rhs - hs[i] * g.coeff(r - i)
        divisor = PadicElt.from_int(params, 1 - chi**r)
        try:
            hr = Mat2(*(x.divide_exact(divisor) for x in rhs.entries()))
        except InexactDivision as exc:
            raise PrecisionExhausted(f"step {r}: {exc}")
        hs.append(hr)
        floor_r = Fraction(alpha_k1 - alpha0(params.p, r, chi)) + m
        if Fraction(hr.min_cap(), params.e) < floor_r:
            raise PrecisionExhausted(f"step {r}: cap below the floor")
        if Fraction(hr.min_val_or_cap(), params.e) < floor_r:
            raise ValuationFloorUnreachable(f"step {r}: v(H_r) below the floor")
    hs.extend(Mat2.zero(params) for _ in range(g.nx - k))
    h = MatrixSeries.from_mats(params, hs[: g.nx], g.nx)
    n = min(k, g.nx)
    hk, gk = h.reduce_nx(n), g.reduce_nx(n)
    defect = hk * gk - gk * mat_gamma(h, chi).reduce_nx(n)
    for j in range(n):
        if not defect.coeff(j).is_zero_at_cap():
            raise PrecisionExhausted(f"fails at order {j}")
    return h


def h_outcome(fn, *args):
    """(digits, cap) of every coefficient of H, or the class of the raised error."""
    try:
        h = fn(*args)
    except (DomainError, PrecisionExhausted, ValuationFloorUnreachable) as exc:
        return type(exc)
    return [[(c.digits, c.cap) for c in s.coeffs] for s in h.entries()]


def pi_pow(params: PadicParams, s: int) -> PadicElt:
    return PadicElt(params, [params.p ** (s // params.e) if j == s % params.e else 0
                             for j in range(params.e)], params.prec_pi)


@st.composite
def extend_h_case(draw):
    """(H0, G, k, m, chi, G(0) exact): caps of H0 and G may sit below prec_pi,
    H0 may miss its floor, and G(0) is Id either exactly or at a lower cap."""
    p, e, k = draw(st.sampled_from([3, 5, 7])), draw(st.sampled_from([1, 2])), draw(st.integers(2, 7))
    chi = default_chi(p)
    m = Fraction(draw(st.integers(0, 2 * e)), e)
    floor = e * (alpha(p, k - 1, chi) + m)
    params = PadicParams(p, e, int(floor) + draw(st.integers(2, 14)))
    prec = params.prec_pi

    def elt(v: int) -> PadicElt:
        if draw(st.integers(0, 3)) == 0:
            return PadicElt.zero(params)
        digits = draw(st.lists(st.integers(-p ** 6, p ** 6), min_size=e, max_size=e))
        cap = draw(st.one_of(st.just(prec), st.integers(1, prec)))
        return pi_pow(params, v) * PadicElt(params, digits, cap)

    v0 = max(0, int(floor) + draw(st.integers(-1, 3)))
    h0 = Mat2(*(elt(v0) for _ in range(4)))
    nx = k + draw(st.integers(0, 3))
    exact = draw(st.booleans())
    if exact:
        g0 = Mat2.identity(params)
    else:
        cap = draw(st.integers(1, prec // 2))
        g0 = Mat2(*(PadicElt.from_int(params, int(i in (0, 3)), draw(st.sampled_from([cap, prec])))
                    for i in range(4)))
        if g0.min_cap() == prec:
            g0 = Mat2(PadicElt.one(params, cap), g0.b, g0.c, g0.d)
    mats = [g0] + [Mat2(*(elt(0) for _ in range(4))) for _ in range(1, nx)]
    g = MatrixSeries.from_mats(params, mats, nx)
    return h0, g, k, m, chi, exact


@settings(max_examples=150, deadline=None)
@given(extend_h_case())
def test_extend_h_matches_element_loop(case):
    h0, g, k, m, chi, exact = case
    new = h_outcome(extend_h, h0, g, chi, h_floors(g.params.p, k, m, chi))
    old = h_outcome(ref_extend_h, h0, g, k, m, chi)
    if exact:
        assert new == old
        return
    # G(0) = Id only at a lower cap: the series kernel charges that cap to the
    # G(0) gamma(H) term the loop left out, so caps may only fall, and a cap
    # that falls below a floor is refused for precision
    if isinstance(old, type):
        assert isinstance(new, type)
        return
    if isinstance(new, type):
        assert new is PrecisionExhausted
        return
    params = g.params
    for s_new, s_old in zip(new, old):
        for (d_new, c_new), (d_old, c_old) in zip(s_new, s_old):
            assert c_new <= c_old
            assert PadicElt(params, d_old, c_new).digits == d_new


def test_extend_h_caps_what_g0_determines():
    # G(0) = Id known mod 3^10 only: H_2 takes G(0) gamma(H)_2 = G(0) H_1 with
    # v(H_1) = 2, so it is known mod 3^(10 + 2 - v(1 - 2^2)) = 3^11; the
    # element loop never read G(0) and claimed H_2 to prec_pi - 1
    g0 = Mat2(PadicElt.one(P3, 10), elt(0), elt(0), PadicElt.one(P3, 10))
    g = MatrixSeries.from_mats(P3, [g0, mat(0, 1, 0, 0)], 12)
    h0 = mat(0, 0, 9, 0)
    new = extend_h(h0, g, 2, h_floors(3, 3, Fraction(1), 2))
    old = ref_extend_h(h0, g, 3, Fraction(1), 2)
    assert old.coeff(2).min_cap() == 23
    assert new.coeff(2).min_cap() == 11
    assert (new - old).is_zero_at_cap()
    for r in range(2):
        assert [x.cap for x in new.coeff(r).entries()] == [x.cap for x in old.coeff(r).entries()]


@pytest.mark.parametrize("p, k, digest", [
    (7, 6, "c3954fff1e4db392646d11f8631c05c3c9b6faf3ba2764267051fe766d9b4cf0"),
    (5, 8, "304a4ac55c93df814b40c956b7fe58f11d3323022af3ae0c8ecc74dd78d732f3"),
    (7, 10, "8c67ec373f0decf02b0101b4cebee2abc86386785ec7eb4d8451610d6e89b344"),
])
def test_extend_h_ap_zero_seed_digests(p, k, digest):
    # the a_p = 0 seed at its default caps with H0 = ((0,0),(-p,0)) at m = 0:
    # a nonzero H at k >= 3, which no CLI command reaches; the digests were
    # taken from the element loop
    chi = default_chi(p)
    nx = default_nx(p, k)
    params = PadicParams(p, 1, precision_default(p, 1, k, Fraction(1), alpha(p, k - 1, chi), nx))
    w = seed_companion(params, k, PadicElt.zero(params), chi, nx)
    zero = PadicElt.zero(params)
    h = extend_h(Mat2(zero, zero, PadicElt.from_int(params, -p), zero), w.G, chi,
                 h_floors(p, k, Fraction(0), chi))
    text = "|".join(repr((s.nx, s.planes, s.caps)) for s in h.entries())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# --------------------------------------------------------------------------- #
# correct_gamma
# --------------------------------------------------------------------------- #

def test_correct_gamma_zero_defect_is_identity_map():
    w = seed_k2()
    gp, log = correct_gamma(w.P, w.G, 2, 2)
    assert gp.same_at_cap(w.G)
    assert all(j >= 2 for j, _ in log)


def test_correct_gamma_single_step_removes_planted_defect():
    w = seed_k2()
    t = mat(3, 6, 0, 3)
    g_bad = w.G + _const_series(t, w.G.nx, 2)
    gp, log = correct_gamma(w.P, g_bad, 2, 2)
    # the unique order-2 correction is exactly -T, restoring the original G
    assert gp.same_at_cap(w.G)
    assert log[0][0] == 2 and log[0][1] == 1


@pytest.mark.parametrize("p, e, k, a_p, prec", [
    (3, 1, 5, 0, 30),
    (5, 1, 6, 0, 30),
    (3, 2, 2, 3, 40),
])
def test_correct_gamma_rebuilds_seed_above_weight(p, e, k, a_p, prec):
    # the seed's G cut below x^k has its defect at x^k and above only; the
    # correction must grow it back into the seed's G (k >= 3 and e = 2 reach
    # orders and contractions the k = 2 tests above do not)
    params = PadicParams(p, e, prec)
    chi = default_chi(p)
    w = seed_companion(params, k, PadicElt.from_int(params, a_p), chi)
    g_low = MatrixSeries.from_mats(params, [w.G.coeff(j) for j in range(k)], w.nx)
    gp, log = correct_gamma(w.P, g_low, k, chi)
    assert gp.same_at_cap(w.G)
    assert [j for j, _ in log] == list(range(k, w.nx))


def test_correct_gamma_rejects_low_order_defect():
    w = seed_k2()
    g_bad = w.G + _const_series(mat(3, 0, 0, 3), w.G.nx, 1)
    with pytest.raises(DefectNotDivisible):
        correct_gamma(w.P, g_bad, 2, 2)


# --------------------------------------------------------------------------- #
# deform_trace
# --------------------------------------------------------------------------- #

def test_deform_identity_certificate():
    w = seed_k2()
    wp, cert = deform_trace(w, w.a_p, 1)
    assert cert.ok
    assert wp.P.same_at_cap(w.P)
    assert wp.G.same_at_cap(w.G)


def test_deform_weight2_desk_run():
    w = seed_k2()
    wp, cert = deform_trace(w, elt(30), 1)
    assert cert.ok
    assert cert.bound_required == 3          # 2 v(3) + alpha(1) + 1
    assert cert.bound_observed == 3          # v(27)
    assert cert.h_floors == (Fraction(1), Fraction(1))
    assert all(v >= 1 for _, v in cert.iteration_log)
    assert (wp.P - w.P).min_val_or_cap() >= 1
    assert (wp.G - w.G).min_val_or_cap() >= 1
    p0 = wp.P.eval0()
    assert (p0.trace() - elt(30)).is_zero_at_cap()
    assert (p0.det() - elt(3)).is_zero_at_cap()
    assert check_axioms(wp).ok


def test_deform_substitutes_each_series_once(monkeypatch):
    # the seed's gamma(P) serves the solver and its re-verification, the seed's
    # phi(G) its re-verification and correct_gamma, gamma(P') correct_gamma and
    # the deformed module's re-verification: each is computed once
    computed = []   # holds each series, so no id is reused
    real = series._substitute

    def spy(f, c):
        computed.append((f, c))
        return real(f, c)

    monkeypatch.setattr(series, "_substitute", spy)
    w = seed_k2()
    wp, cert = deform_trace(w, elt(30), 1)
    assert cert.ok
    counts = Counter((id(f), c) for f, c in computed)
    assert max(counts.values()) == 1
    for m, c in ((w.P, 2), (w.G, 3), (wp.P, 2)):
        assert all(counts[id(f), c] == 1 for f in m.entries())


def test_deform_bound_refused():
    w = seed_k2()
    with pytest.raises(BoundViolated):
        deform_trace(w, elt(12), 1)          # v(9) = 2 < 3


def test_deform_round_trip_congruence():
    w = seed_k2()
    wp, cert = deform_trace(w, elt(30), 1)
    assert cert.ok
    back, cert2 = deform_trace(wp, elt(3), 1)
    assert cert2.ok
    assert (back.P - w.P).min_val_or_cap() >= 1
    assert (back.G - w.G).min_val_or_cap() >= 1


def test_deform_level_validation():
    w = seed_k2()
    with pytest.raises(DomainError):
        deform_trace(w, elt(30), 0)
    with pytest.raises(DomainError):
        deform_trace(w, elt(30), Fraction(2, 3))


def test_deform_other_prime():
    params = PadicParams(5, 1, 24)
    w = seed_companion(params, k=2, a_p=PadicElt.from_int(params, 5),
                       chi_gamma=2, nx=12)
    wp, cert = deform_trace(w, PadicElt.from_int(params, 5 + 125), 1)
    assert cert.ok
    assert cert.bound_required == 3


def test_deform_random_weight2_family():
    rng = random.Random(7)
    for _ in range(5):
        a = 3 * rng.randrange(1, 40)
        if a % 9 == 0:
            a += 3                            # keep v(a_p) = 1
        w = seed_k2(a=a, nx=12, prec=26)
        ap_new = a + 27 * rng.randrange(1, 10)
        wp, cert = deform_trace(w, elt(ap_new, w.params), 1)
        assert cert.ok, (a, ap_new)


@pytest.mark.parametrize("a, ap_new", [(3, 30), (9, 495)])
@pytest.mark.parametrize("b", [(1, 1, 0, 1), (2, 1, 1, 1), (1, 0, 3, 1)])
def test_deform_conjugated_seed_certifies(b, a, ap_new):
    # B P B^-1 and B G B^-1 for a constant B of det 1 is the seed in another
    # basis, whose P(0) is no companion matrix; the rank-one H0 deforms it
    from wachdeform.wach import WachData

    w = seed_k2(a=a)
    basis = _const_series(mat(*b), w.nx)
    inverse = _const_series(mat(*b).adj(), w.nx)
    moved = WachData(params=w.params, k=w.k, a_p=w.a_p, chi_gamma=w.chi_gamma,
                     P=basis * w.P * inverse, G=basis * w.G * inverse)
    assert check_axioms(moved).ok
    assert not moved.P.eval0().a.is_zero_at_cap()   # (0 -1 / c d) is the companion shape
    wp, cert = deform_trace(moved, elt(ap_new), 1)
    assert cert.ok
    assert (wp.P.eval0().trace() - elt(ap_new)).is_zero_at_cap()


def test_deform_rejects_broken_module():
    from wachdeform.wach import WachData

    w = seed_k2()
    broken = WachData(params=w.params, k=w.k, a_p=elt(4), chi_gamma=w.chi_gamma,
                      P=w.P, G=w.G)
    with pytest.raises(DomainError):
        deform_trace(broken, elt(31), 1)


def test_certificate_serializes():
    w = seed_k2()
    _, cert = deform_trace(w, elt(30), 1)
    obj = cert.as_obj()
    text = json.dumps(obj)
    assert json.loads(text)["pass"] is True
    assert obj["bound_required"] == "3"
    assert obj["h_valuations"] == ["3", "3"]


# --------------------------------------------------------------------------- #
# converse bound
# --------------------------------------------------------------------------- #

def test_converse_bound_examples():
    assert converse_bound(3, alpha(3, 3, 2)) == 2
    assert converse_bound(1, alpha(3, 1, 2)) == 1
    assert converse_bound(4, alpha(3, 6, 2)) == 0   # m = alpha(k-1) is still informative


def test_converse_bound_precondition():
    with pytest.raises(PreconditionFails):
        converse_bound(3, alpha(3, 6, 2))  # alpha(6) = 4 > 3


def test_converse_consistent_with_passing_certificate():
    w = seed_k2()
    _, cert = deform_trace(w, elt(30), 1)
    threshold = converse_bound(1, alpha(3, 1, 2))
    assert cert.bound_observed >= threshold
