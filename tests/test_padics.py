"""Core ring arithmetic: canonical digits, caps, valuations, exp/log."""
from __future__ import annotations

import math
import random
import signal
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wachdeform.errors import (
    DivisionByNonUnit,
    DomainError,
    InexactDivision,
    OutOfConvergenceDomain,
    ParamMismatch,
    PrecisionExhausted,
    RamifiedUnsupported,
    ZeroInput,
)
from wachdeform import padics
from wachdeform.padics import (
    MAX_PREC_PI,
    PadicElt,
    PadicParams,
    ScaledElt,
    _canon,
    _digit_moduli,
    _pi_shift,
    _valpi_or_cap,
    _valpi_or_caps,
    binom_coeffs,
    pexp,
    plog,
    teichmuller_decompose,
    val,
    vp,
)

from qp_characters import QpMultChar

P3 = PadicParams(3, 1, 20)
P5 = PadicParams(5, 1, 12)
E2 = PadicParams(3, 2, 12)   # Z_3[pi]/(pi^2 - 3)


def fi(params, n, cap=None):
    return PadicElt.from_int(params, n, cap)


# --------------------------------------------------------------------------
# construction and canonical form
# --------------------------------------------------------------------------

def test_params_reject_bad_inputs():
    with pytest.raises(DomainError):
        PadicParams(4, 1, 10)           # not prime
    with pytest.raises(DomainError):
        PadicParams(2, 1, 10)           # even prime excluded
    with pytest.raises(DomainError):
        PadicParams(3, 0, 10)
    # p = pi^e is zero below cap e: no valuation of p is visible there
    assert PadicParams(3, 4, 4).e == 4
    with pytest.raises(PrecisionExhausted, match="ramification index 5 exceeds prec_pi 4"):
        PadicParams(3, 5, 4)


def test_canonical_digit_reduction():
    x = fi(P3, 30, cap=3)
    assert x.digits == (3,)


def test_canonical_digit_moduli_ramified():
    # digit j is reduced mod p^ceil((cap-j)/e)
    y = PadicElt(E2, [10, 29], 4)       # moduli 3^2, 3^2
    assert y.digits == (10 % 9, 29 % 9)
    z = PadicElt(E2, [10, 29], 3)       # moduli 3^2, 3^1
    assert z.digits == (1, 2)


@pytest.mark.parametrize("p, e, prec", [
    (3, 1, 1), (3, 1, 20), (3, 2, 12), (5, 2, 11), (7, 3, 10), (3, 5, 5), (5, 9, 9), (3, 64, 64),
    (3, MAX_PREC_PI, MAX_PREC_PI),
])
def test_digit_tables_match_the_modulus_formula(p, e, prec):
    # digit j known mod pi^c is known mod p^ceil((c - j)/e), 1 when c <= j; the
    # readers take it from one row of prec_pi + e moduli
    params = PadicParams(p, e, prec)
    row, log = params.digit_tables
    assert len(row) == prec + e
    # formula[e - 1 + t] = p^ceil(t/e) for -e < t <= prec
    formula = [p ** math.ceil(Fraction(t, e)) for t in range(1 - e, prec + 1)]
    assert formula[:e] == [1] * e
    caps = range(prec + 1)
    for j in range(e):   # one digit plane at every cap
        assert list(_digit_moduli(params, j, caps)) == formula[e - 1 - j:e + prec - j]
    less_one = [m - 1 for m in formula]
    for c in caps:       # every digit at one cap: -1 reduces to its modulus - 1
        assert _canon(params, [-1] * e, c) == less_one[c:c + e][::-1]
    assert [params.modulus(c) for c in caps] == formula[e - 1:]
    assert log == {p ** t: t for t in range(math.ceil(Fraction(prec, e)) + 1)}


@pytest.mark.parametrize("params", [P3, E2, PadicParams(3, 3, 9)], ids=["e1", "e2", "e3"])
def test_from_rational_is_the_rational_at_prec_pi(params):
    for q in (0, 1, -6, 9, Fraction(1, 2), Fraction(-27, 4), Fraction(3 ** 30, 5)):
        x = PadicElt.from_rational(params, q)
        assert x == ScaledElt.from_rational(params, q).to_padic()
        assert x.cap == params.prec_pi
    for q in (Fraction(1, 3), Fraction(-5, 9), Fraction(2, 3 ** 40)):
        with pytest.raises(DomainError) as info:
            PadicElt.from_rational(params, q)
        assert str(info.value) == f"{q} is not in Z_p (denominator divisible by p)"


def test_mul_example_inverse_pair():
    # 10 * 19 = 190 = 7*27 + 1
    assert (fi(P3, 10, 3) * fi(P3, 19, 3)).same_at_cap(fi(P3, 1, 3))


def test_unit_division_example():
    # 1/11 mod 27 is 5
    q = fi(P3, 1, 3).div_unit(fi(P3, 11, 3))
    assert q == fi(P3, 5, 3)
    assert q.cap == 3


def test_val_examples():
    assert val(fi(P3, 18)) == 2
    assert val(fi(P3, 0)) is None
    pi = PadicElt(E2, [0, 1], 12)
    assert val(pi) == Fraction(1, 2)
    assert val(pi * pi) == 1
    assert (pi * pi).same_at_cap(fi(E2, 3))


def test_vp_integers_and_rationals():
    assert vp(1, 3) == 0
    assert vp(54, 3) == 3
    assert vp(-54, 3) == 3
    assert vp(Fraction(18, 5), 3) == 2
    assert vp(Fraction(-5, 27), 3) == -3
    assert vp(Fraction(25, 3), 5) == 2
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroInput):
            vp(zero, 3)


@pytest.mark.parametrize("p", [0, 1, -1])
def test_vp_refuses_base_below_two(p):
    # 1 and -1 divide every integer, so an unguarded loop never ends: a timer
    # turns that hang into a failure
    def hang(signum, frame):
        raise TimeoutError(f"vp(., {p}) did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        for q in (3, Fraction(2, 3)):
            with pytest.raises(DomainError, match=f"got {p}$"):
                vp(q, p)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_param_mismatch_raises():
    with pytest.raises(ParamMismatch):
        fi(P3, 1) + fi(P5, 1)


# --------------------------------------------------------------------------
# cap propagation rules
# --------------------------------------------------------------------------

def test_add_cap_is_min():
    assert (fi(P3, 5, 7) + fi(P3, 4, 9)).cap == 7


def test_mul_cap_gains_valuation():
    x = fi(P3, 2, 10)
    y = fi(P3, 9, 10)          # valpi 2
    assert (x * y).cap == min(10 + 2, 10 + 0, P3.prec_pi)


def test_mul_cap_clipped_at_prec():
    x = fi(P3, 9, 20)
    y = fi(P3, 9, 20)
    assert (x * y).cap == 20   # not 22


def test_div_unit_cap_is_min():
    x = fi(P3, 9, 15)
    y = fi(P3, 7, 11)
    assert x.div_unit(y).cap == 11


def test_zero_at_cap_absorbs():
    z = fi(P3, 27, 3)          # zero at cap 3
    assert z.is_zero_at_cap()
    assert z.valpi() is None
    w = z * fi(P3, 5, 10)
    assert w.is_zero_at_cap()


def test_random_ring_laws():
    rng = random.Random(7)
    for _ in range(200):
        a = fi(P3, rng.randrange(-3**6, 3**6), rng.randrange(2, 20))
        b = fi(P3, rng.randrange(-3**6, 3**6), rng.randrange(2, 20))
        c = fi(P3, rng.randrange(-3**6, 3**6), rng.randrange(2, 20))
        assert ((a + b) + c).same_at_cap(a + (b + c))
        assert (a * (b + c)).same_at_cap(a * b + a * c)
        assert (a * b).same_at_cap(b * a)
        assert (a - a).is_zero_at_cap()


def test_random_ring_laws_ramified():
    rng = random.Random(11)
    for _ in range(100):
        a = PadicElt(E2, [rng.randrange(729), rng.randrange(729)], rng.randrange(2, 12))
        b = PadicElt(E2, [rng.randrange(729), rng.randrange(729)], rng.randrange(2, 12))
        c = PadicElt(E2, [rng.randrange(729), rng.randrange(729)], rng.randrange(2, 12))
        assert (a * (b * c)).same_at_cap((a * b) * c)
        assert (a * (b + c)).same_at_cap(a * b + a * c)


def test_valuation_additive_in_products():
    rng = random.Random(3)
    for _ in range(100):
        a = fi(P3, rng.randrange(1, 3**8) * 3 ** rng.randrange(0, 4))
        b = fi(P3, rng.randrange(1, 3**8) * 3 ** rng.randrange(0, 4))
        va, vb = val(a), val(b)
        if va is not None and vb is not None and va + vb < 20:
            assert val(a * b) == va + vb


# --------------------------------------------------------------------------
# inversion and exact division
# --------------------------------------------------------------------------

def test_invert_units_random():
    rng = random.Random(5)
    for params in (P3, P5, E2):
        for _ in range(50):
            d = [rng.randrange(3 ** 12) for _ in range(params.e)]
            d[0] = d[0] * params.p + rng.randrange(1, params.p)
            x = PadicElt(params, d, params.prec_pi)
            assert (x * x.invert()).same_at_cap(PadicElt.one(params))


def test_invert_nonunit_raises():
    with pytest.raises(DivisionByNonUnit):
        fi(P3, 6).invert()


def test_divide_exact_roundtrip():
    rng = random.Random(9)
    for _ in range(100):
        x = fi(P3, rng.randrange(1, 3**9))
        y = fi(P3, rng.randrange(1, 3**5) * 3 ** rng.randrange(0, 3))
        if y.valpi() is None:
            continue
        prod = x * y
        q = prod.divide_exact(y)
        assert q.same_at_cap(x.reduce_cap(q.cap))


def test_divide_exact_sharp_cap():
    # dividing p^5*u by p^2 keeps relative precision
    x = fi(P3, 3**5 * 2, 20)
    y = fi(P3, 9, 20)
    q = x.divide_exact(y)
    assert q.same_at_cap(fi(P3, 27 * 2, q.cap))
    assert q.cap == (5 - 2) + min(20 - 5, 20 - 2)


def test_pi_shift_roundtrip_ramified():
    x = PadicElt(E2, [4, 7], 8)
    up = x.pi_mul(3)
    assert val(up) == val(x) + Fraction(3, 2)
    back = up.pi_div_exact(3)
    assert back.same_at_cap(x.reduce_cap(back.cap))


def test_pi_div_exact_tests_divisibility_before_cap():
    # a nonzero x with v(x) < t is not divisible by pi^t, whatever its cap;
    # only a zero whose cap cannot absorb the shift lacks precision
    for params in (P3, E2):
        x = PadicElt.from_int(params, 3, 2 * params.e)      # v = e, cap 2e
        with pytest.raises(InexactDivision):
            x.pi_div_exact(2 * params.e)
        with pytest.raises(InexactDivision):
            x.pi_div_exact(3 * params.e)
        for cap in (1, 2):
            with pytest.raises(PrecisionExhausted):
                PadicElt.zero(params, cap).pi_div_exact(2)
        assert x.pi_div_exact(params.e).same_at_cap(PadicElt.one(params, params.e))


# --------------------------------------------------------------------------
# Teichmueller
# --------------------------------------------------------------------------

def test_teichmuller_of_two():
    v, omega, angle = teichmuller_decompose(fi(P3, 2))
    assert v == 0
    assert omega.same_at_cap(fi(P3, -1))
    assert angle.same_at_cap(fi(P3, -2))


def test_teichmuller_properties_random():
    rng = random.Random(13)
    one = PadicElt.one(P5)
    for _ in range(40):
        x = fi(P5, rng.randrange(1, 5**10) * 5 ** rng.randrange(0, 3))
        if x.valpi() is None:
            continue
        v, omega, angle = teichmuller_decompose(x)
        assert (omega ** (P5.p - 1)).same_at_cap(one)
        recomposed = (omega * angle).pi_mul(v)
        assert recomposed.same_at_cap(x)
        assert (angle - one).valpi_or_cap() >= 1


def test_teichmuller_rejects():
    with pytest.raises(RamifiedUnsupported):
        teichmuller_decompose(PadicElt(E2, [2, 0], 6))
    with pytest.raises(ZeroInput):
        teichmuller_decompose(fi(P3, 0, 5))


# --------------------------------------------------------------------------
# exp / log
# --------------------------------------------------------------------------

def test_exp_log_roundtrip_spec_value():
    x = fi(P3, 4, 20)
    y = pexp(plog(x))
    assert (y - x).valpi_or_cap() >= 18
    assert y.cap == 20


def test_log_multiplicative():
    rng = random.Random(17)
    for _ in range(40):
        a = fi(P3, 1 + 3 * rng.randrange(1, 3**8))
        b = fi(P3, 1 + 3 * rng.randrange(1, 3**8))
        lhs = plog(a * b)
        rhs = plog(a) + plog(b)
        assert lhs.same_at_cap(rhs)


def test_exp_additive():
    rng = random.Random(19)
    for _ in range(40):
        a = fi(P5, 5 * rng.randrange(1, 5**6))
        b = fi(P5, 5 * rng.randrange(1, 5**6))
        assert pexp(a + b).same_at_cap(pexp(a) * pexp(b))


def test_log_exp_domains():
    with pytest.raises(OutOfConvergenceDomain):
        plog(fi(P3, 2))            # v(x-1) = 0
    with pytest.raises(OutOfConvergenceDomain):
        pexp(fi(P3, 2))            # v(y) = 0 <= 1/(p-1)
    # exp needs v > 1/(p-1); for e=2, p=3 that means valpi(y) > 1
    with pytest.raises(OutOfConvergenceDomain):
        pexp(PadicElt(E2, [0, 1], 10))


def test_log_of_one_is_zero():
    assert plog(PadicElt.one(P3)).is_zero_at_cap()
    assert pexp(fi(P3, 0)).same_at_cap(PadicElt.one(P3))


def test_scaled_from_rational():
    half = ScaledElt.from_rational(P3, Fraction(1, 2))
    assert half.exp == 0
    assert (half.to_padic() * fi(P3, 2)).same_at_cap(PadicElt.one(P3))
    third = ScaledElt.from_rational(P3, Fraction(1, 3))
    assert third.exp == -1
    assert third.mul(ScaledElt.from_rational(P3, 3)).to_padic().same_at_cap(
        PadicElt.one(P3)
    )


def test_scaled_negative_exponent_not_integral():
    from wachdeform.errors import InexactDivision

    with pytest.raises(InexactDivision):
        ScaledElt.from_rational(P3, Fraction(1, 3)).to_padic()


def test_binom_coeffs_match_integers():
    s = fi(P3, 7)
    got = [PadicElt(P3, ds, cap) for ds, cap in binom_coeffs(s, 10)]
    for n, g in enumerate(got):
        assert g.same_at_cap(fi(P3, math.comb(7, n), g.cap))


def test_binom_coeffs_padic_argument():
    # C(s, n) for s = 1/2 in Z_3: compare against exact rationals
    s = ScaledElt.from_rational(P3, Fraction(1, 2)).to_padic()
    got = [PadicElt(P3, ds, cap) for ds, cap in binom_coeffs(s, 6)]
    acc = Fraction(1)
    for n in range(1, 7):
        acc = acc * (Fraction(1, 2) - (n - 1)) / n
        expect = ScaledElt.from_rational(P3, acc).to_padic()
        assert got[n].same_at_cap(expect.reduce_cap(got[n].cap))


def test_qp_mult_characters():
    z = ScaledElt.from_rational(P3, Fraction(2))
    mu = QpMultChar("mu", z=z)
    v = mu.evaluate(fi(P3, 9))
    assert v.to_padic().same_at_cap(fi(P3, 4))       # z^2
    assert mu.evaluate(fi(P3, 2)).to_padic().same_at_cap(PadicElt.one(P3))

    chi2 = QpMultChar("chi_power", exponent=2)
    got = chi2.evaluate(fi(P3, 2 * 9))
    assert got.to_padic().same_at_cap(fi(P3, 4))     # <18>^2 with unit part 2

    om = QpMultChar("omega_power", exponent=1)
    assert om.evaluate(fi(P3, 2)).to_padic().same_at_cap(fi(P3, -1))

    prod = QpMultChar("product", factors=(mu, chi2))
    expect = v.mul(chi2.evaluate(fi(P3, 9)))
    lhs = prod.evaluate(fi(P3, 9))
    assert lhs.to_padic().same_at_cap(expect.to_padic())


def test_mu_with_negative_valuation_value():
    # z = 1/3: evaluating at p gives pi-exponent -1
    mu = QpMultChar("mu", z=ScaledElt.from_rational(P3, Fraction(1, 3)))
    got = mu.evaluate(fi(P3, 3))
    assert got.exp == -1
    # shift lets callers evaluate at p^(-1): exponent +1
    got_inv = mu.evaluate(PadicElt.one(P3), vp_shift=-1)
    assert got_inv.exp == 1


def test_character_rejects_zero():
    mu = QpMultChar("mu", z=ScaledElt.from_rational(P3, 2))
    with pytest.raises(ZeroInput):
        mu.evaluate(fi(P3, 0, 5))


# --------------------------------------------------------------------------
# the integer kernel against element-by-element reference loops
# --------------------------------------------------------------------------
# The references below are teichmuller_decompose, plog, pexp and binom_coeffs
# written over PadicElt and ScaledElt, one element operation at a time.  The
# kernel must return the same digits and cap, or raise the same exception
# class, on mixed caps, at e = 1 and e = 2, inside and outside the domains.

def ref_teichmuller_decompose(x):
    if x.params.e != 1:
        raise RamifiedUnsupported("Teichmueller lift needs e = 1")
    v = x.valpi()
    if v is None:
        raise ZeroInput("cannot decompose zero at cap")
    u = x.pi_div_exact(v)
    w = u
    for _ in range(u.cap + 2):
        w_next = w ** x.params.p
        if w_next == w:
            break
        w = w_next
    else:
        raise PrecisionExhausted("Teichmueller iteration did not stabilize")
    angle = u.div_unit(w)
    if (angle - PadicElt.one(x.params, angle.cap)).is_unit():
        raise DomainError("angle component not in 1 + pZ_p")
    return v, w, angle


def _ilog(n, p):
    r = 0
    while n >= p:
        n //= p
        r += 1
    return r


def ref_plog(x):
    params = x.params
    z = x - PadicElt.one(params, x.cap)
    if z.is_zero_at_cap():
        return PadicElt.zero(params, z.cap)
    t = z.valpi()
    if t < 1:
        raise OutOfConvergenceDomain("v(x-1) < 1/e")
    e, p = params.e, params.p
    target = min(z.cap, params.prec_pi)
    u = z.pi_div_exact(t)
    acc = PadicElt.zero(params, target)
    un = PadicElt.one(params, u.cap)
    n = 1
    while True:
        if n >= e and n * t - e * (_ilog(n, p) + 1) >= target:
            break
        un = un * u
        vn = vp(n, p)
        if n * t - e * vn < 1:
            raise OutOfConvergenceDomain("series leaves the integral ring")
        mant = un.div_unit(PadicElt.from_int(params, n // p ** vn))
        if n % 2 == 0:
            mant = -mant
        acc = acc + mant.pi_mul(n * t - e * vn)
        n += 1
    return acc.reduce_cap(target)


def ref_pexp(y):
    params = y.params
    e, p = params.e, params.p
    if y.is_zero_at_cap():
        return PadicElt.one(params, y.cap)
    t = y.valpi()
    if t * (p - 1) <= e:
        raise OutOfConvergenceDomain("exp diverges")
    target = min(y.cap, params.prec_pi)
    u = y.pi_div_exact(t)
    fact_mod = p ** (-(-params.prec_pi // e) + 1)
    acc = PadicElt.one(params, target)
    un = PadicElt.one(params, u.cap)
    fact_unit, vpf = 1, 0
    n = 1
    while True:
        if n * (t * (p - 1) - e) + e >= target * (p - 1):
            break
        un = un * u
        vn = vp(n, p)
        vpf += vn
        fact_unit = fact_unit * (n // p ** vn) % fact_mod
        mant = un.div_unit(PadicElt.from_int(params, fact_unit))
        acc = acc + mant.pi_mul(n * t - e * vpf)
        n += 1
    return acc.reduce_cap(target)


def ref_div_int(cur, n):
    """cur / n for a nonzero integer n, carrying the p-power in the exponent."""
    params = cur.params
    v = vp(n, params.p)
    u = PadicElt.from_int(params, n // params.p ** v)
    return ScaledElt(cur.mantissa.div_unit(u), cur.exp - params.e * v)


def ref_binom_coeffs(s, n_max):
    params = s.params
    out = [PadicElt.one(params)]
    cur = ScaledElt(PadicElt.one(params))
    for n in range(1, n_max + 1):
        cur = ref_div_int(cur.mul(s - PadicElt.from_int(params, n - 1)), n)
        if not cur.is_zero_at_floor() and cur.exp < 0:
            raise InexactDivision(f"C(s,{n}) not integral")
        out.append(cur.to_padic())
    return out


def outcome(fn, *args):
    """Digits and cap of every element returned, or the exception class raised."""
    try:
        got = fn(*args)
    except Exception as exc:    # the class is the outcome compared
        return type(exc)
    items = got if isinstance(got, (list, tuple)) else [got]
    return [(x.digits, x.cap) if isinstance(x, PadicElt) else x for x in items]


KERNEL_RINGS = [PadicParams(3, 1, 12), PadicParams(5, 1, 8), PadicParams(3, 2, 12),
                PadicParams(5, 2, 9)]


@st.composite
def ring_elt(draw, params, v_max=4):
    """pi^v * u with u any digits (a unit or not), at a cap from 1 to prec_pi."""
    cap = draw(st.integers(1, params.prec_pi))
    v = draw(st.integers(0, v_max))
    bound = params.p ** params.prec_pi
    u = draw(st.lists(st.integers(-bound, bound), min_size=params.e, max_size=params.e))
    return PadicElt(params, u, params.prec_pi).pi_mul(v).reduce_cap(cap)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_log_exp_kernel_matches_reference(data):
    params = data.draw(st.sampled_from(KERNEL_RINGS))
    x = data.draw(ring_elt(params))
    one_plus = PadicElt.one(params, x.cap) + x
    assert outcome(plog, one_plus) == outcome(ref_plog, one_plus)
    assert outcome(pexp, x) == outcome(ref_pexp, x)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_binom_kernel_matches_reference(data):
    params = data.draw(st.sampled_from(KERNEL_RINGS))
    s = data.draw(ring_elt(params, v_max=2))
    n_max = data.draw(st.integers(0, 14))
    assert outcome(binom_coeffs, s, n_max) == outcome(ref_binom_coeffs, s, n_max)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_teichmuller_kernel_matches_reference(data):
    params = data.draw(st.sampled_from(KERNEL_RINGS))
    x = data.draw(ring_elt(params, v_max=3))
    assert outcome(teichmuller_decompose, x) == outcome(ref_teichmuller_decompose, x)


def test_binom_coeffs_canonicalises_once_per_term(monkeypatch):
    # the digit-list loop, at e = 2; s is built before the patch, so that its
    # own canonicalisation is not counted
    s = PadicElt.from_int(PadicParams(3, 2, 20), 7)
    calls = []
    canon = padics._canon
    monkeypatch.setattr(padics, "_canon", lambda *a: calls.append(1) or canon(*a))
    binom_coeffs.cache_clear()    # a cached result would canonicalise nothing
    binom_coeffs(s, 21)
    assert len(calls) == 7        # once for each nonzero C(7, n), n >= 1


# --------------------------------------------------------------------------
# the bounded caches on plog and binom_coeffs: a hit returns what a fresh
# computation would, a raise is never cached, and the size stays at its bound
# --------------------------------------------------------------------------

@pytest.mark.parametrize("params", [PadicParams(3, 1, 12), PadicParams(3, 2, 12)],
                         ids=lambda q: f"e{q.e}")
def test_cached_results_repeat_the_reference(params):
    plog.cache_clear()
    binom_coeffs.cache_clear()
    for _ in range(2):    # equal arguments built afresh each time
        x = PadicElt(params, [1, 3][:params.e], params.prec_pi)   # 1 + pi at e = 2
        s = PadicElt(params, [7, 0][:params.e], 9)
        assert outcome(plog, x) == outcome(ref_plog, x)
        assert outcome(binom_coeffs, s, 9) == outcome(ref_binom_coeffs, s, 9)
    assert plog.cache_info().hits == binom_coeffs.cache_info().hits == 1


def test_cached_elements_of_equal_rings_share_one_row():
    # each entry keeps its element's ring alive: 16 entries on fresh, equal
    # PadicParams(3, 1, 1024) once held 16 rows of moduli, 3.34 MB, where one
    # row is about 0.21 MB
    plog.cache_clear()
    padics._digit_tables.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for n in range(1, 17):
            plog(fi(PadicParams(3, 1, 1024), 1 + 3 * n))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert plog.cache_info().currsize == 16
    assert held < 500_000, held


@pytest.mark.parametrize("fn, args, raised", [
    (plog, (fi(P3, 2),), OutOfConvergenceDomain),                          # v(2 - 1) = 0
    (binom_coeffs, (PadicElt(E2, [0, 1], E2.prec_pi), 5), InexactDivision),  # pi is not in Z_3
], ids=["plog", "binom_coeffs"])
def test_cached_functions_raise_again(fn, args, raised):
    fn.cache_clear()
    for _ in range(2):
        assert outcome(fn, *args) is raised
    assert fn.cache_info().currsize == 0 and fn.cache_info().misses == 2


@pytest.mark.parametrize("fn, args", [
    (plog, lambda n: (fi(P3, 1 + 3 * n),)),
    (binom_coeffs, lambda n: (fi(P3, n), 2)),
], ids=["plog", "binom_coeffs"])
def test_cached_functions_stay_at_their_bound(fn, args):
    fn.cache_clear()
    bound = fn.cache_info().maxsize
    for n in range(bound + 5):
        fn(*args(n))
    assert fn.cache_info().currsize == bound


# --------------------------------------------------------------------------
# the valuation helper against the division loop it replaced, on canonical
# and unreduced digits (negative, multiples of the modulus, zero)
# --------------------------------------------------------------------------

def ref_valpi_or_cap(params, ds, cap):
    v = cap
    for j, d in enumerate(ds):
        if d:
            w = j + params.e * vp(d, params.p)
            if w < v:
                v = w
    return v


@st.composite
def raw_digits(draw, params):
    """Digits of any size and sign, as a running product leaves them."""
    cap = draw(st.integers(1, params.prec_pi))
    digits = []
    for j in range(params.e):
        kind = draw(st.sampled_from(["zero", "any", "power", "modulus"]))
        unit = draw(st.integers(1, params.p ** 6).filter(lambda u: u % params.p))
        sign = draw(st.sampled_from([1, -1]))
        if kind == "zero":
            digits.append(0)
        elif kind == "any":
            digits.append(draw(st.integers(-params.p ** 40, params.p ** 40)))
        elif kind == "power":
            digits.append(sign * unit * params.p ** draw(st.integers(0, 30)))
        else:   # a multiple of this digit's modulus at cap: zero at cap
            digits.append(sign * unit * params.p ** max(0, -(-(cap - j) // params.e)))
    return digits, cap


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(KERNEL_RINGS).flatmap(lambda params: st.tuples(
    st.just(params), st.lists(raw_digits(params), min_size=1, max_size=6))))
def test_valpi_or_cap_matches_division_loop(case):
    params, elts = case
    want = [ref_valpi_or_cap(params, ds, cap) for ds, cap in elts]
    assert [_valpi_or_cap(params, ds, cap) for ds, cap in elts] == want
    planes = [[ds[j] for ds, _ in elts] for j in range(params.e)]
    assert _valpi_or_caps(params, planes, [cap for _, cap in elts]) == tuple(want)


def test_pi_mul_at_or_past_the_cap_is_zero_without_the_power():
    # pi^t x for t >= its cap is zero there; p^t is not formed, so a shift of
    # 10^400 returns at once
    for params in (PadicParams(3, 1, 12), PadicParams(5, 2, 11)):
        for x in (PadicElt.from_int(params, 7, 5), PadicElt.one(params), PadicElt.zero(params, 3)):
            for t in range(1, 2 * params.prec_pi):
                cap = min(x.cap + t, params.prec_pi)
                ref = PadicElt(params, _pi_shift(params, x.digits, t), cap)
                assert (x.pi_mul(t).digits, x.pi_mul(t).cap) == (ref.digits, ref.cap)
            huge = x.pi_mul(10**400)
            assert (huge.digits, huge.cap) == ((0,) * params.e, params.prec_pi)
