"""Series ring, substitutions, cyclotomic divisor, Weierstrass division."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wachdeform.errors import DomainError, PrecisionExhausted, WachdeformError
from wachdeform.padics import PadicElt, PadicParams
from wachdeform.series import (
    Mat2,
    MatrixSeries,
    PadicSeries,
    _int_binom,
    _subst_table,
    cyclotomic_q,
    div_distinguished,
    mat_frobenius,
    substitute_onepx_power,
)

from refs import capped_elts, elt_view, kernel_view, ref_mul

P3 = PadicParams(3, 1, 20)
P5 = PadicParams(5, 1, 12)
N = 16


def fi(n, params=P3):
    return PadicElt.from_int(params, n)


def rand_series(rng, params=P3, nx=N, bound=3**8):
    return PadicSeries(
        params, [fi(rng.randrange(-bound, bound), params) for _ in range(nx)], nx
    )


# --------------------------------------------------------------------------
# substitution examples
# --------------------------------------------------------------------------

def test_substitution_square():
    # (1+x)^2 - 1 = 2x + x^2
    x = PadicSeries.x(P3, 8)
    got = substitute_onepx_power(x, 2)
    assert got.same_at_cap(PadicSeries.from_ints(P3, [0, 2, 1], 8))


def test_frobenius_of_x_is_x_times_q():
    # phi(x) = (1+x)^3 - 1 = 3x + 3x^2 + x^3 at p = 3
    x = PadicSeries.x(P3, 8)
    got = substitute_onepx_power(x, 3)
    assert got.same_at_cap(PadicSeries.from_ints(P3, [0, 3, 3, 1], 8))
    assert got.same_at_cap(x * cyclotomic_q(P3, 8))


def test_cyclotomic_q_values():
    q3 = cyclotomic_q(P3, 8)
    assert [c.lift_int() for c in q3.coeffs[:4]] == [3, 3, 1, 0]
    q5 = cyclotomic_q(P5, 8)
    assert [c.lift_int() for c in q5.coeffs[:6]] == [5, 10, 10, 5, 1, 0]
    assert q3.eval0().same_at_cap(fi(3))


def test_phi_of_xj_is_xj_qj():
    q = cyclotomic_q(P3, N)
    for j in (1, 2, 3, 5):
        xj = PadicSeries.x(P3, N) ** j
        assert substitute_onepx_power(xj, 3).same_at_cap(xj * q ** j)


def test_phi_gamma_commute():
    rng = random.Random(4)
    for chi in (2, 5):
        f = rand_series(rng)
        phi_gamma = substitute_onepx_power(substitute_onepx_power(f, chi), 3)
        assert phi_gamma.same_at_cap(substitute_onepx_power(substitute_onepx_power(f, 3), chi))


def test_substitution_is_ring_hom():
    rng = random.Random(6)
    f, g = rand_series(rng), rand_series(rng)
    for c in (2, -1, 4):
        sf, sg = substitute_onepx_power(f, c), substitute_onepx_power(g, c)
        assert substitute_onepx_power(f * g, c).same_at_cap(sf * sg)
        assert substitute_onepx_power(f + g, c).same_at_cap(sf + sg)


def test_gamma_action_composes():
    # gamma_c(gamma_d(f)) = gamma_(cd)(f)
    rng = random.Random(8)
    f = rand_series(rng)
    lhs = substitute_onepx_power(substitute_onepx_power(f, 2), 5)
    rhs = substitute_onepx_power(f, 10)
    assert lhs.same_at_cap(rhs)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-200, 200), min_size=1, max_size=10), st.integers(2, 9))
def test_substitution_constant_term_fixed(ints, c):
    f = PadicSeries.from_ints(P3, ints, 12)
    assert substitute_onepx_power(f, c).eval0().same_at_cap(f.eval0())


# --------------------------------------------------------------------------
# matrices
# --------------------------------------------------------------------------

def rand_mat(rng, params=P3, nx=N):
    return MatrixSeries(*(rand_series(rng, params, nx) for _ in range(4)))


def test_matrix_algebra():
    rng = random.Random(12)
    A, B, C = rand_mat(rng), rand_mat(rng), rand_mat(rng)
    assert ((A * B) * C).same_at_cap(A * (B * C))
    assert (A * (B + C)).same_at_cap(A * B + A * C)
    assert (A.det() * B.det()).same_at_cap((A * B).det())
    prod = A.adj() * A
    d, z = A.det(), PadicSeries.zero(P3, N)
    det_id = MatrixSeries(d, z, z, d)
    assert prod.same_at_cap(det_id)


def test_matrix_inverse():
    # adj(A) / det(A) inverts A when det(A) has a unit constant term
    rng = random.Random(14)
    A = MatrixSeries(*(PadicSeries.x(P3, N) * s for s in rand_mat(rng).entries()))
    A = A + MatrixSeries.identity(P3, N)  # Id + x(...)
    d_inv = PadicSeries(P3, ref_invert(A.det()), N)
    inv = MatrixSeries(*(s * d_inv for s in A.adj().entries()))
    assert (A * inv).same_at_cap(MatrixSeries.identity(P3, N))


def test_mat_frobenius_entrywise():
    rng = random.Random(16)
    A = rand_mat(rng)
    F = mat_frobenius(A)
    assert F.m12.same_at_cap(substitute_onepx_power(A.m12, 3))


def test_constant_matrix_ops():
    a = Mat2(fi(1), fi(2), fi(3), fi(4))
    b = Mat2(fi(5), fi(6), fi(7), fi(8))
    assert (a * b).a.same_at_cap(fi(19))
    assert a.det().same_at_cap(fi(-2))
    assert (a.adj() * a).same_at_cap(Mat2(a.det(), fi(0), fi(0), a.det()))
    assert a.trace().same_at_cap(fi(5))


def test_shared_algebra_keeps_each_matrix_type():
    # one 2x2 algebra serves Mat2 and MatrixSeries: results keep the operand's type
    rng = random.Random(22)
    a, b = Mat2(fi(1), fi(2), fi(3), fi(4)), Mat2(fi(5), fi(6), fi(7), fi(8))
    A, B = rand_mat(rng), rand_mat(rng)
    for x, y, zero in ((a, b, Mat2.zero(P3)), (A, B, MatrixSeries.zero(P3, N))):
        for z in (x + y, x - y, -x, x * y, x.adj()):
            assert type(z) is type(x)
        assert (-x).same_at_cap(zero - x)
        assert (x + y - y).same_at_cap(x)
        assert (x * y).det().same_at_cap(x.det() * y.det())
        assert not x.same_at_cap(y)
    assert not hasattr(A, "__dict__")
    with pytest.raises(AttributeError):
        A.m11 = A.m12


# --------------------------------------------------------------------------
# Weierstrass division by distinguished polynomials
# --------------------------------------------------------------------------

def test_div_distinguished_reconstructs():
    rng = random.Random(18)
    q = cyclotomic_q(P3, N)
    for k in (2, 3, 4):
        d = 2 * (k - 1)
        dpoly = q ** (k - 1)
        g = rand_series(rng)
        r = PadicSeries(P3, [fi(rng.randrange(-80, 80)) for _ in range(d)], N)
        f = dpoly * g + r
        gg, rr = div_distinguished(f, dpoly, d)
        assert gg.same_at_cap(g.reduce_nx(gg.nx))
        for i in range(d):
            assert (rr.coeff(i) - r.coeff(i)).is_zero_at_cap()


def test_div_distinguished_exact_multiple_has_zero_remainder():
    q = cyclotomic_q(P3, N)
    dpoly = q * q
    f = dpoly * PadicSeries.from_ints(P3, [1, 7, 2, 9], N)
    g, r = div_distinguished(f, dpoly, 4)
    assert r.is_zero_at_cap()
    assert g.eval0().same_at_cap(fi(1, P3).reduce_cap(g.eval0().cap))


def test_div_distinguished_detects_nonmultiple():
    q = cyclotomic_q(P3, N)
    f = q * q + PadicSeries.one(P3, N)
    _, r = div_distinguished(f, q * q, 4)
    assert not r.is_zero_at_cap()


def test_div_distinguished_needs_room():
    q = cyclotomic_q(P3, 4)
    f = PadicSeries.one(P3, 4)
    with pytest.raises(PrecisionExhausted):
        div_distinguished(f, q ** 2, 4)


def test_div_distinguished_truncation_caps_are_honest():
    # beyond-truncation coefficients of g must not poison the known ones:
    # two f's agreeing mod x^N give the same reported digits
    rng = random.Random(20)
    q5 = cyclotomic_q(P5, 12)
    g1 = rand_series(rng, P5, 12)
    g2 = g1 + PadicSeries(P5, [PadicElt.zero(P5)] * 11 + [fi(1, P5)], 12)
    f1 = q5 * g1
    f2 = q5 * g2
    # f1 == f2 up to x^12 only in coefficients below 12 - deg adjustments
    gg1, rr1 = div_distinguished(f1, q5, 4)
    gg2, rr2 = div_distinguished(f2, q5, 4)
    if f1.same_at_cap(f2):
        assert gg1.same_at_cap(gg2)
        assert rr1.same_at_cap(rr2)


# --------------------------------------------------------------------------
# each kernel against its one reference
# --------------------------------------------------------------------------
# One element-level reference per kernel: `ref_mul` (refs.py) for the product,
# `ref_subst` for the substitution, `ref_div_distinguished` for the division;
# `ref_subst_table` builds the power tables with the product `ref_mul` checks.
# The element-level ones are written over PadicElt coefficients one at a time,
# so they reach the integer helpers only through the element arithmetic that
# test_padics.py checks.  A kernel must agree with its reference on digits,
# caps, valuations, support, and exception class and message, so the operands
# mix caps: exact zeros (cap prec_pi), zeros known only to a low cap, and
# nonzero coefficients at every cap.

def ref_subst(f, c):
    params, n = f.params, f.nx
    base = [
        PadicElt.from_int(params, math.prod(range(c - j + 1, c + 1)) // math.factorial(j))
        for j in range(1, n)
    ]
    u = PadicSeries(params, [PadicElt.zero(params)] + base, n)
    powers = [PadicSeries(params, [PadicElt.one(params)], n)]
    for _ in range(1, n):
        powers.append(PadicSeries(params, ref_mul(powers[-1], u), n))
    acc = [PadicElt.zero(params)] * n
    for i, ci in enumerate(f.coeffs):
        if not ci.is_zero_at_cap() or ci.cap < params.prec_pi:
            acc = [a + ci * b for a, b in zip(acc, powers[i].coeffs)]
    return acc


def ref_invert(f):
    """Inverse of a series with unit constant term (the removed PadicSeries.invert)."""
    inv0 = f.coeff(0).invert()
    out = [inv0]
    for n in range(1, f.nx):
        s = f.coeff(1) * out[n - 1]
        for i in range(2, n + 1):
            s = s + f.coeff(i) * out[n - i]
        out.append(-(s * inv0))
    return out


def digits_and_caps(xs):
    return [(x.digits, x.cap) for x in xs]


RINGS = [PadicParams(3, 1, 9), PadicParams(5, 1, 7), PadicParams(3, 2, 9)]


@st.composite
def series_pair(draw):
    params = draw(st.sampled_from(RINGS))
    nx = draw(st.integers(1, 7))
    elts = st.lists(capped_elts(params), min_size=nx, max_size=nx)
    f = PadicSeries(params, draw(elts), nx)
    g = PadicSeries(params, draw(elts), draw(st.integers(1, 7)))
    return f, g, draw(capped_elts(params))


@settings(max_examples=150, deadline=None)
@given(series_pair())
def test_kernel_matches_elementwise_reference(fgc):
    f, g, _ = fgc
    n = min(f.nx, g.nx)
    assert digits_and_caps((f * g).coeffs) == digits_and_caps(ref_mul(f, g))
    assert digits_and_caps((f + g).coeffs) == digits_and_caps(
        [a + b for a, b in zip(f.coeffs[:n], g.coeffs[:n])]
    )
    assert digits_and_caps((f - g).coeffs) == digits_and_caps(
        [a - b for a, b in zip(f.coeffs[:n], g.coeffs[:n])]
    )


@settings(max_examples=60, deadline=None)
@given(series_pair(), st.integers(-3, 9))
def test_substitution_matches_elementwise_reference(fgc, c):
    f = fgc[0]
    assert digits_and_caps(substitute_onepx_power(f, c).coeffs) == digits_and_caps(
        ref_subst(f, c)
    )


# --------------------------------------------------------------------------
# Weierstrass division and the substitution tables
# --------------------------------------------------------------------------

def ref_div_distinguished(f, dpoly, d):
    params = f.params
    if dpoly.nx < d + 1:
        raise PrecisionExhausted("divisor truncated below its own degree")
    top = dpoly.coeff(d)
    if not (top - PadicElt.one(params, top.cap)).is_zero_at_cap():
        raise DomainError("divisor is not monic of the stated degree")
    for j in range(d + 1, dpoly.nx):
        if not dpoly.coeff(j).is_zero_at_cap():
            raise DomainError("divisor has terms above its stated degree")
    lower = [dpoly.coeff(i) for i in range(d)]
    delta = min(c.valpi_or_cap() for c in lower) if d else params.prec_pi
    if delta < 1:
        raise DomainError("divisor is not distinguished (unit below top degree)")
    ng = f.nx - d
    if ng < 1:
        raise PrecisionExhausted("x-precision too small to divide by this degree")

    g = [None] * ng
    for j in range(ng - 1, -1, -1):
        acc = f.coeff(j + d)
        for i in range(d):
            jj = j + d - i
            if jj < ng and g[jj] is not None:
                acc = acc - lower[i] * g[jj]
        err = delta * (-(-(ng - j) // d))
        g[j] = acc.reduce_cap(min(acc.cap, err))

    r = []
    for i in range(d):
        acc = f.coeff(i)
        for j in range(0, min(i, ng - 1) + 1):
            acc = acc - lower[i - j] * g[j]
        err_r = delta * (1 + max(0, -(-(ng - d) // d)))
        r.append(acc.reduce_cap(min(acc.cap, err_r)))

    return PadicSeries(params, g, ng), PadicSeries(params, r, max(d, 1))


def ref_subst_table(params, nx, c):
    """The table from the powers of u taken with `ref_mul`: (planes, caps, valuations).

    The kernel's own product `_conv` builds `_subst_table`, so the reference
    must not reach it.
    """
    base = [PadicElt.from_int(params, _int_binom(c, j)) for j in range(1, nx)]
    u = PadicSeries(params, [PadicElt.zero(params)] + base, nx)
    powers = [PadicSeries.one(params, nx)]
    for _ in range(1, nx):
        powers.append(PadicSeries(params, ref_mul(powers[-1], u), nx))

    def columns(rows):
        return tuple([col[: k + 1] for k, col in enumerate(zip(*rows))])

    planes = tuple([columns([pw.planes[s] for pw in powers]) for s in range(params.e)])
    caps = columns([pw.caps for pw in powers])
    vals = columns([pw._valuations() for pw in powers])
    return planes, caps, vals


def series_outcome(fn, *args):
    """(planes, caps) of every series returned, or the raised class and message."""
    try:
        out = fn(*args)
    except WachdeformError as exc:
        return type(exc).__name__, str(exc)
    return [(s.planes, s.caps) for s in out]


@st.composite
def division_case(draw):
    params = draw(st.sampled_from(RINGS))
    d = draw(st.integers(1, 4))
    nx = draw(st.integers(1, 10))
    f = PadicSeries(params, draw(st.lists(capped_elts(params), min_size=nx, max_size=nx)), nx)
    # lower coefficients of positive valuation, at every cap
    lower = [x.pi_mul(1) for x in draw(st.lists(capped_elts(params), min_size=d, max_size=d))]
    top = PadicElt.one(params, draw(st.integers(1, params.prec_pi)))
    extra = [PadicElt.zero(params)] * draw(st.integers(0, 3))
    flaw = draw(st.sampled_from(["none", "none", "none", "unit", "not_monic", "high", "short"]))
    if flaw == "unit":
        lower[draw(st.integers(0, d - 1))] = PadicElt.one(params)
    elif flaw == "not_monic":
        top = PadicElt.from_int(params, 1 + params.p)
    elif flaw == "high":
        extra = extra + [draw(capped_elts(params))]
    coeffs = lower + [top] + extra
    if flaw == "short":
        coeffs = coeffs[: draw(st.integers(1, d))]
    return f, PadicSeries(params, coeffs, len(coeffs)), d


@settings(max_examples=300, deadline=None)
@given(division_case())
def test_division_kernel_matches_reference(case):
    f, dpoly, d = case
    assert series_outcome(div_distinguished, f, dpoly, d) == series_outcome(
        ref_div_distinguished, f, dpoly, d
    )


def test_division_kernel_matches_reference_on_det_checks():
    # the divisions check_axioms runs: det(P) of the seeds by Q^(k-1), and a
    # perturbed det whose remainder is nonzero
    for params, k in ((P3, 2), (PadicParams(3, 2, 30), 2), (P5, 3)):
        nx, d = 16, (params.p - 1) * (k - 1)
        qpow = cyclotomic_q(params, nx) ** (k - 1)
        rng = random.Random(k)
        f = qpow * rand_series(rng, params, nx, bound=params.p ** 4)
        for g in (f, f + PadicSeries.from_ints(params, [0, params.p], nx)):
            assert series_outcome(div_distinguished, g, qpow, d) == series_outcome(
                ref_div_distinguished, g, qpow, d
            )


def test_subst_table_matches_series_powers():
    # every integer exponent from -3 to 9, at e = 1 and 2: the table holds digit
    # plane 0 and the valuations of the powers of u, every other plane is zero,
    # and every power is exact
    build = _subst_table.__wrapped__    # bypass the cache: build every table
    for params in RINGS + [PadicParams(5, 2, 11)]:
        for nx in (1, 2, 3, 7, 11):
            for c in range(-3, 10):
                planes, caps, vals = ref_subst_table(params, nx, c)
                assert all(cap == params.prec_pi for col in caps for cap in col)
                assert not any(x for plane in planes[1:] for col in plane for x in col)
                assert build(params, nx, c) == (planes[0], vals), (params, nx, c)


# --------------------------------------------------------------------------
# the support-aware kernels.  Operands carry exact-zero tails, whole exact-zero
# series, zeros known only below prec_pi (which still bind) and exact series
# (every cap prec_pi), whose bounds are skipped.
# --------------------------------------------------------------------------

@st.composite
def tailed_series(draw, params, nx):
    """A head of capped coefficients, exact zeros after it; the head may be empty."""
    head = draw(st.integers(0, nx))
    if draw(st.booleans()):          # exact: every cap prec_pi
        elts = st.one_of(st.just(PadicElt.zero(params)), capped_elts(params).map(
            lambda x: PadicElt(params, x.digits, params.prec_pi)))
    else:
        elts = capped_elts(params)
    return PadicSeries(params, draw(st.lists(elts, min_size=head, max_size=head)), nx)


@st.composite
def tailed_pair(draw):
    params = draw(st.sampled_from(RINGS))
    nx = draw(st.integers(1, 8))
    f = draw(tailed_series(params, nx))
    return f, draw(tailed_series(params, draw(st.integers(1, 8))))


P9 = RINGS[0]
BIND = PadicElt(P9, [1], P9.prec_pi - 1)   # a unit one digit short: its bounds read prec_pi - 1


@settings(max_examples=300, deadline=None)
@given(tailed_pair())
@example((PadicSeries(P9, [BIND], 3), PadicSeries(P9, [PadicElt.one(P9)], 3)))
@example((PadicSeries(P9, [PadicElt.zero(P9, 8)], 2), PadicSeries(P9, [PadicElt.one(P9)], 2)))
def test_support_mul_matches_full_length_kernel(fg):
    f, g = fg
    assert kernel_view(f * g) == elt_view(ref_mul(f, g))
    assert kernel_view(g * f) == elt_view(ref_mul(g, f))


@settings(max_examples=100, deadline=None)
@given(tailed_pair(), st.integers(-3, 9))
def test_cached_substitution_equals_fresh(fg, c):
    f = fg[0]
    first = substitute_onepx_power(f, c)
    again = substitute_onepx_power(f, c)
    copy = PadicSeries._make(f.params, f.planes, f.caps)   # equal to f, nothing cached
    assert again is first
    assert kernel_view(first) == kernel_view(substitute_onepx_power(copy, c))


@settings(max_examples=150, deadline=None)
@given(tailed_pair(), st.integers(-3, 9))
@example((PadicSeries(P9, [BIND], 3), None), 2)
@example((PadicSeries(P9, [PadicElt.zero(P9, 8), PadicElt.one(P9)], 3), None), 2)
def test_support_subst_matches_full_length_kernel(fg, c):
    f = fg[0]
    assert kernel_view(substitute_onepx_power(f, c)) == elt_view(ref_subst(f, c))
