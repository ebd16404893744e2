"""Companion seeds, axiom verification, and the on-disk module format."""
from __future__ import annotations

import copy
import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wachdeform import series
from wachdeform.errors import (
    DomainError,
    InexactDivision,
    MalformedFile,
    NeumannDivergence,
    ParamMismatch,
    PrecisionExhausted,
    SeedSingular,
    VersionMismatch,
    WachdeformError,
)
from wachdeform.padics import MAX_PREC_PI, MAX_PREC_X, PadicElt, PadicParams
from wachdeform.series import (
    Mat2,
    MatrixSeries,
    PadicSeries,
    cyclotomic_q,
    mat_frobenius,
    mat_gamma,
)
from wachdeform.wach import (
    WachData,
    _add_correction,
    _contract,
    _contraction_maps,
    _row,
    _summary,
    _times_q,
    _triples,
    check_axioms,
    default_nx,
    load_wach,
    save_wach,
    seed_companion,
)

from refs import KINDS, capped_elts, elt_view, kernel_view, ref_mul

P3 = PadicParams(3, 1, 20)
CHI = 2


def fi(n, params=P3):
    return PadicElt.from_int(params, n)


def seed_k2(params=P3, a=3, nx=16):
    return seed_companion(params, 2, fi(a, params), CHI, nx)


# --------------------------------------------------------------------------
# seeding: the weight-2 family (and a_p = 0) is where the companion basis
# admits an integral gamma-matrix; everything is re-verified from scratch here
# --------------------------------------------------------------------------

def test_seed_weight2_passes_axioms():
    w = seed_k2()
    report = check_axioms(w)
    assert report.ok
    assert report.commutation_defect_val == report.commutation_defect_cap


def test_seed_weight2_shape_pins():
    w = seed_k2()
    p0 = w.P.eval0()
    assert p0.a.is_zero_at_cap()
    assert (p0.b + fi(1)).is_zero_at_cap()
    assert (p0.c - fi(3)).is_zero_at_cap()
    assert (p0.d - fi(3)).is_zero_at_cap()
    # G starts at the identity and det(P) is the cyclotomic divisor on the nose
    assert w.G.eval0().same_at_cap(Mat2.identity(P3))
    assert (w.P.det() - cyclotomic_q(P3, w.nx)).is_zero_at_cap()


def test_seed_weight2_independent_commutation_check():
    # do not trust check_axioms: recompute P phi(G) - G gamma(P) directly
    w = seed_k2()
    defect = w.P * mat_frobenius(w.G) - w.G * mat_gamma(w.P, CHI)
    assert defect.is_zero_at_cap()
    assert defect.min_cap() >= 10  # drift stays near 1/(p-1) per x-order


@pytest.mark.parametrize("a", [3, 6, 9])
def test_seed_weight2_trace_family(a):
    assert check_axioms(seed_k2(a=a)).ok


@pytest.mark.parametrize("p", [5, 7])
def test_seed_weight2_other_primes(p):
    params = PadicParams(p, 1, 16)
    w = seed_companion(params, 2, fi(p, params), 2, 12)
    assert check_axioms(w).ok


def test_seed_deterministic():
    a = seed_k2()
    b = seed_k2()
    assert a.G.same_at_cap(b.G) and a.P.same_at_cap(b.P)
    for s, t in zip(
        (a.G.m11, a.G.m12, a.G.m21, a.G.m22),
        (b.G.m11, b.G.m12, b.G.m21, b.G.m22),
    ):
        assert [c.digits for c in s.coeffs] == [c.digits for c in t.coeffs]
        assert [c.cap for c in s.coeffs] == [c.cap for c in t.coeffs]


def test_seed_ap_zero_weight3():
    params = PadicParams(3, 1, 24)
    w = seed_companion(params, 3, PadicElt.zero(params), CHI, 16)
    assert check_axioms(w).ok
    p0 = w.P.eval0()
    assert p0.trace().is_zero_at_cap()
    assert (p0.det() - fi(9, params)).is_zero_at_cap()


def test_seed_random_small_traces():
    # any a_p with v(a_p) >= 1 works at weight 2; sample a few deterministically
    import random

    rng = random.Random(11)
    for _ in range(4):
        a = 3 * rng.randrange(1, 3**6)
        w = seed_companion(P3, 2, fi(a), CHI, 10)
        assert check_axioms(w).ok


# --------------------------------------------------------------------------
# axiom checker: negative cases
# --------------------------------------------------------------------------

def test_identity_gamma_matrix_fails_commutation():
    w = seed_k2()
    broken = WachData(
        params=P3, k=2, a_p=fi(3), chi_gamma=CHI,
        P=w.P, G=MatrixSeries.identity(P3, w.nx),
    )
    report = check_axioms(broken)
    assert not report.commutation_ok
    assert report.gamma_trivial_ok
    assert report.charpoly_ok
    assert report.commutation_defect_val < report.commutation_defect_cap


def test_scaled_p_keeps_det_breaks_charpoly():
    w = seed_k2()
    scaled = WachData(
        params=P3, k=2, a_p=fi(3), chi_gamma=CHI,
        P=MatrixSeries(*(series_scale(e, fi(1 + 3)) for e in w.P.entries())), G=w.G,
    )
    report = check_axioms(scaled)
    assert report.det_unit_ok  # det picked up the unit (1+p)^2
    assert not report.charpoly_ok  # trace is now (1+p) a_p
    # a constant scalar commutes with phi and gamma, so commutation survives
    assert report.commutation_ok


# --------------------------------------------------------------------------
# outside weight 2 the companion basis generically admits no integral
# gamma-matrix; the failing order is part of the reported error
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "k,a,prec,expect_order",
    [
        (3, 3, 30, 3),
        (3, 9, 30, 5),
        (4, 3, 30, 1),
        (4, 9, 34, 7),
        (7, 3, 40, 3),
        (17, 3, 60, 1),
    ],
)
def test_seed_nonintegral_reports_failing_order(k, a, prec, expect_order):
    params = PadicParams(3, 1, prec)
    with pytest.raises(SeedSingular) as err:
        seed_companion(params, k, fi(a, params), CHI, max(10, min(16, 2 * k)))
    assert err.value.order == expect_order


@pytest.mark.parametrize("e, cap", [(1, 6), (2, 12)])
def test_seed_nondivisible_at_low_cap_is_singular(e, cap):
    # at order 7 an entry of C adj(P0) is nonzero with v < e(k-1) while its cap
    # is at most e(k-1): provably not divisible, so SeedSingular, not a
    # precision failure
    params = PadicParams(3, e, cap)
    with pytest.raises(SeedSingular) as err:
        seed_companion(params, 4, fi(9, params), CHI)
    assert err.value.order == 7


def test_weight4_obstruction_witness():
    """Exact-rational re-derivation of the order-1 system at k=4, a_p=3.

    The commutation relation forces g12 * 2430 = 81 (chi - 1) with all other
    entries determined from g12, so for any unit chi != 1 mod 3 the unique
    solution has negative 3-adic valuation. This pins the SeedSingular above
    to a genuine non-existence, not a solver artifact.
    """
    chi = 2
    # order-1 data: P0 = ((0,-1),(27,3)), C1 = ((0,0),(81(1-chi),0))
    p0 = [[Fraction(0), Fraction(-1)], [Fraction(27), Fraction(3)]]
    c21 = Fraction(81 * (1 - chi))
    # solve X P0 - 3 P0 X = C for the four entries by elimination
    # (1,1): 27 x12 + 3 x21 = 0
    # (1,2): -x11 + 3 x12 + 3 x22 = 0
    # (2,2): -81 x12 - x21 - 6 x22 = 0
    # (2,1): -81 x11 - 9 x21 + 27 x22 = c21
    x12 = c21 / 2430
    x21 = -9 * x12
    x22 = -12 * x12
    x11 = 3 * x12 + 3 * x22
    lhs = [
        27 * x12 + 3 * x21,
        -x11 + 3 * x12 + 3 * x22,
        -81 * x11 - 9 * x21 + 27 * x22,
        -81 * x12 - x21 - 6 * x22,
    ]
    assert lhs == [0, 0, c21, 0]
    # 2430 = 2 * 3^5 * 5 while 81(1-chi) has valuation 4 for every generator
    assert x12.denominator % 3 == 0


# --------------------------------------------------------------------------
# the solver's integer kernels against their references
# --------------------------------------------------------------------------
# One element-level reference per kernel: `ref_contract` for `_contract`,
# `ref_update` for `_add_correction`, `ref_mul` (refs.py) for `_times_q`.  Each
# is written over PadicElt / Mat2 values, so it reaches the integer helpers
# only through the element arithmetic that test_padics.py checks (`ref_update`
# also adds series, which test_series.py checks against element sums).  The
# kernel must agree with it on digits, caps, valuations, support, and exception
# class and message.  Operands mix exact zeros, zeros known to a low cap and
# nonzero elements at every cap, over e = 1 and e = 2.

def ref_contract(p0, adj0, c, k, j, not_divisible, diverged):
    params = p0.a.params
    try:
        r0 = Mat2(*(x.pi_div_exact(params.e * (k - 1)) for x in (c * adj0).entries()))
    except InexactDivision as exc:
        raise not_divisible(j, exc) from exc
    except PrecisionExhausted as exc:
        raise PrecisionExhausted(f"order {j}: {exc}") from exc
    scale = PadicElt.from_int(params, params.p ** (j - k + 1))
    sweeps = params.prec_pi + 2
    s = r0
    for _ in range(sweeps):
        s_next = r0 + Mat2(*(x * scale for x in (p0 * s * adj0).entries()))
        if s_next == s:
            return s
        s = s_next
    raise diverged(j, sweeps)


def series_scale(f, c):
    """f c coefficient by coefficient (the removed PadicSeries.scale)."""
    return PadicSeries(f.params, [a * c for a in f.coeffs], f.nx)


def ref_right_mul_mat(a, m):
    return MatrixSeries(
        series_scale(a.m11, m.a) + series_scale(a.m12, m.c),
        series_scale(a.m11, m.b) + series_scale(a.m12, m.d),
        series_scale(a.m21, m.a) + series_scale(a.m22, m.c),
        series_scale(a.m21, m.b) + series_scale(a.m22, m.d),
    )


def ref_left_mul_mat(a, m):
    return MatrixSeries(
        series_scale(a.m11, m.a) + series_scale(a.m21, m.b),
        series_scale(a.m12, m.a) + series_scale(a.m22, m.b),
        series_scale(a.m11, m.c) + series_scale(a.m21, m.d),
        series_scale(a.m12, m.c) + series_scale(a.m22, m.d),
    )


def ref_shift_up(a, j):
    """x^j a, known mod x^(nx + j)."""
    zeros = [PadicElt.zero(a.params)] * j
    return MatrixSeries(*(PadicSeries(s.params, zeros + list(s.coeffs), s.nx + j)
                          for s in a.entries()))


def ref_update(defect, pq, gamma_p, s, j):
    n = defect.nx - j
    return defect + ref_shift_up(
        ref_right_mul_mat(pq, s) - ref_left_mul_mat(gamma_p.reduce_nx(n), s), j
    )


KERNEL_RINGS = [
    PadicParams(3, 1, 9), PadicParams(5, 1, 7), PadicParams(3, 2, 9), PadicParams(3, 2, 5),
]
P9 = KERNEL_RINGS[0]
ONE = PadicElt.one(P9)
SHORT = PadicElt(P9, [1], P9.prec_pi - 1)   # a unit one digit short: its bounds read prec_pi - 1


def kernel_mats(params, factor=1, kinds=KINDS):
    return st.builds(Mat2, *[capped_elts(params, factor, kinds)] * 4)


def kernel_series(params, nx):
    elts = st.lists(capped_elts(params), min_size=nx, max_size=nx)
    return st.builds(lambda cs: PadicSeries(params, cs, nx), elts)


def kernel_matrix_series(params, nx):
    return st.builds(MatrixSeries, *[kernel_series(params, nx)] * 4)


def outcome(fn):
    """Entries as (digits, cap, valpi-or-cap), or the raised class and message."""
    try:
        m = fn()
    except WachdeformError as exc:
        return type(exc).__name__, str(exc)
    return [(tuple(ds), cap, v) for ds, cap, v in (m if isinstance(m, list) else _triples(m))]


@st.composite
def contraction_case(draw):
    params = draw(st.sampled_from(KERNEL_RINGS))
    k = draw(st.integers(2, 3))
    # j = k - 1 takes the factor p^0: that sweep need not contract
    j = draw(st.sampled_from([k - 1, k, k, k + 1, k + 3]))
    # [[0, 1], [1, 1]] is a unit of infinite order: at j = k - 1 its sweep cycles
    fib = Mat2(*(PadicElt.from_int(params, n) for n in (0, 1, 1, 1)))
    p0 = draw(st.one_of(kernel_mats(params), st.just(fib)))
    rhs = draw(st.sampled_from(["divisible", "any", "zero"]))
    if rhs == "zero":   # zero at its caps; R0 keeps a digit only where cap > e(k-1)
        c = Mat2(*(PadicElt.zero(params, draw(st.integers(1, params.prec_pi)))
                   for _ in range(4)))
    else:
        c = draw(kernel_mats(params, params.p ** (k - 1) if rhs == "divisible" else 1))
    return params, p0, c, k, j


def not_divisible(j, exc):
    return SeedSingular(j, f"not divisible: {exc}")


def diverged(j, sweeps):
    return NeumannDivergence(f"order {j}: {sweeps} sweeps")


def contract_outcomes(case):
    """`outcome` of the kernel and of `ref_contract` on one contraction case."""
    params, p0, c, k, j = case
    got = outcome(lambda: _contract(
        params, _contraction_maps(p0), _triples(c), k, j, not_divisible, diverged
    ))
    return got, outcome(lambda: ref_contract(p0, p0.adj(), c, k, j, not_divisible, diverged))


def _bare(m):
    return [[list(map(list, f.planes)), list(f.caps)] for f in m.entries()]


def update_outcomes(case):
    """D after `_add_correction` and after `ref_update`, as [planes, caps] lists."""
    params, j, defect, pq, gamma_p, s = case
    got = _bare(defect)
    _add_correction(params, got, [_row(f) for f in pq.entries()],
                    [_summary(params, _row(f)) for f in gamma_p.entries()], _triples(s), j)
    return got, _bare(ref_update(defect, pq, gamma_p, s, j))


def row_series(params, row, n):
    """A row padded with exact zeros to x-order n, as a series whose support is
    the row's length."""
    planes, caps = row
    pad = n - len(caps)
    return PadicSeries._make(params, tuple(tuple(pl) + (0,) * pad for pl in planes),
                             tuple(caps) + (params.prec_pi,) * pad, len(caps))


def times_q_outcomes(case):
    """`_times_q` and `ref_mul` on f cut to x-order n times Q, coefficient by coefficient."""
    params, n, f = case
    q = cyclotomic_q(params, f.nx)
    qs = list(zip(q.planes[0], q._valuations()))[: params.p]
    got = row_series(params, _times_q(params, _row(f), qs, n), n)
    return kernel_view(got), elt_view(ref_mul(f.reduce_nx(n), q))


@settings(max_examples=200, deadline=None)
@given(contraction_case())
# an exact C with a unit entry against adj(P0) one digit short: only adj(P0)'s
# cap bounds R0
@example((P9, Mat2(ONE, fi(3, P9), fi(0, P9), fi(3, P9).reduce_cap(8)),
          Mat2(ONE, *[PadicElt.zero(P9)] * 3), 2, 2))
def test_contract_kernel_matches_reference(case):
    got, want = contract_outcomes(case)
    assert got == want


@st.composite
def update_case(draw):
    params = draw(st.sampled_from(KERNEL_RINGS))
    nx = draw(st.integers(2, 5))
    j = draw(st.integers(1, nx - 1))
    defect = draw(kernel_matrix_series(params, nx))
    pq = draw(kernel_matrix_series(params, nx - j))
    gamma_p = draw(kernel_matrix_series(params, nx))
    return params, j, defect, pq, gamma_p, draw(kernel_mats(params))


@settings(max_examples=80, deadline=None)
@given(update_case())
def test_defect_update_kernel_matches_reference(case):
    got, want = update_outcomes(case)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_RINGS).flatmap(
    lambda params: st.integers(2, 8).flatmap(
        lambda nx: st.tuples(st.just(params), st.integers(1, nx - 1), kernel_series(params, nx))
    )
))
def test_running_product_kernel_matches_reference(case):
    got, want = times_q_outcomes(case)
    assert got == want


# --------------------------------------------------------------------------
# the support-aware kernels.  Series entries carry exact-zero tails, may be
# whole exact zeros, may be exact (every cap prec_pi, so their bounds are
# skipped) or hold zeros known only below prec_pi, which still bind; P0 is
# exact or not, the right-hand side need not be divisible, and at j = k - 1
# the sweep need not contract.
# --------------------------------------------------------------------------

@st.composite
def tailed_series(draw, params, nx):
    """A head of coefficients, exact zeros after it; exact or not, the head may be empty."""
    head = draw(st.integers(0, nx))
    kinds = draw(st.sampled_from([KINDS, ("exact_zero", "full")]))
    return PadicSeries(params, draw(st.lists(capped_elts(params, 1, kinds),
                                             min_size=head, max_size=head)), nx)


def tailed_matrix_series(params, nx):
    return st.builds(MatrixSeries, *[tailed_series(params, nx)] * 4)


@st.composite
def support_contraction_case(draw):
    params, p0, c, k, j = draw(contraction_case())
    if draw(st.booleans()):   # an exact P0, whose bounds the sweep skips
        p0 = draw(kernel_mats(params, kinds=("exact_zero", "full")))
    return params, p0, c, k, j


E2 = KERNEL_RINGS[2]
E2_UNIT = PadicElt(E2, [1, 2], 7)
E2_P0 = Mat2(E2_UNIT, PadicElt.from_int(E2, 3), PadicElt(E2, [0, 1], 8), E2_UNIT)
E2_C = Mat2(PadicElt(E2, [0, 9], 9), PadicElt(E2, [9, 9], 9), PadicElt.zero(E2, 8),
            PadicElt(E2, [81, 0], 9))
FIB = Mat2(*(PadicElt.from_int(P9, n) for n in (0, 1, 1, 1)))


@settings(max_examples=200, deadline=None)
@given(support_contraction_case())
@example((P9, Mat2(SHORT, ONE, ONE, ONE), Mat2(*[PadicElt.from_int(P9, 3)] * 4), 2, 2))
@example((P9, FIB, Mat2(*[PadicElt.from_int(P9, 3)] * 4), 2, 1))   # j = k - 1: diverges
@example((E2, E2_P0, E2_C, 3, 4))                                   # inexact P0, e = 2
@example((E2, E2_P0, Mat2(*[PadicElt(E2, [0, 3], 9)] * 4), 3, 4))   # not divisible
# an exact P0 with R0's caps off the fixed point of the cap map: the caps fall
# in the first two sweeps and settle only in the third
@example((P9, Mat2(*(fi(n, P9) for n in (0, 2, 2, 2))),
          Mat2(PadicElt(P9, [3], 7), PadicElt.zero(P9, 3), PadicElt.zero(P9),
               PadicElt(P9, [9], 5)), 2, 2))
@example((E2, Mat2(PadicElt.zero(E2), PadicElt(E2, [2, 2], 9), PadicElt(E2, [2, 3], 9),
                   PadicElt(E2, [2, 9], 9)),
          Mat2(PadicElt(E2, [27, 27], 8), PadicElt.zero(E2, 3), PadicElt(E2, [0, 9], 9),
               PadicElt(E2, [9, 9], 9)), 2, 2))
def test_contract_matches_full_kernel(case):
    got, want = contract_outcomes(case)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_RINGS).flatmap(
    lambda params: st.integers(2, 8).flatmap(
        lambda nx: st.tuples(st.just(params), st.integers(1, nx - 1), tailed_series(params, nx))
    )
))
@example((P9, 3, PadicSeries(P9, [SHORT], 4)))
@example((P9, 3, PadicSeries(P9, [PadicElt.zero(P9, 8), ONE], 4)))
def test_times_q_matches_full_kernel(case):
    got, want = times_q_outcomes(case)
    assert got == want


@st.composite
def support_update_case(draw):
    params = draw(st.sampled_from(KERNEL_RINGS))
    nx = draw(st.integers(2, 6))
    j = draw(st.integers(1, nx - 1))
    defect = draw(kernel_matrix_series(params, nx))
    pq = draw(tailed_matrix_series(params, nx - j))
    gamma_p = draw(tailed_matrix_series(params, nx))
    return params, j, defect, pq, gamma_p, draw(kernel_mats(params))


@settings(max_examples=200, deadline=None)
@given(support_update_case())
@example((P9, 1, MatrixSeries.identity(P9, 3), MatrixSeries.identity(P9, 2),
          MatrixSeries.zero(P9, 3), Mat2(SHORT, ONE, ONE, ONE)))
@example((P9, 1, MatrixSeries.identity(P9, 3),
          MatrixSeries(*[PadicSeries(P9, [PadicElt.zero(P9, 8), ONE], 2)] * 4),
          MatrixSeries.zero(P9, 3), Mat2(ONE, ONE, ONE, ONE)))
@example((P9, 1, MatrixSeries.identity(P9, 3),
          MatrixSeries(*[PadicSeries(P9, [PadicElt.zero(P9, 8), ONE], 2)] * 4),
          MatrixSeries(*[PadicSeries(P9, [ONE, SHORT, PadicElt.zero(P9, 5)], 3)] * 4),
          Mat2(ONE, PadicElt.zero(P9, 4), ONE, SHORT)))
@example((E2, 2, MatrixSeries.identity(E2, 5),
          MatrixSeries(*[PadicSeries(E2, [E2_UNIT, PadicElt(E2, [3, 1], 9)], 3)] * 4),
          MatrixSeries(*[PadicSeries(E2, [PadicElt.one(E2), E2_UNIT], 5)] * 4),
          E2_C))
def test_add_correction_matches_full_kernel(case):
    got, want = update_outcomes(case)
    assert got == want


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------

def test_save_load_round_trip_bit_exact(tmp_path):
    w = seed_k2()
    path = tmp_path / "w.json"
    save_wach(w, path)
    back = load_wach(path)
    assert back.k == w.k and back.chi_gamma == w.chi_gamma
    assert back.params == w.params and back.nx == w.nx
    assert back.a_p.digits == w.a_p.digits and back.a_p.cap == w.a_p.cap
    for ms, mt in ((back.P, w.P), (back.G, w.G)):
        for s, t in zip(
            (ms.m11, ms.m12, ms.m21, ms.m22), (mt.m11, mt.m12, mt.m21, mt.m22)
        ):
            assert [c.digits for c in s.coeffs] == [c.digits for c in t.coeffs]
            assert [c.cap for c in s.coeffs] == [c.cap for c in t.coeffs]
    # saving the loaded copy reproduces the file byte for byte
    path2 = tmp_path / "w2.json"
    save_wach(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_over_a_longer_or_shorter_file_leaves_the_new_bytes(tmp_path):
    # the writer overwrites in place and cuts only a longer old tail
    small, large = seed_k2(nx=8), seed_k2(PadicParams(3, 1, 40), nx=24)
    want = {}
    for name, w in (("small", small), ("large", large)):
        save_wach(w, tmp_path / name)
        want[name] = (tmp_path / name).read_bytes()
    assert len(want["small"]) < len(want["large"])
    path = tmp_path / "w.json"
    for name, w in (("large", large), ("small", small), ("large", large)):
        save_wach(w, path)
        assert path.read_bytes() == want[name], name


def test_load_refuses_prec_x_past_the_maximum(tmp_path):
    # the default p = 3, k = 2 module (nx 32) padded with zero coefficients:
    # the (1+x)^c - 1 tables of a verify grow as nx^2
    params = PadicParams(3, 1, 37)
    w = seed_companion(params, 2, fi(3, params), CHI, 32)
    path = tmp_path / "w.json"
    save_wach(w, path)
    obj = json.loads(path.read_text())
    zero = {"cap": "37", "digits": ["0"]}
    for name in ("P", "G"):
        for row in obj[name]:
            for s in row:
                s += [zero] * (MAX_PREC_X + 1 - len(s))
    obj["prec_x"] = str(MAX_PREC_X + 1)
    path.write_text(json.dumps(obj))
    with pytest.raises(MalformedFile, match=f"^prec_x {MAX_PREC_X + 1} exceeds the maximum "
                                            f"{MAX_PREC_X}$"):
        load_wach(path)


@pytest.mark.parametrize("params", [P3, PadicParams(3, 2, 20)])
def test_save_refuses_chi_gamma_past_the_file_cap(tmp_path, params):
    # chi(gamma) is written at cap prec_pi: 2 + 3^20, or 2 + 3^10 at e = 2, would
    # be read back as 2, another generator
    chi = 2 + 3 ** -(-params.prec_pi // params.e)
    w = seed_companion(params, 2, fi(3, params), chi, 8)
    path = tmp_path / "w.json"
    with pytest.raises(DomainError, match="does not fit a file"):
        save_wach(w, path)
    assert not path.exists()
    save_wach(dataclasses.replace(w, chi_gamma=chi - 3), path)   # the largest that fits
    assert load_wach(path).chi_gamma == chi - 3


def test_axiom_report_cached_per_object(tmp_path):
    w = seed_k2()
    report = check_axioms(w)
    assert check_axioms(w) is report
    path = tmp_path / "w.json"
    save_wach(w, path)
    fresh = check_axioms(load_wach(path))
    assert fresh is not report
    assert fresh == report


def _lift(w, e, prec):
    """w over e digit planes at ring cap prec: the planes past the first zero,
    every cap c now min(c e, prec)."""
    params = PadicParams(w.params.p, e, prec)

    def elt(c):
        return PadicElt(params, [c.digits[0]] + [0] * (e - 1), min(c.cap * e, prec))

    def mat(m):
        return MatrixSeries(*(PadicSeries(params, map(elt, s.coeffs), s.nx) for s in m.entries()))

    return WachData(params, w.k, elt(w.a_p), w.chi_gamma, mat(w.P), mat(w.G))


def test_axiom_check_skips_zero_digit_planes(monkeypatch):
    # a series product once convolved all e^2 pairs of digit planes, zero or
    # not: 24 calls at e = 1, then 66, 906 and 14346 at e = 2, 8, 32.  At
    # e = prec_pi = MAX_PREC_PI every element is known mod p, as at e = 1, cap 1
    real = series._conv
    for nx, rings in ((8, [(1, 20), (2, 40), (8, 160), (32, 640)]),
                      (3, [(1, 1), (MAX_PREC_PI, MAX_PREC_PI)])):
        w, counts = seed_k2(nx=nx), []
        for e, prec in rings:
            check_axioms(_lift(w, e, prec))   # builds the substitution tables outside the count
            calls = []
            monkeypatch.setattr(series, "_conv", lambda *a: calls.append(a) or real(*a))
            report = check_axioms(_lift(w, e, prec))
            monkeypatch.undo()
            assert report.ok, (e, prec)
            counts.append(len(calls))
        assert counts == counts[:1] * len(rings), counts


def test_load_truncated_file(tmp_path):
    w = seed_k2()
    path = tmp_path / "w.json"
    save_wach(w, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(MalformedFile):
        load_wach(path)


def test_load_rejects_composite_p(tmp_path):
    w = seed_k2()
    path = tmp_path / "w.json"
    save_wach(w, path)
    obj = json.loads(path.read_text())
    obj["p"] = "4"
    path.write_text(json.dumps(obj))
    with pytest.raises(MalformedFile):
        load_wach(path)


def test_load_rejects_unknown_version(tmp_path):
    w = seed_k2()
    path = tmp_path / "w.json"
    save_wach(w, path)
    obj = json.loads(path.read_text())
    obj["format_version"] = "2"
    path.write_text(json.dumps(obj))
    with pytest.raises(VersionMismatch):
        load_wach(path)


def test_load_rejects_missing_field_and_bad_shape(tmp_path):
    w = seed_k2()
    path = tmp_path / "w.json"
    save_wach(w, path)
    obj = json.loads(path.read_text())
    del obj["a_p"]
    path.write_text(json.dumps(obj))
    with pytest.raises(MalformedFile):
        load_wach(path)
    save_wach(w, path)
    obj = json.loads(path.read_text())
    obj["P"] = obj["P"][0]  # not 2x2 any more
    path.write_text(json.dumps(obj))
    with pytest.raises(MalformedFile):
        load_wach(path)


def test_load_nonexistent_path(tmp_path):
    with pytest.raises(MalformedFile):
        load_wach(tmp_path / "missing.json")


@pytest.mark.parametrize("params, chi", [
    (P3, {"cap": "1", "digits": ["5"]}),            # 5 = 2 mod 3 once read at cap 1
    (P3, {"cap": "2", "digits": ["11"]}),           # 11 = 2 mod 9
    (P3, {"cap": "19", "digits": ["2"]}),           # one below prec_pi
    (PadicParams(3, 2, 20), {"cap": "20", "digits": ["2", "1"]}),   # 2 + pi
])
def test_load_rejects_inexact_chi_gamma(tmp_path, params, chi):
    # chi(gamma) is an integer the Gamma action raises (1 + x) to: a file that
    # only fixes it modulo a power of pi once loaded as some integer >= 2
    path = tmp_path / "w.json"
    save_wach(seed_k2(params), path)
    obj = json.loads(path.read_text())
    assert obj["chi_gamma"] == {"cap": "20", "digits": ["2"] + ["0"] * (params.e - 1)}
    obj["chi_gamma"] = chi
    text = json.dumps(obj)
    path.write_text(text)
    message = "chi_gamma must encode an integer: cap 20, no digits past the first"
    for load in (lambda: load_wach(path), lambda: ref_load_text(text)):
        with pytest.raises(MalformedFile, match=f"^{message}$"):
            load()


# --------------------------------------------------------------------------
# persistence against the PadicElt-per-coefficient save and load it replaced,
# kept here as references: the same bytes out, and on any file the same
# module in or the same exception class and message
# --------------------------------------------------------------------------

def ref_elt_obj(x):
    return {"digits": [str(d) for d in x.digits], "cap": str(x.cap)}


def ref_matrix_obj(m):
    return [[[ref_elt_obj(c) for c in s.coeffs] for s in row]
            for row in ((m.m11, m.m12), (m.m21, m.m22))]


def ref_save_text(w):
    obj = {
        "format_version": "1",
        "p": str(w.params.p),
        "e": str(w.params.e),
        "k": str(w.k),
        "prec_pi": str(w.params.prec_pi),
        "prec_x": str(w.nx),
        "chi_gamma": ref_elt_obj(PadicElt.from_int(w.params, w.chi_gamma)),
        "a_p": ref_elt_obj(w.a_p),
        "P": ref_matrix_obj(w.P),
        "G": ref_matrix_obj(w.G),
    }
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def ref_int(v):
    """A JSON int other than a bool, or a string of ASCII digits with an optional '-'."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise TypeError(f"{v!r} is neither an int nor a string")
    if isinstance(v, str) and not (v.isascii() and v.removeprefix("-").isdigit()):
        raise ValueError(f"{v!r} is not decimal text")
    return int(v)


def ref_req_int(obj, key):
    try:
        return ref_int(obj[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"field {key!r} missing or not an integer string") from exc


def ref_elt_from(obj, params, where):
    try:
        if not isinstance(obj["digits"], list):
            raise TypeError("digits is not a list")
        digits = [ref_int(d) for d in obj["digits"]]
        cap = ref_int(obj["cap"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"{where}: bad element encoding") from exc
    if len(digits) != params.e:
        raise MalformedFile(f"{where}: expected {params.e} digits, got {len(digits)}")
    if not 1 <= cap <= params.prec_pi:
        raise MalformedFile(f"{where}: cap {cap} outside [1, {params.prec_pi}]")
    return PadicElt(params, digits, cap)


def ref_series_from(arr, params, nx, where):
    if not isinstance(arr, list) or len(arr) != nx:
        raise MalformedFile(f"{where}: expected {nx} coefficients")
    return PadicSeries(
        params, [ref_elt_from(o, params, f"{where}[{i}]") for i, o in enumerate(arr)], nx
    )


def ref_matrix_from(arr, params, nx, where):
    if (
        not isinstance(arr, list)
        or len(arr) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in arr)
    ):
        raise MalformedFile(f"{where}: expected a 2x2 array")
    return MatrixSeries(*(
        ref_series_from(arr[i][j], params, nx, f"{where}[{i}][{j}]")
        for i in (0, 1) for j in (0, 1)
    ))


def ref_load_text(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFile(
            f"invalid structured text at line {exc.lineno} column {exc.colno}"
        ) from exc
    if not isinstance(obj, dict):
        raise MalformedFile("top level is not an object")
    version = obj.get("format_version")
    if version != "1":
        raise VersionMismatch(f"format_version {version!r}, supported: 1")
    p, e = ref_req_int(obj, "p"), ref_req_int(obj, "e")
    prec_pi, nx, k = ref_req_int(obj, "prec_pi"), ref_req_int(obj, "prec_x"), ref_req_int(obj, "k")
    try:
        params = PadicParams(p, e, prec_pi)
    except (DomainError, PrecisionExhausted) as exc:
        raise MalformedFile(f"bad ring parameters: {exc}") from exc
    if k < 2:
        raise MalformedFile(f"weight k must be >= 2, got {k}")
    if nx < 2:
        raise MalformedFile(f"prec_x must be >= 2, got {nx}")
    chi_elt = ref_elt_from(obj.get("chi_gamma"), params, "chi_gamma")
    if chi_elt.cap != prec_pi or any(chi_elt.digits[1:]):
        raise MalformedFile(
            f"chi_gamma must encode an integer: cap {prec_pi}, no digits past the first"
        )
    chi = chi_elt.digits[0]
    if chi < 2:
        raise MalformedFile(f"chi_gamma must encode an integer >= 2, got {chi}")
    a_p = ref_elt_from(obj.get("a_p"), params, "a_p")
    P = ref_matrix_from(obj.get("P"), params, nx, "P")
    G = ref_matrix_from(obj.get("G"), params, nx, "G")
    return WachData(params=params, k=k, a_p=a_p, chi_gamma=chi, P=P, G=G)


def module_fields(w):
    return (w.params, w.k, w.chi_gamma, w.a_p.digits, w.a_p.cap,
            [(s.planes, s.caps) for s in w.P.entries() + w.G.entries()])


def load_outcome(fn):
    try:
        return module_fields(fn())
    except WachdeformError as exc:
        return type(exc).__name__, str(exc)


PERSIST_RINGS = [PadicParams(3, 1, 9), PadicParams(5, 1, 7), PadicParams(3, 2, 9)]


@st.composite
def stored_module(draw):
    params = draw(st.sampled_from(PERSIST_RINGS))
    nx = draw(st.integers(2, 4))
    entries = [draw(kernel_series(params, nx)) for _ in range(8)]
    return WachData(
        params=params, k=draw(st.integers(2, 9)), a_p=draw(capped_elts(params)),
        chi_gamma=draw(st.integers(2, 3 * params.p ** params.prec_pi)),
        P=MatrixSeries(*entries[:4]), G=MatrixSeries(*entries[4:]),
    )


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(allow_nan=False),
    st.sampled_from(["", "x", "-1", "0", "1", "2", "10", " 7 ", "1_0", "9" * 30, "1.5"]),
    st.lists(st.sampled_from(["0", "1", "5", "x"]), max_size=3),
    st.dictionaries(st.sampled_from(["digits", "cap"]), st.sampled_from(["1", "3", ["2"]])),
)


@st.composite
def mutated_text(draw, text, junk=JUNK):
    """The saved text with a few values replaced, removed or added, or cut short."""
    if draw(st.integers(0, 9)) == 0:
        return text[: draw(st.integers(0, len(text)))]
    obj = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        node, path = obj, []
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            path.append((node, key))
            node = node[key]
        if not path:
            continue
        parent, key = path[-1]
        action = draw(st.sampled_from(["replace", "replace", "delete", "append"]))
        # junk is copied: a sampled list or dict is one shared object, which a
        # later pass could append into, even into itself
        if action == "delete":
            del parent[key]
        elif action == "append" and isinstance(parent[key], list):
            parent[key].append(copy.deepcopy(draw(junk)))
        else:
            parent[key] = copy.deepcopy(draw(junk))
    return json.dumps(obj, indent=draw(st.sampled_from([None, 1])))


@settings(max_examples=50, deadline=None)
@given(stored_module())
def test_save_matches_reference_text(tmp_path_factory, w):
    path = tmp_path_factory.getbasetemp() / "saved.json"
    path.unlink(missing_ok=True)
    held = PadicElt.from_int(w.params, w.chi_gamma).digits[0]   # chi(gamma) at cap prec_pi
    if held != w.chi_gamma:
        with pytest.raises(DomainError, match="does not fit a file"):
            save_wach(w, path)
        assert not path.exists()
        if held < 2:
            return
        w = dataclasses.replace(w, chi_gamma=held)
    save_wach(w, path)
    assert path.read_text() == ref_save_text(w)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_load_matches_reference_on_mutated_files(tmp_path_factory, data):
    w = data.draw(stored_module())
    text = data.draw(mutated_text(ref_save_text(w)))
    # a fresh file for each example: truncating a non-empty file on open can
    # wait tens of ms on some file systems
    path = tmp_path_factory.mktemp("mutated") / "mutated.json"
    path.write_text(text)
    assert load_outcome(lambda: load_wach(path)) == load_outcome(lambda: ref_load_text(text))


# --------------------------------------------------------------------------
# container validation
# --------------------------------------------------------------------------

def test_wachdata_rejects_bad_weight_and_chi():
    w = seed_k2()
    with pytest.raises(DomainError):
        WachData(params=P3, k=1, a_p=fi(3), chi_gamma=CHI, P=w.P, G=w.G)
    with pytest.raises(DomainError):
        WachData(params=P3, k=2, a_p=fi(3), chi_gamma=1, P=w.P, G=w.G)


def test_wachdata_rejects_mismatched_precision():
    w = seed_k2()
    with pytest.raises(ParamMismatch):
        WachData(
            params=P3, k=2, a_p=fi(3), chi_gamma=CHI,
            P=w.P, G=w.G.reduce_nx(8),
        )


def test_default_nx_floor():
    assert default_nx(3, 2) == 32
    assert default_nx(3, 20) >= (3 - 1) * 19 + 2
