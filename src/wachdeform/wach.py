"""Wach-module data: construction from a companion seed, verification, storage.

A module is carried as a pair of 2x2 matrices over the truncated series ring:
P (the Frobenius matrix) and G (the matrix of the chosen Gamma-generator),
subject to

    G == Id mod x,
    det(P) = unit * Q^(k-1),
    P phi(G) = G gamma(P)        (checked to (x^nx, caps)),
    charpoly of P(0) = T^2 - a_p T + p^(k-1).

`seed_companion` builds (P, G) for the companion-form P order by order in
`_solve_orders`, the one solver of P phi(G) = G gamma(P), which
`deform.correct_gamma` shares: the order-j unknown satisfies a Sylvester-type
equation G_j P(0) - p^j P(0) G_j = C_j, solved by the contraction `_contract`
for j >= k and, in the seed, by direct elimination below that, with no
fallback when the low-order system is singular.

The solver loop runs on an integer kernel, not on PadicElt/PadicSeries
objects: each element is its digit list, its cap and its valpi-or-cap, each
series a bare row of digit planes and caps cut to its support; the
contraction and the per-order defect update carry the element cap rules of
`padics` exactly, and digits are reduced once per entry at the final cap.
At e = 1 the running product and the defect update carry each coefficient as
one int, its valuation log[gcd(d, p^cap)]; the digit-plane code is the path
at e > 1.  For an exact P(0), once the contraction's caps repeat, its sweeps
send the digits through one composed map.  The seeds, logs and exceptions are
those of the element arithmetic.
"""
from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd
from operator import mod, mul
from pathlib import Path

from .errors import (
    DomainError,
    InexactDivision,
    MalformedFile,
    ParamMismatch,
    PrecisionExhausted,
    SeedSingular,
    VersionMismatch,
)
from .padics import (
    MAX_PREC_X,
    PadicElt,
    PadicParams,
    _canon,
    _digit_moduli,
    _pi_div_digits,
    _valpi_or_cap,
    _valpi_or_caps,
)
from .series import (
    Mat2,
    MatrixSeries,
    PadicSeries,
    _trim,
    cyclotomic_q,
    div_distinguished,
    mat_frobenius,
    mat_gamma,
)

__all__ = [
    "WachData",
    "AxiomReport",
    "check_axioms",
    "seed_companion",
    "default_nx",
    "save_wach",
    "load_wach",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 1


# --------------------------------------------------------------------------- #
# data
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class WachData:
    """A candidate Wach module in a fixed basis."""

    params: PadicParams
    k: int
    a_p: PadicElt
    chi_gamma: int
    P: MatrixSeries
    G: MatrixSeries

    def __post_init__(self) -> None:
        if self.k < 2:
            raise DomainError(f"weight must be >= 2, got {self.k}")
        if self.chi_gamma < 2:
            raise DomainError("chi(gamma) must be an integer >= 2")
        if self.a_p.params != self.params:
            raise ParamMismatch("a_p over a different ring")
        if self.P.nx != self.G.nx:
            raise ParamMismatch("P and G have different x-precision")

    @property
    def nx(self) -> int:
        return self.P.nx

    @cached_property
    def _axiom_report(self) -> "AxiomReport":
        # every field is immutable, so one verification holds for the object's life
        return _run_axiom_checks(self)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the four structural checks, with honest defect levels.

    commutation_defect_val is the smallest valuation (v(p) = 1 units) seen in
    any coefficient of P phi(G) - G gamma(P); when every coefficient vanishes
    at its own cap this equals commutation_defect_cap and the check passes.
    """

    commutation_defect_val: Fraction
    commutation_defect_cap: Fraction
    commutation_ok: bool
    det_unit_ok: bool
    gamma_trivial_ok: bool
    charpoly_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.commutation_ok
            and self.det_unit_ok
            and self.gamma_trivial_ok
            and self.charpoly_ok
        )


# --------------------------------------------------------------------------- #
# verification
# --------------------------------------------------------------------------- #

def check_axioms(w: WachData) -> AxiomReport:
    """Brute-force verification of all module axioms at current precision.

    The report is computed once per object and cached on it; an equal module
    built or loaded separately is a new object and is checked from scratch.
    """
    return w._axiom_report


def _run_axiom_checks(w: WachData) -> AxiomReport:
    params, k = w.params, w.k
    e = params.e

    gamma_trivial_ok = (w.G.eval0() - Mat2.identity(params)).is_zero_at_cap()

    defect = w.P * mat_frobenius(w.G) - w.G * mat_gamma(w.P, w.chi_gamma)
    defect_val = Fraction(defect.min_val_or_cap(), e)
    defect_cap = Fraction(defect.min_cap(), e)
    commutation_ok = defect.is_zero_at_cap()

    det_unit_ok = _det_is_unit_times_qpow(w)

    p0 = w.P.eval0()
    # p^(k-1) is zero at cap once e(k - 1) reaches prec_pi: a weight read from a
    # file may be far larger than any power worth forming
    q = PadicElt.from_int(params, params.modulus(min(e * (k - 1), params.prec_pi)))
    charpoly_ok = (p0.trace() - w.a_p).is_zero_at_cap() and (
        p0.det() - q
    ).is_zero_at_cap()

    return AxiomReport(
        commutation_defect_val=defect_val,
        commutation_defect_cap=defect_cap,
        commutation_ok=commutation_ok,
        det_unit_ok=det_unit_ok,
        gamma_trivial_ok=gamma_trivial_ok,
        charpoly_ok=charpoly_ok,
    )


def _det_is_unit_times_qpow(w: WachData) -> bool:
    """det(P) = u * Q^(k-1) with u a unit of the series ring."""
    params, k = w.params, w.k
    d = (params.p - 1) * (w.k - 1)
    if d >= w.nx:   # Q^(k-1) is truncated below its degree: no division
        return False
    det = w.P.det()
    qpow = cyclotomic_q(params, w.nx) ** (k - 1)
    try:
        u, r = div_distinguished(det, qpow, d)
    except PrecisionExhausted:
        return False
    if not r.is_zero_at_cap():
        return False
    return u.eval0().is_unit()


# --------------------------------------------------------------------------- #
# companion seed
# --------------------------------------------------------------------------- #

def default_nx(p: int, k: int) -> int:
    """x-precision default: enough for 2k orders and for det/Q^(k-1) division."""
    return max(2 * k, 32, (p - 1) * (k - 1) + 2)


def _companion_p(params: PadicParams, k: int, a_p: PadicElt, nx: int) -> MatrixSeries:
    one = PadicSeries.one(params, nx)
    zero = PadicSeries.zero(params, nx)
    qpow = cyclotomic_q(params, nx) ** (k - 1)
    ap_series = PadicSeries(params, [a_p], nx)
    return MatrixSeries(zero, -one, qpow, ap_series)


def _solve_dense(
    params: PadicParams,
    m: list[list[PadicElt]],
    b: list[PadicElt],
    order: int,
) -> tuple[PadicElt, PadicElt]:
    """2x2 exact-division Gaussian solve with min-valuation pivoting."""
    pivot_val, pr, pc = min(
        (m[r][c].valpi_or_cap(), r, c) for r in (0, 1) for c in (0, 1)
    )
    if m[pr][pc].is_zero_at_cap():
        raise SeedSingular(order, f"system matrix vanishes at cap (order {order})")
    r1, c1 = 1 - pr, 1 - pc
    try:
        factor = m[r1][pc].divide_exact(m[pr][pc])
        coeff = m[r1][c1] - factor * m[pr][c1]
        rhs = b[r1] - factor * b[pr]
        if coeff.is_zero_at_cap():
            raise SeedSingular(order, f"eliminated system singular at order {order}")
        x_c1 = rhs.divide_exact(coeff)
        x_pc = (b[pr] - m[pr][c1] * x_c1).divide_exact(m[pr][pc])
    except InexactDivision as exc:
        raise SeedSingular(order, f"no integral solution at order {order}: {exc}") from exc
    sol = [None, None]
    sol[pc], sol[c1] = x_pc, x_c1
    return sol[0], sol[1]


def _solve_order_low(
    params: PadicParams, k: int, a_p: PadicElt, j: int, c: Mat2
) -> Mat2:
    """Solve S P0 - p^j P0 S = C for companion P0, order j < k.

    The companion shape makes two unknowns loss-free substitutions
    (S11, S21), leaving a 2x2 system in (S12, S22).
    """
    p = params.p
    q = p ** (k - 1)
    pj = p ** j

    def fi(n: int) -> PadicElt:
        return PadicElt.from_int(params, n)

    m = [
        [fi(q * (1 - pj * pj)), a_p.scale_int(pj * (1 - pj))],
        [a_p.scale_int(pj * q * (pj - 1)),
         fi(q * (1 - pj * pj)) - (a_p * a_p).scale_int(pj * (1 - pj))],
    ]
    b = [c.a + c.d.scale_int(pj), c.c - c.b.scale_int(pj * q) - (a_p * c.d).scale_int(pj)]
    s12, s22 = _solve_dense(params, m, b, j)
    s11 = a_p * s12 + s22.scale_int(pj) - c.b
    s21 = s22 * a_p.scale_int(1 - pj) - s12.scale_int(pj * q) - c.d
    return Mat2(s11, s12, s21, s22)


# --------------------------------------------------------------------------- #
# integer kernel of the order-by-order solver
# --------------------------------------------------------------------------- #
#
# The solver loop runs on integers with the element cap rules of `padics`
# carried exactly.  An element is a triple (digits, cap, v): its canonical
# digit list, its cap and its valpi-or-cap; a constant 2x2 matrix is a list of
# four triples, row-major.  A series is a row (digit planes, caps) cut to its
# support, after which every coefficient is an exact zero, so its products
# reach only as far as that (see the kernel comment of `series`).
#
# * a product x y has cap min(cap_x + v(y), cap_y + v(x), prec_pi);
# * a sum has the min of the caps;
# * p^t x has cap min(cap_x + e t, prec_pi);
# * x / pi^t is `padics._pi_div_digits`: InexactDivision for a nonzero x with
#   v(x) < t, else PrecisionExhausted when cap_x <= t; the quotient has cap
#   cap_x - t.
#
# A sum of products is summed from unreduced digits and reduced once, at its
# final cap, by `padics._digit_moduli`: a partial result reduced at its own,
# larger cap differs from it by a multiple of the final modulus, so the digits
# and caps are those of the Mat2/MatrixSeries arithmetic.
#
# Multiplication by a constant of O_E is linear on digits: x y has the digits
# M_x y for the e x e integer matrix M_x of `_mul_matrix`.  So the contraction
# runs on the flat digit vector of a 2x2 matrix (its entries row-major, e
# digits each), and S |-> P0 S, X |-> X adj(P0) and their composite are 4e x 4e
# integer matrices built once per solve.
#
# At e = 1 the digit planes are one list of ints, and `_times_q` and
# `_add_correction` work on it directly, with S's digit as its own multiplier
# and a row's valuations log[gcd(d, p^cap)], as the e = 1 arms of `padics` do.

def _triple(params: PadicParams, raw, cap: int) -> tuple[list[int], int, int]:
    ds = _canon(params, raw, cap)
    return ds, cap, _valpi_or_cap(params, ds, cap)


def _triples(m: Mat2) -> list:
    return [(list(x.digits), x.cap, x.valpi_or_cap()) for x in m.entries()]


def _mat2(params: PadicParams, xs) -> Mat2:
    return Mat2(*(PadicElt(params, ds, cap) for ds, cap, _ in xs))


def _mul_matrix(params: PadicParams, ds) -> list[list[int]]:
    """The e x e integer matrix of y |-> x y for the element x of digits ds:
    column t holds the digits of x pi^t, with pi^e = p folded in."""
    e, p = params.e, params.p
    return [[ds[r - t] if r >= t else p * ds[r - t + e] for t in range(e)] for r in range(e)]


def _product_map(m: Mat2, left: bool) -> list[list[int]]:
    """The 4e x 4e integer matrix of X |-> m X (left) or X |-> X m on flat digit vectors."""
    params = m.a.params
    e = params.e
    mults = [_mul_matrix(params, x.digits) for x in m.entries()]
    rows = []
    for r in (0, 1):
        for c in (0, 1):
            for s in range(e):
                row = [0] * (4 * e)
                for i in (0, 1):
                    # (m X)[r][c] = sum_i m[r][i] X[i][c], (X m)[r][c] = sum_i X[r][i] m[i][c]
                    src = 2 * i + c if left else 2 * r + i
                    mult = mults[2 * r + i] if left else mults[2 * i + c]
                    row[src * e:src * e + e] = mult[s]
                rows.append(row)
    return rows


def _contraction_maps(p0: Mat2) -> tuple:
    """S |-> P0 S, X |-> X adj(P0) and their composite S |-> (P0 S) adj(P0) as
    integer matrices, with the caps and valpi-or-caps of the entries of P0 and
    adj(P0)."""
    adj0 = p0.adj()
    left, right = _product_map(p0, True), _product_map(adj0, False)
    both = [[sum(map(mul, row, col)) for col in zip(*left)] for row in right]
    return (
        left, right, both,
        [x.cap for x in p0.entries()], [x.valpi_or_cap() for x in p0.entries()],
        [x.cap for x in adj0.entries()], [x.valpi_or_cap() for x in adj0.entries()],
    )


def _product_caps(prec: int, xc, xv, yc, yv) -> list[int]:
    """Caps of the four entries of x y from the caps and valpi-or-caps of the
    2x2 matrices x and y (row-major).

    The bounds cap_x + v(y) are skipped when x is exact, and then no valuation
    of y is read; likewise with x and y swapped.
    """
    caps = [prec] * 4
    if min(xc) < prec:
        caps = [min(prec, xc[r] + yv[c], xc[r + 1] + yv[c + 2]) for r in (0, 2) for c in (0, 1)]
    if min(yc) < prec:
        caps = [min(cap, yc[c] + xv[r], yc[c + 2] + xv[r + 1])
                for cap, r, c in zip(caps, (0, 0, 2, 2), (0, 1, 0, 1))]
    return caps


def _contract(
    params: PadicParams, maps, c, k: int, j: int, not_divisible, diverged
) -> list:
    """Solve S P0 - p^j P0 S = C for j >= k by the contraction
    S = R0 + p^(j-k+1) P0 S adj(P0), R0 = C adj(P0) / p^(k-1).

    ``maps`` is `_contraction_maps(P0)` and ``c`` four triples.  A sweep maps
    the flat digit vector of S through the integer matrices; it stops when S
    repeats, digits and caps alike.

    For an exact P0 a sweep's caps are a function of the caps before it alone
    (the valuations of S and P0 S are read only by the bounds of an inexact
    P0, whose caps adj(P0) shares).  So once they repeat they are settled, and
    each later sweep sends the digits through the composed map
    S |-> (P0 S) adj(P0), one matrix-vector product, at the settled moduli.
    """
    left, right, both, p0c, p0v, adjc, adjv = maps
    e, prec, t = params.e, params.prec_pi, params.e * (k - 1)
    starts = range(0, 4 * e, e)
    # the sweep's bounds read valuations of S and P0 S only when P0 (whose caps
    # adj(P0) shares) is inexact
    exact = min(p0c) >= prec

    def vals(ds, caps):
        if exact:
            return None
        return [_valpi_or_cap(params, ds[i:i + e], cap) for i, cap in zip(starts, caps)]

    flat = [x for ds, _, _ in c for x in ds]
    raw = [sum(map(mul, row, flat)) for row in right]
    caps = _product_caps(prec, [x[1] for x in c], [x[2] for x in c], adjc, adjv)
    r0d, r0c = [], [cap - t for cap in caps]
    for i, cap in zip(starts, caps):
        try:
            r0d += _pi_div_digits(params, _canon(params, raw[i:i + e], cap), cap, t)
        except InexactDivision as exc:
            raise not_divisible(j, exc) from exc
        except PrecisionExhausted as exc:
            raise PrecisionExhausted(f"order {j}: {exc}") from exc
    pt, et = params.p ** (j - k + 1), params.e * (j - k + 1)
    sweeps = prec + 2
    sd, sc, sv, settled = r0d, r0c, vals(r0d, r0c), False
    for _ in range(sweeps):
        if settled:   # the caps repeat, so S goes through the composite
            u = [sum(map(mul, row, sd)) for row in both]
        else:
            # P0 S feeds only the next product, reduced at its own smaller cap
            ps = [sum(map(mul, row, sd)) for row in left]
            psc = _product_caps(prec, p0c, p0v, sc, sv)
            u = [sum(map(mul, row, ps)) for row in right]
            # R0's cap is below prec_pi, so the scale cap needs no prec_pi bound
            caps = [rc if rc < uc + et else uc + et
                    for rc, uc in zip(r0c, _product_caps(prec, psc, vals(ps, psc), adjc, adjv))]
            mods = [0] * (4 * e)
            for s in range(e):   # digit s of the entries sits at s, s + e, s + 2e, s + 3e
                mods[s::e] = _digit_moduli(params, s, caps)
            # for an exact P0 a sweep's caps depend on the caps before it alone,
            # so once they repeat they stay
            settled = exact and caps == sc
        ds = [(a + pt * b) % m for a, b, m in zip(r0d, u, mods)]
        if ds == sd and caps == sc:
            return [_triple(params, ds[i:i + e], cap) for i, cap in zip(starts, caps)]
        sd, sc, sv = ds, caps, vals(ds, caps)
    raise diverged(j, sweeps)


def _row(f: PadicSeries) -> tuple[list[list[int]], list[int]]:
    """A series as a bare row: its digit planes and caps, cut to its support."""
    s = f._support()
    return [list(pl[:s]) for pl in f.planes], list(f.caps[:s])


def _times_q(params: PadicParams, row, qs, n: int) -> tuple[list[list[int]], list[int]]:
    """The row of f Q cut to x-order n, for the row of f; Q = ((1+x)^p - 1)/x
    is given by the (digit, v) of its first p coefficients.

    Q is exact (every cap prec_pi) and its coefficients from x^p on are zero
    (v = prec_pi), so only cap(f_i) + v(Q_l), l < p, i below the support of f,
    can bind.  The result is cut to its own support.
    """
    planes, caps = row
    prec, s = params.prec_pi, min(len(caps), n)
    if not s:
        return [[] for _ in planes], []
    m = min(n, s + len(qs) - 1)
    out = [prec] * m
    least = min(caps[:s])
    for l, (_, vq) in enumerate(qs[:m]):
        if least + vq < prec:
            out[l:l + s] = [a if a < b + vq else b + vq for a, b in zip(out[l:l + s], caps)]
    if params.e == 1:   # one int per coefficient
        (ds,) = planes
        acc = [0] * m
        for l, (q, _) in enumerate(qs[:m]):
            acc[l:l + s] = [x + q * y for x, y in zip(acc[l:l + s], ds)]
        acc = list(map(mod, acc, _digit_moduli(params, 0, out)))
        while m and out[m - 1] >= prec and not acc[m - 1]:
            m -= 1
        return [acc[:m]], out[:m]
    raw = [[0] * m for _ in planes]
    for l, (q, _) in enumerate(qs[:m]):
        for acc, plane in zip(raw, planes):
            acc[l:l + s] = [x + q * y for x, y in zip(acc[l:l + s], plane)]
    planes = [list(map(mod, acc, _digit_moduli(params, so, out))) for so, acc in enumerate(raw)]
    m = _trim(planes, out, m, prec)
    return [pl[:m] for pl in planes], out[:m]


def _summary(params: PadicParams, row):
    """(digit planes, caps, valuations, least valuation, least cap) of a row,
    or None for an empty one."""
    planes, caps = row
    if not caps:
        return None
    if params.e == 1:
        mods, log = params.digit_tables
        vals = [log[g] for g in map(gcd, planes[0], map(mods.__getitem__, caps))]
    else:
        vals = _valpi_or_caps(params, planes, caps)
    return planes, caps, vals, min(vals), min(caps)


def _add_correction(params: PadicParams, d, pq, gp, s, j: int) -> None:
    """D += x^j (PQ^j S - S gamma(P)) in place, one integer step per entry.

    ``d`` holds four [planes, caps] lists, ``pq`` four rows (cut to x-order
    nx - j), ``gp`` the four `_summary` of gamma(P)'s rows, ``s`` four
    triples.  An entry's digits are its four scalar products, each over its
    row's support, summed onto D's and reduced once; its cap is the min of
    D's cap and the bounds cap_f + v(s), cap_s + v(f) of its products, each
    skipped when its least value reaches prec_pi.  D's caps are at most
    prec_pi, so the third product bound never binds.  D is left as it is
    beyond the longest support of an entry's rows.
    """
    prec, e = params.prec_pi, params.e
    n = len(d[0][1]) - j
    fs = [_summary(params, f) for f in pq] + gp
    mults = [_mul_matrix(params, ds) for ds, _, _ in s] if e > 1 else None
    for r in (0, 2):
        for c in (0, 1):
            terms = [(f, i, sign) for f, i, sign in (
                (fs[r], c, 1), (fs[r + 1], c + 2, 1), (fs[4 + c], r, -1), (fs[6 + c], r + 1, -1),
            ) if f]
            if not terms:
                continue
            # a row longer than the window is cut by zip to the window's length
            h = min(n, max([len(f[1]) for f, _, _ in terms]))
            planes, caps = d[r + c]
            new_caps = caps[j:j + h]
            for (_, fc, fv, least_v, least_c), i, _ in terms:
                _, cap, v = s[i]
                if least_v + cap < prec:
                    new_caps[:len(fv)] = [a if a < b + cap else b + cap for a, b in zip(new_caps, fv)]
                if least_c + v < prec:
                    new_caps[:len(fc)] = [a if a < b + v else b + v for a, b in zip(new_caps, fc)]
            if e == 1:   # one int per coefficient: S's digit is its own multiplier
                (plane,) = planes
                acc = plane[j:j + h]
                for ((fp,), *_), i, sign in terms:
                    a = sign * s[i][0][0]
                    if a:
                        acc[:len(fp)] = [x + a * y for x, y in zip(acc, fp)]
                plane[j:j + h] = list(map(mod, acc, _digit_moduli(params, 0, new_caps)))
            else:
                for so, plane in enumerate(planes):
                    acc = plane[j:j + h]
                    for (fp, *_), i, sign in terms:
                        for t, a in enumerate(mults[i][so]):
                            if a:
                                a *= sign
                                acc[:len(fp[t])] = [x + a * y for x, y in zip(acc, fp[t])]
                    plane[j:j + h] = list(map(mod, acc, _digit_moduli(params, so, new_caps)))
            caps[j:j + h] = new_caps


def _solve_orders(
    P: MatrixSeries,
    gamma_p: MatrixSeries,
    G: MatrixSeries,
    defect: MatrixSeries,
    k: int,
    start: int,
    solve_low,
    not_divisible,
    diverged,
) -> tuple[MatrixSeries, tuple[tuple[int, Fraction], ...]]:
    """Add x^j S_j to G, j = start..nx-1, until P phi(G) = G gamma(P) mod x^nx.

    ``defect`` is D = P phi(G) - G gamma(P), zero below x^start.  Zeroing its
    x^j coefficient is the constant Sylvester problem S P0 - p^j P0 S = D[x^j]:
    ``solve_low(j, D[x^j])`` below x^k, ``_contract`` from x^k on, whose two
    failures are raised as ``not_divisible(j, exc)`` and ``diverged(j, sweeps)``.
    A coefficient already zero at its cap is skipped.  Returns the corrected G
    and the log of (order, v(S_j)), or (order, cap of D[x^j]) when skipped.

    The loop runs on the integer kernel above, with the element cap rules: a
    product has cap min(cap_x + v(y), cap_y + v(x), prec_pi), a sum the min of
    the caps, p^t x the cap min(cap_x + e t, prec_pi).  D is held as digit
    lists plus caps and updated in place by `_add_correction`.  The running
    product P Q^j goes from order to order as bare rows through `_times_q`;
    the support, valuations and least values of gamma(P) are summarised once
    per call, and so are the maps of `_contract`: S |-> P0 S, X |-> X adj(P0)
    and their composite S |-> (P0 S) adj(P0), which the sweeps of an exact P0
    use once their caps are settled.  At e = 1 the rows carry one int per coefficient.
    Only the low-order solve works on PadicElt values.
    """
    params, nx, e = P.params, P.nx, P.params.e
    maps = _contraction_maps(P.eval0())
    q = cyclotomic_q(params, nx)
    qs = list(zip(q.planes[0], q._valuations()))[: params.p]
    pq = [_row(f) for f in P.entries()]
    gp = [_summary(params, _row(f)) for f in gamma_p.entries()]
    d = [[list(map(list, f.planes)), list(f.caps)] for f in defect.entries()]
    # the correction sum_j x^j S_j, entry by entry as digit planes and caps
    corr = [[[[0] * nx for _ in range(e)], [params.prec_pi] * nx] for _ in range(4)]
    log: list[tuple[int, Fraction]] = []
    for j in range(1, nx):
        # P Q^j; after the shift by x^j only x-orders below nx - j count
        pq = [_times_q(params, f, qs, nx - j) for f in pq]
        if j < start:
            continue
        c = [_triple(params, [pl[j] for pl in planes], caps[j]) for planes, caps in d]
        if not any(any(ds) for ds, _, _ in c):
            log.append((j, Fraction(min(cap for _, cap, _ in c), e)))
            continue
        if j < k:
            s = _triples(solve_low(j, _mat2(params, c)))
        else:
            s = _contract(params, maps, c, k, j, not_divisible, diverged)
        log.append((j, Fraction(min(v for _, _, v in s), e)))
        for (planes, caps), (ds, cap, _) in zip(corr, s):
            for plane, x in zip(planes, ds):
                plane[j] = x
            caps[j] = cap
        _add_correction(params, d, pq, gp, s, j)
        if any(pl[j] for planes, _ in d for pl in planes):
            raise PrecisionExhausted(f"order {j}: correction failed to close")
    if any(any(pl) for planes, _ in d for pl in planes):
        raise PrecisionExhausted("corrected pair still has visible defect")
    return G + MatrixSeries(*(
        PadicSeries._make(params, tuple(map(tuple, planes)), tuple(caps)) for planes, caps in corr
    )), tuple(log)


def seed_companion(
    params: PadicParams,
    k: int,
    a_p: PadicElt,
    chi_gamma: int,
    nx: int | None = None,
) -> WachData:
    """Build (P, G) with P in companion form for T^2 - a_p T + p^(k-1).

    G is solved order by order from P phi(G) = G gamma(P) starting at
    G_0 = Id; a singular or non-integral low-order system raises
    SeedSingular with the failing order and no fallback is attempted.
    The result is re-verified with check_axioms before being returned.
    """
    nx = default_nx(params.p, k) if nx is None else nx
    P = _companion_p(params, k, a_p, nx)
    gamma_p = mat_gamma(P, chi_gamma)
    G, _ = _solve_orders(
        P, gamma_p, MatrixSeries.identity(params, nx), P - gamma_p, k, 1,
        solve_low=lambda j, c: _solve_order_low(params, k, a_p, j, c),
        not_divisible=lambda j, exc: SeedSingular(
            j, f"order {j}: C adj(P0) not divisible by p^(k-1)"
        ),
        diverged=lambda j, sweeps: PrecisionExhausted(
            f"contraction failed to stabilize at order {j}"
        ),
    )
    w = WachData(params=params, k=k, a_p=a_p, chi_gamma=chi_gamma, P=P, G=G)
    report = check_axioms(w)
    if report.commutation_ok and not report.det_unit_ok:
        d = (params.p - 1) * (k - 1)
        raise PrecisionExhausted(
            "seed construction did not re-verify: det(P) is not a unit times Q^(k-1) "
            f"at x-precision {nx}; raise the x-precision (--prec-x) above (p-1)(k-1) = {d}"
        )
    if not report.ok:
        raise PrecisionExhausted(
            "seed construction did not re-verify; raise the working precision "
            f"(defect {report.commutation_defect_val} < cap {report.commutation_defect_cap})"
        )
    return w


# --------------------------------------------------------------------------- #
# persistence
# --------------------------------------------------------------------------- #

# The file is the text json.dumps(obj, sort_keys=True, indent=1) gives for an
# object of decimal strings (elements {"cap": c, "digits": [...]}, series as
# lists of elements, matrices as 2x2 lists of series), written straight from
# the digit planes: the library encoder runs in pure Python when indenting.

def _elt_text(ds, cap: int, n: int) -> str:
    """An element object whose braces sit at depth n."""
    a = " " * n
    return (f'{{\n{a} "cap": "{cap}",\n{a} "digits": [\n{a}  "'
            + f'",\n{a}  "'.join(map(str, ds)) + f'"\n{a} ]\n{a}}}')


def _array_text(items: list[str], n: int) -> str:
    pad = "\n" + " " * (n + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * n + "]"


def _matrix_text(m: MatrixSeries) -> str:
    series = [_array_text([_elt_text(ds, cap, 4) for *ds, cap in zip(*s.planes, s.caps)], 3)
              for s in m.entries()]
    return _array_text([_array_text(series[:2], 2), _array_text(series[2:], 2)], 1)


def _require_chi_fits(params: PadicParams, chi_gamma: int) -> None:
    """Refuse a chi_gamma of p^ceil(prec_pi/e) or more: a file stores it at cap prec_pi."""
    if chi_gamma >= params.modulus(params.prec_pi):
        t = -(-params.prec_pi // params.e)
        raise DomainError(
            f"chi_gamma {chi_gamma} does not fit a file at prec_pi {params.prec_pi}: "
            f"it must be below p^{t}"
        )


def _write_text(path: str | Path, text: str) -> None:
    """The one file writer: overwrite in place and cut a longer old tail, as
    truncating on open can wait tens of ms per rewrite; nothing is synced."""
    data = text.encode()
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if os.fstat(fh.fileno()).st_size > len(data):   # the old file was longer
            fh.truncate()


def save_wach(w: WachData, path: str | Path) -> None:
    """Write module data as deterministic structured text (sorted keys).

    A chi_gamma that does not fit the file is refused before anything is written.
    """
    params = w.params
    _require_chi_fits(params, w.chi_gamma)
    chi = [w.chi_gamma] + [0] * (params.e - 1)
    fields = [   # in sorted key order
        ("G", _matrix_text(w.G)), ("P", _matrix_text(w.P)),
        ("a_p", _elt_text(w.a_p.digits, w.a_p.cap, 1)),
        ("chi_gamma", _elt_text(chi, params.prec_pi, 1)),
    ] + [(key, f'"{value}"') for key, value in (
        ("e", params.e), ("format_version", FORMAT_VERSION), ("k", w.k),
        ("p", params.p), ("prec_pi", params.prec_pi), ("prec_x", w.nx),
    )]
    _write_text(path, "{\n " + ",\n ".join(f'"{k}": {v}' for k, v in fields) + "\n}\n")


_INT_TEXT = re.compile("-?[0-9]+")


def _file_int(v) -> int:
    """A JSON int that is not a bool, or an ASCII decimal string as `save_wach`
    writes it; ValueError for anything else (floats, padded or grouped text)."""
    if type(v) is int:
        return v
    if type(v) is str and _INT_TEXT.fullmatch(v):
        return int(v)   # ValueError past the interpreter's digit limit
    raise ValueError(f"not an integer: {v!r}")


def _req_int(obj: dict, key: str) -> int:
    try:
        return _file_int(obj[key])
    except (KeyError, ValueError) as exc:
        raise MalformedFile(f"field {key!r} missing or not an integer string") from exc


def _elt_digits(obj, params: PadicParams, where: str) -> tuple[list[int], int]:
    """Canonical digits and cap of one element object, validated."""
    try:
        digits = obj["digits"]
        if type(digits) is not list:
            raise TypeError("digits must be a list")
        digits = [_file_int(d) for d in digits]
        cap = _file_int(obj["cap"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFile(f"{where}: bad element encoding") from exc
    if len(digits) != params.e:
        raise MalformedFile(f"{where}: expected {params.e} digits, got {len(digits)}")
    if not 1 <= cap <= params.prec_pi:
        raise MalformedFile(f"{where}: cap {cap} outside [1, {params.prec_pi}]")
    return _canon(params, digits, cap), cap


def _series_from(arr, params: PadicParams, nx: int, where: str) -> PadicSeries:
    if not isinstance(arr, list) or len(arr) != nx:
        raise MalformedFile(f"{where}: expected {nx} coefficients")
    elts = [_elt_digits(o, params, f"{where}[{i}]") for i, o in enumerate(arr)]
    return PadicSeries._make(
        params, tuple(zip(*(ds for ds, _ in elts))), tuple(cap for _, cap in elts)
    )


def _matrix_from(arr, params: PadicParams, nx: int, where: str) -> MatrixSeries:
    if (
        not isinstance(arr, list)
        or len(arr) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in arr)
    ):
        raise MalformedFile(f"{where}: expected a 2x2 array")
    return MatrixSeries(
        _series_from(arr[0][0], params, nx, f"{where}[0][0]"),
        _series_from(arr[0][1], params, nx, f"{where}[0][1]"),
        _series_from(arr[1][0], params, nx, f"{where}[1][0]"),
        _series_from(arr[1][1], params, nx, f"{where}[1][1]"),
    )


def load_wach(path: str | Path) -> WachData:
    """Load and structurally validate module data; inverse of save_wach."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MalformedFile(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFile(
            f"invalid structured text at line {exc.lineno} column {exc.colno}"
        ) from exc
    if not isinstance(obj, dict):
        raise MalformedFile("top level is not an object")
    version = obj.get("format_version")
    if version != str(FORMAT_VERSION):
        raise VersionMismatch(f"format_version {version!r}, supported: {FORMAT_VERSION!r}")
    p = _req_int(obj, "p")
    e = _req_int(obj, "e")
    prec_pi = _req_int(obj, "prec_pi")
    nx = _req_int(obj, "prec_x")
    k = _req_int(obj, "k")
    try:
        params = PadicParams(p, e, prec_pi)
    except (DomainError, PrecisionExhausted) as exc:
        raise MalformedFile(f"bad ring parameters: {exc}") from exc
    if k < 2:
        raise MalformedFile(f"weight k must be >= 2, got {k}")
    if nx < 2:
        raise MalformedFile(f"prec_x must be >= 2, got {nx}")
    (chi, *high), cap = _elt_digits(obj.get("chi_gamma"), params, "chi_gamma")
    if cap < prec_pi or any(high):
        raise MalformedFile(
            f"chi_gamma must encode an integer: cap {prec_pi}, no digits past the first"
        )
    if chi < 2:
        raise MalformedFile(f"chi_gamma must encode an integer >= 2, got {chi}")
    a_p = PadicElt(params, *_elt_digits(obj.get("a_p"), params, "a_p"))
    P = _matrix_from(obj.get("P"), params, nx, "P")
    G = _matrix_from(obj.get("G"), params, nx, "G")
    if nx > MAX_PREC_X:   # once the arrays match nx; the (1+x)^c - 1 tables grow as nx^2
        raise MalformedFile(f"prec_x {nx} exceeds the maximum {MAX_PREC_X}")
    return WachData(params=params, k=k, a_p=a_p, chi_gamma=chi, P=P, G=G)
