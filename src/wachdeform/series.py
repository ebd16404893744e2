"""Truncated power series over O_E and 2x2 matrices of them.

A series is known modulo x^nx with per-coefficient pi-adic caps; nothing is
ever claimed past either truncation.  The substitutions that matter are all
of the shape f(x) |-> f((1+x)^c - 1) for an integer c: Frobenius is c = p, the
Gamma-action is c = chi(gamma).  The powers of u = (1+x)^c - 1 have integer
coefficients, so their table is exact; it is cached per (ring, nx, c) since
every order-by-order solve replays the same substitution, and each series
keeps its own substitution results, so a series substituted twice (by the
solver and by the re-verification of the same module) is substituted once.
`Mat2` (over elements) and `MatrixSeries` (over series) share one 2x2 algebra.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add, mod, mul, neg, sub
from typing import Iterable, Sequence

from .errors import (
    DomainError,
    ParamMismatch,
    PrecisionExhausted,
)
from .padics import PadicElt, PadicParams, _canon, _digit_moduli, _valpi_or_cap, _valpi_or_caps

__all__ = [
    "PadicSeries",
    "Mat2",
    "MatrixSeries",
    "substitute_onepx_power",
    "mat_frobenius",
    "mat_gamma",
    "cyclotomic_q",
    "div_distinguished",
]


# --------------------------------------------------------------------------- #
# integer kernel
# --------------------------------------------------------------------------- #
#
# A coefficient of a series is a sum of products of capped elements.  Its cap
# is the min of the product caps, min(cap_x + v(y), cap_y + v(x), prec_pi) each
# (v = valpi-or-cap), and its digits are the exact integer sum reduced by the
# digit moduli at that cap (`padics._digit_moduli`).  Reducing partial sums at
# their own (larger) caps first changes nothing, so the kernel sums unreduced
# integers and reduces once: the digits and caps are those of the element-wise
# loops.
#
# Exact data costs nothing.  An exact zero (digit 0 at cap prec_pi) has
# valpi-or-cap prec_pi, so both bounds of any product with it are at least
# prec_pi: it adds no digit and binds no cap.  A series' support is the length
# after which every coefficient is an exact zero, and the kernels (here and in
# `wach`) loop only over supports; an entry of support 0 is skipped outright.
# Likewise a bound cap_x + v(y) is skipped once its least value reaches prec_pi,
# as it does whenever x is exact (every cap prec_pi).

def _reduce(params: PadicParams, raw, caps) -> tuple[tuple[int, ...], ...]:
    """Canonical digit planes of raw integer planes at the given caps.

    A raw plane shorter than ``caps`` is padded with exact zeros; an all-zero
    one is not reduced.
    """
    # tuples are built from lists, not iterators: a tuple grown from an
    # iterator is resized outside CPython's per-size free lists but returns to
    # them when freed, so short truncated series would fill those lists
    n = len(caps)
    return tuple([
        tuple(list(map(mod, plane, _digit_moduli(params, s, caps))) + [0] * (n - len(plane)))
        if any(plane) else (0,) * n
        for s, plane in enumerate(raw)
    ])


def _trim(planes, caps, n: int, prec: int) -> int:
    """Support of digit planes at caps whose coefficients from x^n on are exact zeros."""
    while n and caps[n - 1] >= prec and not any(pl[n - 1] for pl in planes):
        n -= 1
    return n


def _ring_product(params: PadicParams, xs, ys, op) -> list[list[int]]:
    """Raw digit planes of a product over O_E = Z[pi]/(pi^e - p).

    ``op`` is bilinear and maps a digit plane of each factor to an integer
    plane; pi^e = p folds the high digits back.  Zero planes add nothing and are
    skipped; a plane no pair reaches is left empty (`_reduce` pads it with zeros).
    """
    e, p = params.e, params.p
    out: list = [[]] * e
    ys = [(t, y) for t, y in enumerate(ys) if any(y)]
    for s, x in enumerate(xs):
        if not any(x):
            continue
        for t, y in ys:
            z = op(x, y)
            r = s + t
            if r >= e:
                r -= e
                z = [p * v for v in z]
            out[r] = list(map(add, out[r], z)) if out[r] else z
    return out


def _conv(x, y, n: int, red=sum, op=mul) -> list[int]:
    """k-th entry red_{i+j=k} op(x_i, y_j), for k < min(n, len(x) + len(y) - 1)."""
    if len(x) > len(y):
        x, y = y, x
    ry, ly, m = y[::-1], len(y), min(n, len(x) + len(y) - 1)
    return ([red(map(op, x, ry[ly - 1 - k:])) for k in range(min(m, ly))]
            + [red(map(op, x[k - ly + 1:], ry)) for k in range(ly, m)])


# --------------------------------------------------------------------------- #
# scalar series
# --------------------------------------------------------------------------- #

class PadicSeries:
    """Element of O_E[[x]] known modulo x^nx.

    Stored as integers: ``planes[s][j]`` is digit s (the pi^s part) of the
    x^j coefficient, in the canonical form PadicElt holds, and ``caps[j]`` is
    that coefficient's pi-adic cap.  ``coeff``, ``eval0`` and ``coeffs`` build
    PadicElt values on demand.  The valuations, the support and the results
    of `substitute_onepx_power` are computed once per series.
    """

    __slots__ = ("params", "nx", "planes", "caps", "_vals", "_supp", "_subs")

    def __init__(self, params: PadicParams, coeffs: Iterable[PadicElt], nx: int):
        if nx < 1:
            raise PrecisionExhausted("series needs at least one x-digit")
        cs = list(coeffs)[:nx]
        if any(c.params != params for c in cs):
            raise ParamMismatch("coefficient over a different ring")
        pad = nx - len(cs)   # exact zeros
        self._set(
            params,
            tuple([tuple([c.digits[s] for c in cs] + [0] * pad) for s in range(params.e)]),
            tuple([c.cap for c in cs] + [params.prec_pi] * pad),
        )

    def _set(self, params: PadicParams, planes, caps, supp=None) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "nx", len(caps))
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "_vals", None)
        object.__setattr__(self, "_supp", supp)
        object.__setattr__(self, "_subs", None)

    @classmethod
    def _make(cls, params: PadicParams, planes, caps, supp=None) -> "PadicSeries":
        """Series from canonical digit planes and caps (no checks), of support supp if known."""
        s = object.__new__(cls)
        s._set(params, planes, caps, supp)
        return s

    @classmethod
    def _reduced(cls, params: PadicParams, raw, caps, nx: int | None = None) -> "PadicSeries":
        """Series from raw planes at caps, padded with exact zeros to length nx."""
        n = len(caps)
        caps = tuple(caps) + (params.prec_pi,) * ((nx or n) - n)
        planes = _reduce(params, raw, caps)
        return cls._make(params, planes, caps, _trim(planes, caps, n, params.prec_pi))

    def __setattr__(self, *_):
        raise AttributeError("PadicSeries is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, params: PadicParams, nx: int) -> "PadicSeries":
        if nx < 1:
            raise PrecisionExhausted("series needs at least one x-digit")
        return cls._make(params, ((0,) * nx,) * params.e, (params.prec_pi,) * nx, 0)

    @classmethod
    def one(cls, params: PadicParams, nx: int) -> "PadicSeries":
        return cls.from_ints(params, [1], nx)

    @classmethod
    def from_ints(cls, params: PadicParams, ints: Sequence[int], nx: int) -> "PadicSeries":
        if nx < 1:
            raise PrecisionExhausted("series needs at least one x-digit")
        ints = list(ints)[:nx]
        ints += [0] * (nx - len(ints))
        zeros = [0] * nx
        raw = [ints] + [zeros] * (params.e - 1)
        return cls._reduced(params, raw, [params.prec_pi] * nx)

    @classmethod
    def x(cls, params: PadicParams, nx: int) -> "PadicSeries":
        return cls.from_ints(params, [0, 1], nx)

    # -- queries ----------------------------------------------------------------

    def coeff(self, j: int) -> PadicElt:
        return PadicElt(self.params, [plane[j] for plane in self.planes], self.caps[j])

    def eval0(self) -> PadicElt:
        return self.coeff(0)

    @property
    def coeffs(self) -> tuple[PadicElt, ...]:
        return tuple(map(self.coeff, range(self.nx)))

    def _valuations(self) -> tuple[int, ...]:
        """valpi-or-cap of every coefficient, computed once per series."""
        if self._vals is None:
            n = self._support()
            vals = _valpi_or_caps(self.params, [pl[:n] for pl in self.planes], self.caps[:n])
            object.__setattr__(self, "_vals", vals + (self.params.prec_pi,) * (self.nx - n))
        return self._vals

    def _support(self) -> int:
        """Length after which every coefficient is an exact zero, computed once per series."""
        if self._supp is None:
            object.__setattr__(
                self, "_supp", _trim(self.planes, self.caps, self.nx, self.params.prec_pi)
            )
        return self._supp

    def is_zero_at_cap(self) -> bool:
        return not any(map(any, self.planes))

    def min_val_or_cap(self) -> int:
        """min over coefficients of valpi-or-cap (integer pi-valuation units)."""
        return min(self._valuations())

    def min_cap(self) -> int:
        return min(self.caps)

    def same_at_cap(self, other: "PadicSeries") -> bool:
        return (self - other).is_zero_at_cap()

    # -- ring ops -----------------------------------------------------------------

    def _align(self, other: "PadicSeries") -> int:
        if self.params != other.params:
            raise ParamMismatch("series over different rings")
        return min(self.nx, other.nx)

    def __add__(self, other: "PadicSeries") -> "PadicSeries":
        self._align(other)
        raw = [list(map(add, a, b)) for a, b in zip(self.planes, other.planes)]
        return PadicSeries._reduced(self.params, raw, list(map(min, self.caps, other.caps)))

    def __sub__(self, other: "PadicSeries") -> "PadicSeries":
        self._align(other)
        raw = [list(map(sub, a, b)) for a, b in zip(self.planes, other.planes)]
        return PadicSeries._reduced(self.params, raw, list(map(min, self.caps, other.caps)))

    def __neg__(self) -> "PadicSeries":
        raw = [list(map(neg, a)) for a in self.planes]
        return PadicSeries._reduced(self.params, raw, self.caps)

    def __mul__(self, other: "PadicSeries") -> "PadicSeries":
        n = self._align(other)
        params, prec = self.params, self.params.prec_pi
        sa, sb = min(self._support(), n), min(other._support(), n)
        if not sa or not sb:
            return PadicSeries.zero(params, n)
        raw = _ring_product(
            params, [pl[:sa] for pl in self.planes], [pl[:sb] for pl in other.planes],
            lambda x, y: _conv(x, y, n),
        )
        ca, cb = self.caps[:sa], other.caps[:sb]
        va, vb = self._valuations()[:sa], other._valuations()[:sb]
        caps = [prec] * min(n, sa + sb - 1)
        # each bound below is met by no pair when its minimum reaches prec_pi
        if min(ca) + min(vb) < prec:
            caps = list(map(min, caps, _conv(ca, vb, n, min, add)))
        if min(cb) + min(va) < prec:
            caps = list(map(min, caps, _conv(va, cb, n, min, add)))
        return PadicSeries._reduced(params, raw, caps, n)

    def __pow__(self, n: int) -> "PadicSeries":
        if n < 0:
            raise DomainError("negative powers of a series are not supported")
        r = PadicSeries.one(self.params, self.nx)
        b = self
        while n:
            if n & 1:
                r = r * b
            n >>= 1
            if n:
                b = b * b
        return r

    # -- truncation / shifts ---------------------------------------------------------

    def reduce_nx(self, nx: int) -> "PadicSeries":
        if nx >= self.nx:
            return self
        return PadicSeries._make(
            self.params, tuple([p[:nx] for p in self.planes]), self.caps[:nx]
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PadicSeries)
            and self.params == other.params
            and self.caps == other.caps
            and self.planes == other.planes
        )

    def __hash__(self) -> int:
        return hash((self.params, self.planes, self.caps))

    def __repr__(self) -> str:
        head = ", ".join(repr(self.coeff(j)) for j in range(min(4, self.nx)))
        return f"PadicSeries([{head}, ...] mod x^{self.nx})"


# --------------------------------------------------------------------------- #
# 2x2 matrices: one algebra over elements and over series
# --------------------------------------------------------------------------- #

class _Mat2Algebra:
    """2x2 matrix algebra written through ``entries()`` (row-major a b / c d).

    The entries need only + - * and ``is_zero_at_cap``; results are built by
    the subclass's own constructor from four entries.
    """

    __slots__ = ()

    def __add__(self, o):
        return type(self)(*map(add, self.entries(), o.entries()))

    def __sub__(self, o):
        return type(self)(*map(sub, self.entries(), o.entries()))

    def __neg__(self):
        return type(self)(*map(neg, self.entries()))

    def __mul__(self, o):
        a, b, c, d = self.entries()
        w, x, y, z = o.entries()
        return type(self)(a * w + b * y, a * x + b * z, c * w + d * y, c * x + d * z)

    def det(self):
        a, b, c, d = self.entries()
        return a * d - b * c

    def adj(self):
        a, b, c, d = self.entries()
        return type(self)(d, -b, -c, a)

    def is_zero_at_cap(self) -> bool:
        return all(x.is_zero_at_cap() for x in self.entries())

    def same_at_cap(self, other) -> bool:
        return (self - other).is_zero_at_cap()


@dataclass(frozen=True)
class Mat2(_Mat2Algebra):
    """2x2 matrix of ring elements; row-major (a b / c d)."""

    a: PadicElt
    b: PadicElt
    c: PadicElt
    d: PadicElt

    @classmethod
    def identity(cls, params: PadicParams) -> "Mat2":
        one, zero = PadicElt.one(params), PadicElt.zero(params)
        return cls(one, zero, zero, one)

    @classmethod
    def zero(cls, params: PadicParams) -> "Mat2":
        z = PadicElt.zero(params)
        return cls(z, z, z, z)

    def entries(self) -> tuple[PadicElt, PadicElt, PadicElt, PadicElt]:
        return (self.a, self.b, self.c, self.d)

    def trace(self) -> PadicElt:
        return self.a + self.d

    def min_val_or_cap(self) -> int:
        return min(x.valpi_or_cap() for x in self.entries())

    def min_cap(self) -> int:
        return min(x.cap for x in self.entries())


class MatrixSeries(_Mat2Algebra):
    """2x2 matrix over the truncated series ring."""

    __slots__ = ("m11", "m12", "m21", "m22")

    def __init__(self, m11: PadicSeries, m12: PadicSeries, m21: PadicSeries, m22: PadicSeries):
        object.__setattr__(self, "m11", m11)
        object.__setattr__(self, "m12", m12)
        object.__setattr__(self, "m21", m21)
        object.__setattr__(self, "m22", m22)

    def __setattr__(self, *_):
        raise AttributeError("MatrixSeries is immutable")

    # -- constructors -------------------------------------------------------------

    @classmethod
    def identity(cls, params: PadicParams, nx: int) -> "MatrixSeries":
        one, zero = PadicSeries.one(params, nx), PadicSeries.zero(params, nx)
        return cls(one, zero, zero, one)

    @classmethod
    def zero(cls, params: PadicParams, nx: int) -> "MatrixSeries":
        z = PadicSeries.zero(params, nx)
        return cls(z, z, z, z)

    @classmethod
    def from_mats(cls, params: PadicParams, mats: Sequence[Mat2], nx: int) -> "MatrixSeries":
        """sum_j mats[j] x^j mod x^nx."""
        return cls(*(PadicSeries(params, [m.entries()[i] for m in mats], nx) for i in range(4)))

    # -- queries --------------------------------------------------------------------

    @property
    def params(self) -> PadicParams:
        return self.m11.params

    @property
    def nx(self) -> int:
        return min(s.nx for s in self.entries())

    def entries(self) -> tuple[PadicSeries, ...]:
        return (self.m11, self.m12, self.m21, self.m22)

    def coeff(self, j: int) -> Mat2:
        return Mat2(self.m11.coeff(j), self.m12.coeff(j), self.m21.coeff(j), self.m22.coeff(j))

    def eval0(self) -> Mat2:
        return self.coeff(0)

    def min_val_or_cap(self) -> int:
        return min(s.min_val_or_cap() for s in self.entries())

    def min_cap(self) -> int:
        return min(s.min_cap() for s in self.entries())

    # -- truncation ---------------------------------------------------------------------

    def reduce_nx(self, nx: int) -> "MatrixSeries":
        return MatrixSeries(*(s.reduce_nx(nx) for s in self.entries()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MatrixSeries) and self.entries() == other.entries()

    def __hash__(self) -> int:
        return hash(self.entries())

    def __repr__(self) -> str:
        return f"MatrixSeries(nx={self.nx})"


# --------------------------------------------------------------------------- #
# substitutions x -> (1+x)^c - 1
# --------------------------------------------------------------------------- #

def _int_binom(c: int, j: int) -> int:
    """Exact binomial C(c, j) for any integer c; below 0 it is (-1)^j C(j - c - 1, j)."""
    return math.comb(c, j) if c >= 0 else (-1) ** j * math.comb(j - c - 1, j)


@lru_cache(maxsize=48)
def _subst_table(params: PadicParams, nx: int, c: int):
    """Columns of (u^0, ..., u^(nx-1)) for u = (1+x)^c - 1, as integers.

    Column k lists the x^k coefficients of u^0..u^k (u^i starts at x^i):
    (digit plane 0, valuations).  The coefficients C(c, j) of u are integers,
    so every power is exact: each entry is known to prec_pi, and every other
    digit plane is zero.
    """
    prec = params.prec_pi
    modulus = params.modulus(prec)
    u = [_int_binom(c, j) % modulus for j in range(1, nx)]
    while u and not u[-1]:   # u has degree c for an integer c >= 0
        u.pop()
    # u^i is exactly zero below x^i: row i holds its coefficients from x^i on
    rows = [[1] + [0] * (nx - 1)]
    for i in range(1, nx):
        row = [t % modulus for t in _conv(rows[-1], u, nx - i)] if u else []
        rows.append(row + [0] * (nx - i - len(row)))

    def columns(rows):
        # shift row i right by i; column k keeps rows 0..k, so the fill never shows
        rows = [(0,) * i + tuple(row) for i, row in enumerate(rows)]
        return tuple([col[: k + 1] for k, col in enumerate(zip(*rows))])

    vals = columns([_valpi_or_caps(params, [row], (prec,) * len(row)) for row in rows])
    return columns(rows), vals


def substitute_onepx_power(f: PadicSeries, c: int) -> PadicSeries:
    """f((1+x)^c - 1) for an integer c.

    Computed once per series and exponent: the result is kept on f.
    """
    if f._subs is None:
        object.__setattr__(f, "_subs", {})
    out = f._subs.get(c)
    if out is None:
        out = f._subs[c] = _substitute(f, c)
    return out


def _substitute(f: PadicSeries, c: int) -> PadicSeries:
    """f((1+x)^c - 1), uncached.

    An integer matrix-vector product: the x^k coefficient is
    sum_{i<=k} f_i [x^k] u^i, with i below the support of f.  The table is
    exact, so a term's cap is cap(f_i) + v([x^k] u^i) alone.
    """
    params, n = f.params, f.nx
    prec, s = params.prec_pi, f._support()
    if not s:
        return PadicSeries.zero(params, n)
    plane, vals = _subst_table(params, n, c)

    # the table is one exact plane: digit plane i of f maps to plane i, unfolded
    raw = [[sum(map(mul, x, col)) for col in plane] if any(x) else []
           for x in (pl[:s] for pl in f.planes)]
    cf = f.caps[:s]
    out = [prec] * n
    if min(cf) < prec:   # for an exact f every cap(f_i) + v reaches prec_pi
        out = [min(prec, *map(add, cf, v)) for v in vals]
    return PadicSeries._reduced(params, raw, out)


def mat_frobenius(m: MatrixSeries) -> MatrixSeries:
    """phi(m): entrywise f |-> f((1+x)^p - 1)."""
    return MatrixSeries(*(substitute_onepx_power(s, m.params.p) for s in m.entries()))


def mat_gamma(m: MatrixSeries, chi_gamma: int) -> MatrixSeries:
    """gamma(m): entrywise f |-> f((1+x)^chi - 1) for the generator value chi."""
    return MatrixSeries(*(substitute_onepx_power(s, chi_gamma) for s in m.entries()))


# --------------------------------------------------------------------------- #
# the cyclotomic polynomial-like divisor Q = phi(x)/x
# --------------------------------------------------------------------------- #

def cyclotomic_q(params: PadicParams, nx: int) -> PadicSeries:
    """Q(x) = ((1+x)^p - 1)/x: degree p-1, Q(0) = p, distinguished."""
    return PadicSeries.from_ints(
        params, [math.comb(params.p, j + 1) for j in range(params.p)], nx
    )


# --------------------------------------------------------------------------- #
# Weierstrass division by a distinguished polynomial
# --------------------------------------------------------------------------- #

def div_distinguished(
    f: PadicSeries, dpoly: PadicSeries, d: int
) -> tuple[PadicSeries, PadicSeries]:
    """f = dpoly * g + r with deg r < d, for dpoly = x^d + (lower, positive val).

    Solved top-down from the monic leading coefficient, which costs no
    pi-adic precision in the arithmetic itself; the unavoidable truncation
    error (coefficients of g beyond x-precision feeding back through the
    low-valuation part of dpoly) is charged to the caps explicitly.
    Returns (g, r) with g known mod x^(f.nx - d) and r of length d.

    Each coefficient f_m - sum_j l_(m-j) g_j is an integer dot product reduced
    once, at the min of f_m's cap, the element product caps and the charge.
    """
    params = f.params
    f._align(dpoly)
    if dpoly.nx < d + 1:
        raise PrecisionExhausted("divisor truncated below its own degree")
    top = [plane[d] for plane in dpoly.planes]
    top[0] -= 1
    if any(_canon(params, top, dpoly.caps[d])):
        raise DomainError("divisor is not monic of the stated degree")
    if any(any(plane[d + 1:]) for plane in dpoly.planes):
        raise DomainError("divisor has terms above its stated degree")
    lc, lv = dpoly.caps[:d], dpoly._valuations()[:d]
    delta = min(lv) if d else params.prec_pi
    if delta < 1:
        raise DomainError("divisor is not distinguished (unit below top degree)")
    ng = f.nx - d
    if ng < 1:
        raise PrecisionExhausted("x-precision too small to divide by this degree")

    gp, gc, gv = [[0] * ng for _ in dpoly.planes], [0] * ng, [0] * ng

    def reduce_at(m: int, lo: int, hi: int, err: int) -> tuple[list[int], int]:
        """f_m - sum_{lo <= j < hi} l_(m-j) g_j: canonical digits and cap."""
        ls = slice(m - hi + 1, m - lo + 1)
        raw = _ring_product(
            params, [plane[ls][::-1] for plane in dpoly.planes], [plane[lo:hi] for plane in gp],
            lambda x, y: [sum(map(mul, x, y))],
        )
        cap = min(f.caps[m], err, *map(add, lc[ls][::-1], gv[lo:hi]),
                  *map(add, lv[ls][::-1], gc[lo:hi]))
        return _canon(params, [plane[m] - sum(z) for plane, z in zip(f.planes, raw)], cap), cap

    for j in range(ng - 1, -1, -1):
        # truncation error: unknown g-coefficients above x^(ng-1) re-enter
        # through the lower coefficients, each pass costing at least delta
        ds, gc[j] = reduce_at(j + d, j + 1, min(ng, j + d + 1), delta * (-(-(ng - j) // d)))
        gv[j] = _valpi_or_cap(params, ds, gc[j])
        for plane, x in zip(gp, ds):
            plane[j] = x
    err_r = delta * (1 + max(0, -(-(ng - d) // d)))
    rs = [reduce_at(i, 0, min(i + 1, ng), err_r) for i in range(d)]
    return (
        PadicSeries._make(params, tuple(map(tuple, gp)), tuple(gc)),
        PadicSeries._make(params, tuple(zip(*(ds for ds, _ in rs))), tuple(cap for _, cap in rs)),
    )
