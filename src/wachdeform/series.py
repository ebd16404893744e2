"""Truncated power series over O_E and 2x2 matrices of them.

A series is known modulo x^nx with per-coefficient pi-adic caps; nothing is
ever claimed past either truncation.  The substitutions that matter are all
of the shape f(x) |-> f((1+x)^c - 1): Frobenius is c = p, the Gamma-action is
c = chi(gamma).  Powers of u = (1+x)^c - 1 are cached per (ring, nx, c) since
every order-by-order solve replays the same substitution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    DomainError,
    NonInvertibleDeterminant,
    ParamMismatch,
    PrecisionExhausted,
)
from .padics import PadicElt, PadicParams, binom_coeffs

__all__ = [
    "PadicSeries",
    "Mat2",
    "MatrixSeries",
    "substitute_onepx_power",
    "frobenius",
    "gamma_act",
    "mat_substitute",
    "mat_frobenius",
    "mat_gamma",
    "cyclotomic_q",
    "div_distinguished",
]


# --------------------------------------------------------------------------- #
# scalar series
# --------------------------------------------------------------------------- #

class PadicSeries:
    """Element of O_E[[x]] known modulo x^nx."""

    __slots__ = ("params", "nx", "coeffs")

    def __init__(self, params: PadicParams, coeffs: Iterable[PadicElt], nx: int):
        if nx < 1:
            raise PrecisionExhausted("series needs at least one x-digit")
        cs = list(coeffs)
        if len(cs) > nx:
            cs = cs[:nx]
        while len(cs) < nx:
            cs.append(PadicElt.zero(params))
        for c in cs:
            if c.params != params:
                raise ParamMismatch("coefficient over a different ring")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("PadicSeries is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, params: PadicParams, nx: int) -> "PadicSeries":
        return cls(params, [], nx)

    @classmethod
    def one(cls, params: PadicParams, nx: int) -> "PadicSeries":
        return cls(params, [PadicElt.one(params)], nx)

    @classmethod
    def from_ints(cls, params: PadicParams, ints: Sequence[int], nx: int) -> "PadicSeries":
        return cls(params, [PadicElt.from_int(params, n) for n in ints], nx)

    @classmethod
    def x(cls, params: PadicParams, nx: int) -> "PadicSeries":
        return cls(params, [PadicElt.zero(params), PadicElt.one(params)], nx)

    # -- queries ----------------------------------------------------------------

    def coeff(self, j: int) -> PadicElt:
        return self.coeffs[j]

    def eval0(self) -> PadicElt:
        return self.coeffs[0]

    def is_zero_at_cap(self) -> bool:
        return all(c.is_zero_at_cap() for c in self.coeffs)

    def min_val_or_cap(self) -> int:
        """min over coefficients of valpi-or-cap (integer pi-valuation units)."""
        return min(c.valpi_or_cap() for c in self.coeffs)

    def min_cap(self) -> int:
        return min(c.cap for c in self.coeffs)

    def same_at_cap(self, other: "PadicSeries") -> bool:
        return (self - other).is_zero_at_cap()

    # -- ring ops -----------------------------------------------------------------

    def _align(self, other: "PadicSeries") -> int:
        if self.params != other.params:
            raise ParamMismatch("series over different rings")
        return min(self.nx, other.nx)

    def __add__(self, other: "PadicSeries") -> "PadicSeries":
        n = self._align(other)
        return PadicSeries(self.params, [a + b for a, b in zip(self.coeffs, other.coeffs)], n)

    def __sub__(self, other: "PadicSeries") -> "PadicSeries":
        n = self._align(other)
        return PadicSeries(self.params, [a - b for a, b in zip(self.coeffs, other.coeffs)], n)

    def __neg__(self) -> "PadicSeries":
        return PadicSeries(self.params, [-a for a in self.coeffs], self.nx)

    def __mul__(self, other: "PadicSeries") -> "PadicSeries":
        n = self._align(other)
        zero = PadicElt.zero(self.params)
        out: list[PadicElt] = [zero] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a.is_zero_at_cap() and a.cap >= self.params.prec_pi:
                continue
            for j, b in enumerate(other.coeffs[: n - i]):
                t = a * b
                out[i + j] = t if out[i + j] is zero else out[i + j] + t
        return PadicSeries(self.params, out, n)

    def scale(self, c: PadicElt) -> "PadicSeries":
        return PadicSeries(self.params, [c * a for a in self.coeffs], self.nx)

    def scale_int(self, n: int) -> "PadicSeries":
        return self.scale(PadicElt.from_int(self.params, n))

    def __pow__(self, n: int) -> "PadicSeries":
        if n < 0:
            return self.invert() ** (-n)
        r = PadicSeries.one(self.params, self.nx)
        b = self
        while n:
            if n & 1:
                r = r * b
            n >>= 1
            if n:
                b = b * b
        return r

    def invert(self) -> "PadicSeries":
        """Inverse of a series with unit constant term."""
        inv0 = self.coeffs[0].invert()   # raises DivisionByNonUnit if not a unit
        out = [inv0]
        for n in range(1, self.nx):
            s = None
            for i in range(1, n + 1):
                t = self.coeffs[i] * out[n - i]
                s = t if s is None else s + t
            out.append(-(s * inv0) if s is not None else PadicElt.zero(self.params))
        return PadicSeries(self.params, out, self.nx)

    # -- truncation / shifts ---------------------------------------------------------

    def reduce_nx(self, nx: int) -> "PadicSeries":
        if nx >= self.nx:
            return self
        return PadicSeries(self.params, self.coeffs[:nx], nx)

    def shift_up(self, j: int) -> "PadicSeries":
        """Multiply by x^j (x-precision unchanged, top coefficients fall off)."""
        zero = PadicElt.zero(self.params)
        return PadicSeries(self.params, [zero] * j + list(self.coeffs[: self.nx - j]), self.nx)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PadicSeries)
            and self.params == other.params
            and self.nx == other.nx
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.params, self.nx, self.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(repr(c) for c in self.coeffs[:4])
        return f"PadicSeries([{head}, ...] mod x^{self.nx})"


# --------------------------------------------------------------------------- #
# constant 2x2 matrices
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Mat2:
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

    def __add__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o: "Mat2") -> "Mat2":
        return Mat2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def scale(self, t: PadicElt) -> "Mat2":
        return Mat2(self.a * t, self.b * t, self.c * t, self.d * t)

    def det(self) -> PadicElt:
        return self.a * self.d - self.b * self.c

    def trace(self) -> PadicElt:
        return self.a + self.d

    def adj(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def is_zero_at_cap(self) -> bool:
        return all(x.is_zero_at_cap() for x in self.entries())

    def same_at_cap(self, other: "Mat2") -> bool:
        return (self - other).is_zero_at_cap()

    def min_val_or_cap(self) -> int:
        return min(x.valpi_or_cap() for x in self.entries())

    def min_cap(self) -> int:
        return min(x.cap for x in self.entries())


# --------------------------------------------------------------------------- #
# matrix series
# --------------------------------------------------------------------------- #

class MatrixSeries:
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
        def pick(sel) -> PadicSeries:
            return PadicSeries(params, [sel(m) for m in mats], nx)

        return cls(
            pick(lambda m: m.a), pick(lambda m: m.b),
            pick(lambda m: m.c), pick(lambda m: m.d),
        )

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

    def is_zero_at_cap(self) -> bool:
        return all(s.is_zero_at_cap() for s in self.entries())

    def min_val_or_cap(self) -> int:
        return min(s.min_val_or_cap() for s in self.entries())

    def min_cap(self) -> int:
        return min(s.min_cap() for s in self.entries())

    # -- algebra ---------------------------------------------------------------------

    def __add__(self, o: "MatrixSeries") -> "MatrixSeries":
        return MatrixSeries(*(a + b for a, b in zip(self.entries(), o.entries())))

    def __sub__(self, o: "MatrixSeries") -> "MatrixSeries":
        return MatrixSeries(*(a - b for a, b in zip(self.entries(), o.entries())))

    def __neg__(self) -> "MatrixSeries":
        return MatrixSeries(*(-a for a in self.entries()))

    def __mul__(self, o: "MatrixSeries") -> "MatrixSeries":
        return MatrixSeries(
            self.m11 * o.m11 + self.m12 * o.m21,
            self.m11 * o.m12 + self.m12 * o.m22,
            self.m21 * o.m11 + self.m22 * o.m21,
            self.m21 * o.m12 + self.m22 * o.m22,
        )

    def scale_series(self, f: PadicSeries) -> "MatrixSeries":
        return MatrixSeries(*(s * f for s in self.entries()))

    def scale(self, t: PadicElt) -> "MatrixSeries":
        return MatrixSeries(*(s.scale(t) for s in self.entries()))

    def det(self) -> PadicSeries:
        return self.m11 * self.m22 - self.m12 * self.m21

    def adj(self) -> "MatrixSeries":
        return MatrixSeries(self.m22, -self.m12, -self.m21, self.m11)

    def inverse(self) -> "MatrixSeries":
        d = self.det()
        if not d.eval0().is_unit():
            raise NonInvertibleDeterminant(
                f"det has non-unit constant term {d.eval0()!r}"
            )
        return self.adj().scale_series(d.invert())

    def left_mul_mat(self, m: Mat2) -> "MatrixSeries":
        return MatrixSeries(
            self.m11.scale(m.a) + self.m21.scale(m.b),
            self.m12.scale(m.a) + self.m22.scale(m.b),
            self.m11.scale(m.c) + self.m21.scale(m.d),
            self.m12.scale(m.c) + self.m22.scale(m.d),
        )

    def right_mul_mat(self, m: Mat2) -> "MatrixSeries":
        return MatrixSeries(
            self.m11.scale(m.a) + self.m12.scale(m.c),
            self.m11.scale(m.b) + self.m12.scale(m.d),
            self.m21.scale(m.a) + self.m22.scale(m.c),
            self.m21.scale(m.b) + self.m22.scale(m.d),
        )

    # -- truncation ---------------------------------------------------------------------

    def reduce_nx(self, nx: int) -> "MatrixSeries":
        return MatrixSeries(*(s.reduce_nx(nx) for s in self.entries()))

    def shift_up(self, j: int) -> "MatrixSeries":
        return MatrixSeries(*(s.shift_up(j) for s in self.entries()))

    def same_at_cap(self, other: "MatrixSeries") -> bool:
        return (self - other).is_zero_at_cap()

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
    """Exact binomial C(c, j) for any integer c (negative included)."""
    if c >= 0:
        return math.comb(c, j)
    num = 1
    for i in range(j):
        num *= c - i
    return num // math.factorial(j)


def _exponent_key(c: int | PadicElt):
    if isinstance(c, PadicElt):
        return ("elt", c.params, c.digits, c.cap)
    return ("int", c)


@lru_cache(maxsize=48)
def _subst_powers(params: PadicParams, nx: int, key) -> tuple[PadicSeries, ...]:
    """(u^0, ..., u^(nx-1)) for u = (1+x)^c - 1."""
    if key[0] == "int":
        c = key[1]
        base = [PadicElt.from_int(params, _int_binom(c, j)) for j in range(1, nx)]
    else:
        _, _, digits, cap = key
        s = PadicElt(params, list(digits), cap)
        bc = binom_coeffs(s, nx - 1)
        base = bc[1:]
    u = PadicSeries(params, [PadicElt.zero(params)] + base, nx)
    powers = [PadicSeries.one(params, nx)]
    for _ in range(1, nx):
        powers.append(powers[-1] * u)
    return tuple(powers)


def substitute_onepx_power(f: PadicSeries, c: int | PadicElt) -> PadicSeries:
    """f((1+x)^c - 1), for an integer or p-adic exponent c."""
    if isinstance(c, PadicElt) and c.params != f.params:
        raise ParamMismatch("exponent lives over a different ring")
    powers = _subst_powers(f.params, f.nx, _exponent_key(c))
    acc = PadicSeries.zero(f.params, f.nx)
    for i, ci in enumerate(f.coeffs):
        if not ci.is_zero_at_cap() or ci.cap < f.params.prec_pi:
            acc = acc + powers[i].scale(ci)
    return acc


def frobenius(f: PadicSeries) -> PadicSeries:
    """phi(f) = f((1+x)^p - 1)."""
    return substitute_onepx_power(f, f.params.p)


def gamma_act(f: PadicSeries, chi_gamma: int | PadicElt) -> PadicSeries:
    """gamma(f) = f((1+x)^chi - 1) for the chosen generator value chi."""
    return substitute_onepx_power(f, chi_gamma)


def mat_substitute(m: MatrixSeries, c: int | PadicElt) -> MatrixSeries:
    return MatrixSeries(*(substitute_onepx_power(s, c) for s in m.entries()))


def mat_frobenius(m: MatrixSeries) -> MatrixSeries:
    return mat_substitute(m, m.params.p)


def mat_gamma(m: MatrixSeries, chi_gamma: int | PadicElt) -> MatrixSeries:
    return mat_substitute(m, chi_gamma)


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
    """
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

    g: list[PadicElt | None] = [None] * ng
    for j in range(ng - 1, -1, -1):
        acc = f.coeff(j + d)
        for i in range(d):
            jj = j + d - i
            if jj < ng and g[jj] is not None:
                acc = acc - lower[i] * g[jj]
        # truncation error: unknown g-coefficients above x^(ng-1) re-enter
        # through `lower`, each pass costing at least delta
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
