"""Exact arithmetic over O_E = Z_p[pi]/(pi^e - p), with zealous precision caps.

Elements are stored as length-e digit vectors (coefficients of 1, pi, ...,
pi^(e-1)) of arbitrary-precision integers, together with a per-element cap c:
the element is known modulo pi^c.  The canonical representative reduces digit
j modulo p^ceil((c-j)/e), which is exactly the digit-wise description of the
ideal pi^c O_E.  Valuations are rational with v(p) = 1, v(pi) = 1/e; internally
we work with the integer pi-valuation (e times the rational one).

Precision propagation is zealous and never claims digits the inputs do not
determine:

* add/sub: min of caps;
* mul: min(cap_x + valpi(y), cap_y + valpi(x), prec_pi);
* division by a unit: min of caps;
* internal exact division (quotient known integral): (valpi(x) - valpi(y)) +
  min of relative precisions.

Anything indistinguishable from zero at its cap has valuation "bottom",
reported as None.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Iterable

from .errors import (
    DivisionByNonUnit,
    DomainError,
    InexactDivision,
    OutOfConvergenceDomain,
    ParamMismatch,
    PrecisionExhausted,
    RamifiedUnsupported,
    ZeroInput,
)

__all__ = [
    "PadicParams",
    "PadicElt",
    "ScaledElt",
    "val",
    "val_or_cap",
    "vp",
    "teichmuller_decompose",
    "plog",
    "pexp",
    "binom_coeffs",
]


# --------------------------------------------------------------------------- #
# primality (inputs are user-supplied; p must be an odd prime)
# --------------------------------------------------------------------------- #

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:  # deterministic below 3.3e24, overwhelming beyond
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_odd_prime(p: int) -> None:
    """Refuse any p that is not an odd prime, before it reaches arithmetic mod p."""
    if p < 3 or not _is_prime(p):
        raise DomainError(f"p must be an odd prime, got {p}")


def check_ramification(e: int) -> None:
    """Refuse a ramification index below 1."""
    if e < 1:
        raise DomainError(f"ramification index must be >= 1, got {e}")


def vp(q: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero integer or rational, for p >= 2."""
    if p < 2:
        raise DomainError(f"valuation base must be >= 2, got {p}")
    if q == 0:
        raise ZeroInput("vp(0) undefined")
    if type(q) is Fraction:   # an exact type test: isinstance goes through ABC dispatch
        return vp(q.numerator, p) - vp(q.denominator, p)
    v = 0
    while q % p == 0:
        q //= p
        v += 1
    return v


# --------------------------------------------------------------------------- #
# parameters
# --------------------------------------------------------------------------- #

# the largest prec_pi: it bounds the row of digit moduli (prec_pi + e entries,
# e <= prec_pi) and lies above the default budget at m = 1 up to weight 45 (e = 1)
MAX_PREC_PI = 4096

# the largest x-precision: the (1+x)^c - 1 tables hold about nx^2 / 2 values of
# prec_pi digits each and their build grows by about 5x per doubling of nx; at
# the maximum, a p = 3, k = 2 seed at its default cap 533 takes about 12 s and
# 113 MB on a 2-vCPU x86-64 VM
MAX_PREC_X = 1024


# equal rings share a row, so cached elements of fresh rings pin only that;
# at MAX_PREC_PI and p = 3 a row holds about 2.2 MB, so 8 rows about 18 MB
@lru_cache(maxsize=8)
def _digit_tables(p: int, e: int, prec: int) -> tuple[tuple[int, ...], dict[int, int]]:
    powers = list(accumulate(repeat(p, -(-prec // e)), mul, initial=1))
    row = tuple([powers[-(-t // e)] for t in range(prec + 1)] + [1] * (e - 1))
    return row, {q: t for t, q in enumerate(powers)}


@dataclass(frozen=True)
class PadicParams:
    """Base ring O_E = Z_p[pi]/(pi^e - p), the working pi-adic cap, and its moduli.

    prec_pi is the hard ceiling: no element ever claims more than prec_pi
    pi-adic digits, and it is at most MAX_PREC_PI.  Every modulus is read from
    one row of p^ceil(t/e), -e < t <= prec_pi, prec_pi + e entries (8192 at
    e = prec_pi = 4096): digit j of an element known mod pi^c is known mod
    p^ceil((c - j)/e), the row at c - j.  e is bounded by prec_pi too: at a cap
    below e, p = pi^e is zero and no valuation of p is visible.
    """

    p: int
    e: int = 1
    prec_pi: int = 20

    def __post_init__(self) -> None:
        check_odd_prime(self.p)
        check_ramification(self.e)
        if self.prec_pi < 1:
            raise PrecisionExhausted("prec_pi must be >= 1")
        if self.prec_pi > MAX_PREC_PI:
            raise PrecisionExhausted(f"prec_pi {self.prec_pi} exceeds the maximum {MAX_PREC_PI}")
        if self.e > self.prec_pi:
            raise PrecisionExhausted(f"ramification index {self.e} exceeds prec_pi {self.prec_pi}")

    @cached_property
    def digit_tables(self) -> tuple[tuple[int, ...], dict[int, int]]:
        """(row, log): row[t] = p^ceil(t/e) for -e < t <= prec_pi, log[p^t] = t.

        The row is indexed by t itself: its last e - 1 entries are the 1s of
        t < 0, which a negative index reads.  Only this module reads it.
        """
        return _digit_tables(self.p, self.e, self.prec_pi)

    def modulus(self, cap: int) -> int:
        """p^ceil(cap/e), 0 <= cap <= prec_pi: digit 0's modulus, a multiple of the others'."""
        return self.digit_tables[0][cap]


def _check_same(a: "PadicElt", b: "PadicElt") -> None:
    if a.params != b.params:
        raise ParamMismatch(f"{a.params} vs {b.params}")


# --------------------------------------------------------------------------- #
# elements
# --------------------------------------------------------------------------- #

class PadicElt:
    """An element of O_E known modulo pi^cap, in canonical digit form."""

    __slots__ = ("params", "digits", "cap")

    def __init__(self, params: PadicParams, digits: Iterable[int], cap: int):
        ds = list(digits)
        if len(ds) != params.e:
            raise ParamMismatch(f"expected {params.e} digits, got {len(ds)}")
        cap = min(cap, params.prec_pi)
        if cap < 1:
            raise PrecisionExhausted("element cap fell below one digit")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "digits", tuple(_canon(params, ds, cap)))
        object.__setattr__(self, "cap", cap)

    def __setattr__(self, *_):  # immutable
        raise AttributeError("PadicElt is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_int(cls, params: PadicParams, n: int, cap: int | None = None) -> "PadicElt":
        c = params.prec_pi if cap is None else cap
        return cls(params, [n] + [0] * (params.e - 1), c)

    @classmethod
    def from_rational(cls, params: PadicParams, q: Fraction | int) -> "PadicElt":
        """q at cap prec_pi; DomainError for a q outside Z_p."""
        q = Fraction(q)
        if q.denominator % params.p == 0:
            raise DomainError(f"{q} is not in Z_p (denominator divisible by p)")
        return cls.from_int(params, q.numerator).div_unit(cls.from_int(params, q.denominator))

    @classmethod
    def zero(cls, params: PadicParams, cap: int | None = None) -> "PadicElt":
        return cls.from_int(params, 0, cap)

    @classmethod
    def one(cls, params: PadicParams, cap: int | None = None) -> "PadicElt":
        return cls.from_int(params, 1, cap)

    # -- basic queries ---------------------------------------------------------

    def valpi(self) -> int | None:
        """Integer pi-adic valuation, or None if zero at this cap."""
        v = self.valpi_or_cap()
        return None if v == self.cap else v

    def valpi_or_cap(self) -> int:
        return _valpi_or_cap(self.params, self.digits, self.cap)

    def is_zero_at_cap(self) -> bool:
        return all(d == 0 for d in self.digits)

    def is_unit(self) -> bool:
        return self.digits[0] % self.params.p != 0

    def lift_int(self) -> int:
        """The canonical integer representative (e = 1 only)."""
        if self.params.e != 1:
            raise RamifiedUnsupported("integer lift needs e = 1")
        return self.digits[0]

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "PadicElt") -> "PadicElt":
        _check_same(self, other)
        c = min(self.cap, other.cap)
        return PadicElt(self.params, [a + b for a, b in zip(self.digits, other.digits)], c)

    def __sub__(self, other: "PadicElt") -> "PadicElt":
        _check_same(self, other)
        c = min(self.cap, other.cap)
        return PadicElt(self.params, [a - b for a, b in zip(self.digits, other.digits)], c)

    def __neg__(self) -> "PadicElt":
        return PadicElt(self.params, [-d for d in self.digits], self.cap)

    def __mul__(self, other: "PadicElt") -> "PadicElt":
        _check_same(self, other)
        prod = _ring_mul(self.params, self.digits, other.digits)
        c = min(
            self.cap + other.valpi_or_cap(),
            other.cap + self.valpi_or_cap(),
            self.params.prec_pi,
        )
        return PadicElt(self.params, prod, c)

    def scale_int(self, n: int) -> "PadicElt":
        return self * PadicElt.from_int(self.params, n)

    def __pow__(self, n: int) -> "PadicElt":
        if n < 0:
            return self.invert() ** (-n)
        r = PadicElt.one(self.params, min(self.cap, self.params.prec_pi))
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b if n > 1 else b
            n >>= 1
        return r

    def invert(self) -> "PadicElt":
        """Inverse of a unit, by Newton iteration z <- z(2 - xz)."""
        if not self.is_unit():
            raise DivisionByNonUnit(f"not a unit at cap: {self!r}")
        p = self.params.p
        if self.params.e == 1:  # unramified: one native modular inverse
            inv = pow(self.digits[0], -1, self.params.modulus(self.cap))
            return PadicElt(self.params, [inv], self.cap)
        z = PadicElt.from_int(self.params, pow(self.digits[0] % p, -1, p), self.cap)
        two = PadicElt.from_int(self.params, 2, self.cap)
        for _ in range(self.cap.bit_length() + 2):
            z = z * (two - self * z)
        one = PadicElt.one(self.params, self.cap)
        if not (self * z - one).is_zero_at_cap():
            raise PrecisionExhausted("unit inversion failed to converge")
        return z

    def div_unit(self, other: "PadicElt") -> "PadicElt":
        """Division by a unit; cap is min of the two caps."""
        q = self * other.invert()
        return q.reduce_cap(min(self.cap, other.cap, q.cap))

    # -- pi shifts and exact division -------------------------------------------

    def pi_mul(self, t: int) -> "PadicElt":
        """Multiply by pi^t (t >= 0); cap clipped at prec_pi."""
        if t < 0:
            return self.pi_div_exact(-t)
        if t == 0:
            return self
        cap = min(self.cap + t, self.params.prec_pi)
        if t >= cap:   # pi^t x vanishes at its cap: p^t is never formed
            return PadicElt.zero(self.params, cap)
        return PadicElt(self.params, _pi_shift(self.params, self.digits, t), cap)

    def pi_div_exact(self, t: int) -> "PadicElt":
        """Divide by pi^t; every digit must be exactly divisible."""
        if t < 0:
            return self.pi_mul(-t)
        if t == 0:
            return self
        return PadicElt(
            self.params, _pi_div_digits(self.params, self.digits, self.cap, t), self.cap - t
        )

    def divide_exact(self, other: "PadicElt") -> "PadicElt":
        """x / y when y | x in O_E; sharp zealous precision.

        Quotient cap = (valpi(x) - valpi(y)) + min of relative precisions.
        Raises InexactDivision when valuations forbid an integral quotient.
        """
        _check_same(self, other)
        t = other.valpi()
        if t is None:
            raise DivisionByNonUnit("divisor indistinguishable from zero")
        if self.is_zero_at_cap():
            c = self.cap - t
            if c < 1:
                raise PrecisionExhausted("exact division: zero lost all precision")
            return PadicElt.zero(self.params, c)
        s = self.valpi()
        if s < t:
            raise InexactDivision(f"valpi {s} < divisor valpi {t}")
        ux = self.pi_div_exact(s)
        uy = other.pi_div_exact(t)
        q = ux.div_unit(uy)
        return q.pi_mul(s - t)

    # -- precision plumbing ------------------------------------------------------

    def reduce_cap(self, cap: int) -> "PadicElt":
        if cap >= self.cap:
            return self
        return PadicElt(self.params, self.digits, cap)

    def same_at_cap(self, other: "PadicElt") -> bool:
        """Congruent modulo pi^min(caps)?"""
        return (self - other).is_zero_at_cap()

    # -- dunder misc ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PadicElt)
            and self.params == other.params
            and self.digits == other.digits
            and self.cap == other.cap
        )

    def __hash__(self) -> int:
        return hash((self.params, self.digits, self.cap))

    def __repr__(self) -> str:
        if self.params.e == 1:
            return f"{self.digits[0]} + O({self.params.p}^{self.cap})"
        return f"{list(self.digits)} + O(pi^{self.cap})"


# --------------------------------------------------------------------------- #
# rational valuation
# --------------------------------------------------------------------------- #

def val(x: PadicElt) -> Fraction | None:
    """Valuation normalized by v(p) = 1, or None for zero-at-cap."""
    v = x.valpi()
    return None if v is None else Fraction(v, x.params.e)


def val_or_cap(x: PadicElt) -> Fraction:
    return Fraction(x.valpi_or_cap(), x.params.e)


# --------------------------------------------------------------------------- #
# scaled elements: unit * pi^exp, exp any integer (values in E, not just O_E)
# --------------------------------------------------------------------------- #

class ScaledElt:
    """mantissa * pi^exp with the pi-power carried exactly.

    Keeps relative precision through long products and genuinely negative
    valuations (character values like 1/a_p), neither of which the capped
    integral representation can express.
    """

    __slots__ = ("mantissa", "exp")

    def __init__(self, mantissa: PadicElt, exp: int = 0):
        v = mantissa.valpi()
        if v:
            mantissa = mantissa.pi_div_exact(v)
            exp += v
        object.__setattr__(self, "mantissa", mantissa)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, *_):
        raise AttributeError("ScaledElt is immutable")

    @classmethod
    def from_rational(cls, params: PadicParams, q: Fraction | int) -> "ScaledElt":
        q = Fraction(q)
        if q == 0:
            return cls(PadicElt.zero(params), 0)
        p, e = params.p, params.e
        vn, vd = vp(q.numerator, p), vp(q.denominator, p)
        num = PadicElt.from_int(params, q.numerator // p ** vn)
        den = PadicElt.from_int(params, q.denominator // p ** vd)
        return cls(num.div_unit(den), e * (vn - vd))

    @property
    def params(self) -> PadicParams:
        return self.mantissa.params

    def is_zero_at_floor(self) -> bool:
        return self.mantissa.is_zero_at_cap()

    def valpi(self) -> int | None:
        """Exact integer pi-valuation (None when zero at floor)."""
        return None if self.is_zero_at_floor() else self.exp

    def floor(self) -> int:
        """The value is known modulo pi^floor()."""
        return self.exp + self.mantissa.cap

    def mul(self, other: "ScaledElt | PadicElt") -> "ScaledElt":
        if isinstance(other, PadicElt):
            other = ScaledElt(other)
        return ScaledElt(self.mantissa * other.mantissa, self.exp + other.exp)

    def div(self, other: "ScaledElt | PadicElt") -> "ScaledElt":
        if isinstance(other, PadicElt):
            other = ScaledElt(other)
        if other.is_zero_at_floor():
            raise DivisionByNonUnit("scaled divisor indistinguishable from zero")
        return ScaledElt(self.mantissa.div_unit(other.mantissa), self.exp - other.exp)

    def power(self, n: int) -> "ScaledElt":
        if n < 0:
            if self.is_zero_at_floor():
                raise ZeroInput("cannot invert zero")
            return ScaledElt(self.mantissa.invert() ** (-n), self.exp * n)
        return ScaledElt(self.mantissa ** n if n else PadicElt.one(self.params), self.exp * n)

    def to_padic(self) -> PadicElt:
        """Collapse to an integral element; fails if the value is not in O_E."""
        if self.exp >= 0:
            return self.mantissa.pi_mul(self.exp)
        if self.is_zero_at_floor():
            c = self.floor()
            if c < 1:
                raise PrecisionExhausted("scaled zero has no integral digits left")
            return PadicElt.zero(self.params, c)
        raise InexactDivision(f"value has valuation pi^{self.exp} < 0")

    def __repr__(self) -> str:
        return f"pi^{self.exp} * ({self.mantissa!r})"


# --------------------------------------------------------------------------- #
# integer kernel
# --------------------------------------------------------------------------- #
#
# Teichmueller, log, exp and the running quotients run on digit lists plus one
# cap per value, with the cap rules of the module docstring.  A value that feeds only a
# sum may be carried modulo p^ceil(cap/e), a multiple of its digit moduli: the
# sum is reduced once, at a cap never above that of a term.  At e = 1 the log/exp
# sum and the running quotients carry each value as one int (canonical digit
# d % p^cap, valuation from gcd(d, p^cap), pi-shift d * p^t), since there the
# digit-list loops, the only path at e > 1, spend most of their time building
# one-element lists.

def _canon(params: PadicParams, ds, cap: int) -> list[int]:
    """Canonical digits at cap (what PadicElt stores)."""
    row = params.digit_tables[0]
    if params.e == 1:
        return [ds[0] % row[cap]]
    return [d % row[cap - j] for j, d in enumerate(ds)]


def _digit_moduli(params: PadicParams, j: int, caps):
    """The moduli p^ceil((c - j)/e) of digit j at each cap c, lazily."""
    row = params.digit_tables[0]
    return map(row.__getitem__, map(sub, caps, repeat(j)) if j else caps)


def _valpi_or_cap(params: PadicParams, ds, cap: int) -> int:
    """valpi-or-cap of digits known at cap, reduced or not.

    gcd(d, modulus) is p^vp(d), or the modulus itself when d is a multiple of
    it (zero at cap); the log map gives its exponent.
    """
    row, log = params.digit_tables
    if params.e == 1:   # gcd(0, p^cap) = p^cap: a zero digit gives the cap itself
        return log[math.gcd(ds[0], row[cap])]
    v = cap
    for j, d in enumerate(ds):
        if d:
            w = j + params.e * log[math.gcd(d, row[cap - j])]
            if w < v:
                v = w
    return v


def _valpi_or_caps(params: PadicParams, planes, caps) -> tuple[int, ...]:
    """`_valpi_or_cap` of each coefficient of digit planes at the given caps.

    An all-zero plane s is skipped: its s + e ceil((c - s)/e) is never below c.
    """
    log, e = params.digit_tables[1], params.e
    per_digit = [
        [s + e * log[g] for g in map(math.gcd, plane, _digit_moduli(params, s, caps))]
        for s, plane in enumerate(planes) if any(plane)
    ]
    return tuple(list(map(min, caps, *per_digit)) if per_digit else caps)


def _ring_mul(params: PadicParams, a, b) -> list[int]:
    """Unreduced digits of a * b in Z[pi]/(pi^e - p)."""
    e = params.e
    if e == 1:
        return [a[0] * b[0]]
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    for t in range(2 * e - 2, e - 1, -1):  # pi^e = p
        prod[t - e] += prod[t] * params.p
    return prod[:e]


def _pi_shift(params: PadicParams, ds, t: int) -> list[int]:
    """Digits of pi^t * x for t >= 0 (pi^e = p carries the top digits round)."""
    if params.e == 1:
        return [ds[0] * params.p ** t]
    q, r = divmod(t, params.e)
    pq, k = params.p ** q, params.e - r
    if not r:
        return [d * pq for d in ds]
    return [d * pq * params.p for d in ds[k:]] + [d * pq for d in ds[:k]]


def _pi_unshift(params: PadicParams, ds, t: int) -> list[int]:
    """Digits of x / pi^t where t <= valpi(x), so every division is exact."""
    if params.e == 1:
        return [ds[0] // params.p ** t]
    q, r = divmod(t, params.e)
    pq = params.p ** q
    return [d // pq for d in ds[r:]] + [d // (pq * params.p) for d in ds[:r]]


def _pi_div_digits(params: PadicParams, ds, cap: int, t: int) -> list[int]:
    """Digits of x / pi^t, t >= 1, for canonical digits x known at cap.

    InexactDivision when v(x) < t for a nonzero x, else PrecisionExhausted
    when the quotient would keep no digit (cap <= t).
    """
    v = _valpi_or_cap(params, ds, cap)
    if v < t and v < cap:
        raise InexactDivision("pi does not divide element")
    if cap - t < 1:
        raise PrecisionExhausted(f"cap {cap} cannot absorb pi^{t} division")
    return _pi_unshift(params, ds, t)


def _running_quotients(params: PadicParams, factors, fail) -> list[tuple[tuple[int, ...], int]]:
    """[1, q_1, ..., q_N] with q_n = f_1 ... f_n / n!, the f_n given as (digits, cap).

    Each q_n is returned as the (digits, cap) a PadicElt of it would hold.  As
    in ScaledElt, q_n is a unit (or zero) mantissa times an exact pi-power,
    and ``fail(n)`` is raised for the first nonzero q_n outside O_E.
    """
    e, p, prec = params.e, params.p, params.prec_pi
    out = [((1,) + (0,) * (e - 1), prec)]
    mcap, mv, exp = prec, 0, 0   # mv: valpi-or-cap of the running mantissa m
    if e == 1:   # the same steps on the one digit, with no digit lists in between
        row, log = params.digit_tables
        m = 1
        for n, (f, fcap) in enumerate(factors, 1):
            f, fexp = f[0], 0
            fv = log[math.gcd(f, row[fcap])]
            if fv < fcap:
                f, fcap, fexp, fv = f // p ** fv, fcap - fv, fv, 0
            cap = min(mcap + fv, fcap + mv, prec)
            vn = vp(n, p)
            modulus = row[cap]
            m = m * f * pow(n // p ** vn, -1, modulus) % modulus
            mcap, mv, exp = cap, (cap if mv or fv else 0), exp + fexp - vn
            if mv:
                if exp + mcap < 1:
                    raise PrecisionExhausted("scaled zero has no integral digits left")
                out.append(((0,), min(exp + mcap, prec)))
            elif exp < 0:
                raise fail(n)
            else:
                cap = min(mcap + exp, prec)
                out.append(((m * p ** exp % row[cap],), cap))
        return out
    m = [1] + [0] * (e - 1)
    for n, (f, fcap) in enumerate(factors, 1):
        # the valuation of unreduced digits is exact, so is the division by pi^fv
        fv, fexp = _valpi_or_cap(params, f, fcap), 0
        if fv < fcap:                 # normalise f to unit * pi^fexp
            f, fcap, fexp, fv = _pi_unshift(params, f, fv), fcap - fv, fv, 0
        cap = min(mcap + fv, fcap + mv, prec)
        vn = vp(n, p)
        modulus = params.modulus(cap)
        inv = pow(n // p ** vn, -1, modulus)
        # m feeds only products and the canonical q_n, so it is carried modulo
        # p^ceil(cap/e), a multiple of its digit moduli
        m = [d * inv % modulus for d in _ring_mul(params, m, f)]
        mcap, mv, exp = cap, (cap if mv or fv else 0), exp + fexp - e * vn
        if mv:
            if exp + mcap < 1:
                raise PrecisionExhausted("scaled zero has no integral digits left")
            out.append(((0,) * e, min(exp + mcap, prec)))
        elif exp < 0:
            raise fail(n)
        else:
            cap = min(mcap + exp, prec)
            out.append((tuple(_canon(params, _pi_shift(params, m, exp), cap)), cap))
    return out


# --------------------------------------------------------------------------- #
# Teichmueller
# --------------------------------------------------------------------------- #

def teichmuller_decompose(x: PadicElt) -> tuple[int, PadicElt, PadicElt]:
    """x = p^v * omega * <x> with omega^(p-1) = 1 and <x> in 1 + pZ_p.

    Unramified case only.  Returns (v, omega, angle).
    """
    params = x.params
    if params.e != 1:
        raise RamifiedUnsupported("Teichmueller lift needs e = 1")
    v = x.valpi()
    if v is None:
        raise ZeroInput("cannot decompose zero at cap")
    p, cap = params.p, x.cap - v
    mod = params.modulus(cap)
    u = x.digits[0] // p ** v
    # u^(p^j) is fixed mod p^(j+1): omega = u^(p^(cap-1)) mod p^cap
    w = pow(u, p ** (cap - 1), mod)
    angle = u * pow(w, -1, mod) % mod
    if (angle - 1) % p:
        raise DomainError("angle component not in 1 + pZ_p")
    return v, PadicElt(params, [w], cap), PadicElt(params, [angle], cap)


# --------------------------------------------------------------------------- #
# log / exp
# --------------------------------------------------------------------------- #

def _unit_power_sum(params: PadicParams, z, cap: int, t: int, acc, terms) -> PadicElt:
    """acc + sum_n u^n pi^(s_n) / c_n for z = u pi^t known at cap, integers c_n prime to p.

    ``terms`` yields (1/c_n modulo p^ceil(cap/e), s_n).
    """
    e = params.e
    cu = cap - t
    mod = params.modulus(cu)
    u = _pi_unshift(params, _canon(params, z, cap), t)
    if e == 1:   # the same sum on the one digit, with no digit lists in between
        p, u, un, a = params.p, u[0], 1, acc[0]
        for inv, shift in terms:
            un = un * u % mod
            a += un * inv * p ** shift
            cap = min(cap, cu + shift)
        return PadicElt(params, [a], cap)
    un = [1] + [0] * (e - 1)
    for inv, shift in terms:
        un = [d % mod for d in _ring_mul(params, un, u)]
        acc = list(map(add, acc, _pi_shift(params, [d * inv for d in un], shift)))
        cap = min(cap, cu + shift)
    return PadicElt(params, acc, cap)


@lru_cache(maxsize=64)   # psi bases recur across calls; Teichmueller angles rarely do
def plog(x: PadicElt) -> PadicElt:
    """p-adic logarithm, defined for v(x - 1) >= 1/e.

    Terms (-1)^(n+1) (x-1)^n / n are accumulated in factored unit*pi^t form so
    the divisions by n cost relative precision only where they must.
    """
    params = x.params
    e, p, cap = params.e, params.p, x.cap
    z = [x.digits[0] - 1, *x.digits[1:]]
    t = _valpi_or_cap(params, z, cap)
    if t == cap:
        return PadicElt.zero(params, cap)
    if t < 1:
        raise OutOfConvergenceDomain(f"v(x-1) = {Fraction(t, e)} < 1/e")
    mod = params.modulus(cap)

    def terms():
        n, width = 1, 1            # width: number of base-p digits of n
        while n < e or n * t - e * width < cap:
            vn = vp(n, p)
            if n * t - e * vn < 1:
                raise OutOfConvergenceDomain(
                    f"log term {n} has valuation {Fraction(n * t - e * vn, e)}; "
                    "series leaves the integral ring"
                )
            yield pow((-1) ** (n + 1) * (n // p ** vn), -1, mod), n * t - e * vn
            n += 1
            width += n == p ** width

    return _unit_power_sum(params, z, cap, t, [0] * e, terms())


def pexp(y: PadicElt) -> PadicElt:
    """p-adic exponential, defined for v(y) > 1/(p-1)."""
    params = y.params
    e, p, cap = params.e, params.p, y.cap
    if y.is_zero_at_cap():
        return PadicElt.one(params, cap)
    t = y.valpi()
    if t * (p - 1) <= e:
        raise OutOfConvergenceDomain(f"v(y) = {Fraction(t, e)} <= 1/(p-1); exp diverges")

    mod = params.modulus(cap)

    def terms():
        # 1/(unit part of n!) is built by small inverses, one per term: inverting
        # the product itself would cost a full-size inverse each (cubic in cap)
        fact_inv, vpf, n = 1, 0, 1
        while n * (t * (p - 1) - e) + e < cap * (p - 1):
            vn = vp(n, p)
            vpf += vn
            fact_inv = fact_inv * pow(n // p ** vn, -1, mod) % mod
            yield fact_inv, n * t - e * vpf
            n += 1

    return _unit_power_sum(params, y.digits, cap, t, [1] + [0] * (e - 1), terms())


# --------------------------------------------------------------------------- #
# binomial coefficient series C(s, n) for p-adic s
# --------------------------------------------------------------------------- #

# hits come from back-to-back evaluations at one s; an entry holds n_max + 1
# prec_pi-digit values (about 4 MB at prec_pi 4096), so few are kept
@lru_cache(maxsize=8)
def binom_coeffs(s: PadicElt, n_max: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(C(s,0), ..., C(s,n_max)) by the incremental rule C(s,n) = C(s,n-1)(s-n+1)/n.

    Each C(s,n) is given as its canonical (digits, cap), the fields of the
    PadicElt it equals.  The running value is kept in factored form;
    integrality (automatic for s in Z_p) is checked exactly on the
    pi-exponent, not at the cap.
    """
    d0, rest = s.digits[0], s.digits[1:]
    return tuple(_running_quotients(
        s.params,
        (((d0 - n + 1, *rest), s.cap) for n in range(1, n_max + 1)),
        lambda n: InexactDivision(f"C(s,{n}) not integral; is s in Z_p?"),
    ))
