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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import (
    DivisionByNonUnit,
    DomainError,
    HenselCriterionFails,
    InexactDivision,
    OutOfConvergenceDomain,
    ParamMismatch,
    PrecisionExhausted,
    RamifiedUnsupported,
    SlopesNotDistinct,
    ZeroInput,
)

__all__ = [
    "PadicParams",
    "PadicElt",
    "ScaledElt",
    "QpMultChar",
    "val",
    "val_or_cap",
    "vp",
    "teichmuller_decompose",
    "plog",
    "pexp",
    "hensel_root",
    "newton_slopes",
    "binom_coeffs",
]


# --------------------------------------------------------------------------- #
# primality (inputs are user-supplied; p must be an odd prime)
# --------------------------------------------------------------------------- #

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


@lru_cache(maxsize=None)
def _ppow(p: int, t: int) -> int:
    return p ** t


def vp(q: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero integer or rational."""
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

@dataclass(frozen=True)
class PadicParams:
    """Base ring O_E = Z_p[pi]/(pi^e - p) and the working pi-adic cap.

    prec_pi is the hard ceiling: no element ever claims more than prec_pi
    pi-adic digits.
    """

    p: int
    e: int = 1
    prec_pi: int = 20

    def __post_init__(self) -> None:
        if self.p < 3 or not _is_prime(self.p):
            raise DomainError(f"p must be an odd prime, got {self.p}")
        if self.e < 1:
            raise DomainError(f"ramification index must be >= 1, got {self.e}")
        if self.prec_pi < 1:
            raise PrecisionExhausted("prec_pi must be >= 1")

    def digit_modulus(self, cap: int, j: int) -> int:
        """Modulus for digit j of an element known mod pi^cap."""
        t = cap - j
        if t <= 0:
            return 1
        return _ppow(self.p, -(-t // self.e))


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
        object.__setattr__(
            self,
            "digits",
            tuple(d % params.digit_modulus(cap, j) for j, d in enumerate(ds)),
        )
        object.__setattr__(self, "cap", cap)

    def __setattr__(self, *_):  # immutable
        raise AttributeError("PadicElt is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_int(cls, params: PadicParams, n: int, cap: int | None = None) -> "PadicElt":
        c = params.prec_pi if cap is None else cap
        return cls(params, [n] + [0] * (params.e - 1), c)

    @classmethod
    def zero(cls, params: PadicParams, cap: int | None = None) -> "PadicElt":
        return cls.from_int(params, 0, cap)

    @classmethod
    def one(cls, params: PadicParams, cap: int | None = None) -> "PadicElt":
        return cls.from_int(params, 1, cap)

    # -- basic queries ---------------------------------------------------------

    def valpi(self) -> int | None:
        """Integer pi-adic valuation, or None if zero at this cap."""
        best: int | None = None
        for j, d in enumerate(self.digits):
            if d:
                w = j + self.params.e * vp(d, self.params.p)
                if best is None or w < best:
                    best = w
        return best

    def valpi_or_cap(self) -> int:
        v = self.valpi()
        return self.cap if v is None else v

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
        p, e = self.params.p, self.params.e
        prod = [0] * (2 * e - 1) if e > 1 else [self.digits[0] * other.digits[0]]
        if e > 1:
            for i, a in enumerate(self.digits):
                if a:
                    for j, b in enumerate(other.digits):
                        if b:
                            prod[i + j] += a * b
            for t in range(2 * e - 2, e - 1, -1):  # pi^e = p
                prod[t - e] += prod[t] * p
            prod = prod[:e]
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
            return PadicElt(
                self.params, [pow(self.digits[0], -1, p ** self.cap)], self.cap
            )
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
        e, p = self.params.e, self.params.p
        ds = list(self.digits)
        for _ in range(t):
            ds = [ds[-1] * p] + ds[:-1] if e > 1 else [ds[0] * p]
        return PadicElt(self.params, ds, min(self.cap + t, self.params.prec_pi))

    def pi_div_exact(self, t: int) -> "PadicElt":
        """Divide by pi^t; every digit must be exactly divisible."""
        if t < 0:
            return self.pi_mul(-t)
        if t == 0:
            return self
        if self.cap - t < 1:
            raise PrecisionExhausted(f"cap {self.cap} cannot absorb pi^{t} division")
        e, p = self.params.e, self.params.p
        ds = list(self.digits)
        for _ in range(t):
            if e == 1:
                if ds[0] % p:
                    raise InexactDivision("pi does not divide element")
                ds = [ds[0] // p]
            else:
                if ds[0] % p:
                    raise InexactDivision("pi does not divide element")
                ds = ds[1:] + [ds[0] // p]
        return PadicElt(self.params, ds, self.cap - t)

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

    def unit_part(self) -> "PadicElt":
        v = self.valpi()
        if v is None:
            raise ZeroInput("zero at cap has no unit part")
        return self.pi_div_exact(v)

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
        num = PadicElt.from_int(params, q.numerator // _ppow(p, vn))
        den = PadicElt.from_int(params, q.denominator // _ppow(p, vd))
        return cls(num.div_unit(den), e * (vn - vd))

    @property
    def params(self) -> PadicParams:
        return self.mantissa.params

    def is_zero_at_floor(self) -> bool:
        return self.mantissa.is_zero_at_cap()

    def valpi(self) -> int | None:
        """Exact integer pi-valuation (None when zero at floor)."""
        return None if self.is_zero_at_floor() else self.exp

    def val(self) -> Fraction | None:
        v = self.valpi()
        return None if v is None else Fraction(v, self.params.e)

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

    def div_int(self, n: int) -> "ScaledElt":
        if n == 0:
            raise ZeroInput("division by zero")
        p, e = self.params.p, self.params.e
        v = vp(n, p)
        u = PadicElt.from_int(self.params, n // _ppow(p, v))
        return ScaledElt(self.mantissa.div_unit(u), self.exp - e * v)

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
# Teichmueller
# --------------------------------------------------------------------------- #

def teichmuller_decompose(x: PadicElt) -> tuple[int, PadicElt, PadicElt]:
    """x = p^v * omega * <x> with omega^(p-1) = 1 and <x> in 1 + pZ_p.

    Unramified case only.  Returns (v, omega, angle).
    """
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


# --------------------------------------------------------------------------- #
# log / exp
# --------------------------------------------------------------------------- #

def _ilog(n: int, p: int) -> int:
    r = 0
    while n >= p:
        n //= p
        r += 1
    return r


def plog(x: PadicElt) -> PadicElt:
    """p-adic logarithm, defined for v(x - 1) >= 1/e.

    Terms (-1)^(n+1) (x-1)^n / n are accumulated in factored unit*pi^t form so
    the divisions by n cost relative precision only where they must.
    """
    params = x.params
    z = x - PadicElt.one(params, x.cap)
    if z.is_zero_at_cap():
        return PadicElt.zero(params, z.cap)
    t = z.valpi()
    if t < 1:
        raise OutOfConvergenceDomain(f"v(x-1) = {Fraction(t, params.e)} < 1/e")
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
            raise OutOfConvergenceDomain(
                f"log term {n} has valuation {Fraction(n * t - e * vn, e)}; "
                "series leaves the integral ring"
            )
        mant = un.div_unit(PadicElt.from_int(params, n // _ppow(p, vn)))
        if n % 2 == 0:
            mant = -mant
        acc = acc + mant.pi_mul(n * t - e * vn)
        n += 1
    return acc.reduce_cap(target)


def pexp(y: PadicElt) -> PadicElt:
    """p-adic exponential, defined for v(y) > 1/(p-1)."""
    params = y.params
    e, p = params.e, params.p
    if y.is_zero_at_cap():
        return PadicElt.one(params, y.cap)
    t = y.valpi()
    if t * (p - 1) <= e:
        raise OutOfConvergenceDomain(
            f"v(y) = {Fraction(t, e)} <= 1/(p-1); exp diverges"
        )
    target = min(y.cap, params.prec_pi)
    u = y.pi_div_exact(t)
    fact_mod = _ppow(p, -(-params.prec_pi // e) + 1)
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
        fact_unit = fact_unit * (n // _ppow(p, vn)) % fact_mod
        mant = un.div_unit(PadicElt.from_int(params, fact_unit))
        acc = acc + mant.pi_mul(n * t - e * vpf)
        n += 1
    return acc.reduce_cap(target)


# --------------------------------------------------------------------------- #
# Hensel / Newton
# --------------------------------------------------------------------------- #

def hensel_root(c1: PadicElt, c0: PadicElt, seed: PadicElt) -> PadicElt:
    """Root of the monic quadratic T^2 + c1 T + c0 near seed.

    Requires v(f(seed)) > 2 v(f'(seed)); raises HenselCriterionFails
    otherwise.  Convergence is quadratic; the final root loses v(f'(root))
    digits of cap relative to the inputs, no more.
    """
    params = seed.params
    _check_same(c1, seed)
    _check_same(c0, seed)

    def f(T: PadicElt) -> PadicElt:
        return T * T + c1 * T + c0

    def fprime(T: PadicElt) -> PadicElt:
        return T + T + c1

    fs, fps = f(seed), fprime(seed)
    vps = fps.valpi()
    if vps is None or fs.valpi_or_cap() <= 2 * vps:
        raise HenselCriterionFails(
            f"v(f(seed)) = {fs.valpi_or_cap()}/{params.e} not > "
            f"2 v(f'(seed)) = {2 * (vps if vps is not None else fps.cap)}/{params.e}"
        )
    T = seed
    for _ in range(64):
        fT = f(T)
        if fT.is_zero_at_cap():
            return T
        T = T - fT.divide_exact(fprime(T))
    raise PrecisionExhausted("Newton iteration failed to stabilize")


def newton_slopes(k: int, v_ap: Fraction | None) -> tuple[Fraction, Fraction]:
    """Slopes of T^2 - a_p T + p^(k-1) when they are distinct.

    v_ap = None means a_p is indistinguishable from zero, so the slopes
    cannot be separated; SlopesNotDistinct either way when v(a_p) >= (k-1)/2.
    """
    if v_ap is None or 2 * v_ap >= k - 1:
        raise SlopesNotDistinct(
            f"v(a_p) = {v_ap} does not lie strictly below (k-1)/2 = {Fraction(k - 1, 2)}"
        )
    return Fraction(v_ap), Fraction(k - 1) - v_ap


# --------------------------------------------------------------------------- #
# binomial coefficient series C(s, n) for p-adic s
# --------------------------------------------------------------------------- #

def binom_coeffs(s: PadicElt, n_max: int) -> list[PadicElt]:
    """[C(s,0), ..., C(s,n_max)] by the incremental rule C(s,n) = C(s,n-1)(s-n+1)/n.

    The running value is kept in factored form; integrality (automatic for
    s in Z_p) is checked exactly on the pi-exponent, not at the cap.
    """
    params = s.params
    out = [PadicElt.one(params)]
    cur = ScaledElt(PadicElt.one(params))
    for n in range(1, n_max + 1):
        cur = cur.mul(s - PadicElt.from_int(params, n - 1)).div_int(n)
        if not cur.is_zero_at_floor() and cur.exp < 0:
            raise InexactDivision(f"C(s,{n}) not integral; is s in Z_p?")
        out.append(cur.to_padic())
    return out


# --------------------------------------------------------------------------- #
# multiplicative characters of Q_p^x
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class QpMultChar:
    """A continuous character Q_p^x -> E^x from the standard generators.

    kind:
      "mu"          x |-> z^(vp(x))            (unramified, z in E^x)
      "chi_power"   x |-> <x>^j with <x> = x p^(-vp(x))  (full unit part)
      "omega_power" x |-> omega(x)^j           (Teichmueller part)
      "product"     pointwise product of factors
    """

    kind: str
    z: ScaledElt | None = None
    exponent: int = 0
    factors: tuple["QpMultChar", ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("mu", "chi_power", "omega_power", "product"):
            raise DomainError(f"unknown character kind {self.kind!r}")
        if self.kind == "mu" and (self.z is None or self.z.is_zero_at_floor()):
            raise DomainError("mu requires a nonzero scale z")

    def evaluate(self, x: PadicElt, vp_shift: int = 0) -> ScaledElt:
        """Value at x * p^vp_shift (the shift admits arguments outside O_E)."""
        params = x.params
        vx = x.valpi()
        if vx is None:
            raise ZeroInput("character undefined at zero")
        if vx % params.e:
            raise DomainError("argument is not in Q_p (fractional valuation)")
        vp_total = vx // params.e + vp_shift
        if self.kind == "mu":
            return self.z.power(vp_total)
        if self.kind == "chi_power":
            return ScaledElt(x.unit_part() ** self.exponent)
        if self.kind == "omega_power":
            _, omega, _ = teichmuller_decompose(x)
            j = self.exponent % (params.p - 1)
            return ScaledElt(omega ** j)
        out = ScaledElt(PadicElt.one(params))
        for f in self.factors:
            out = out.mul(f.evaluate(x, vp_shift))
        return out
