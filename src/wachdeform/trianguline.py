"""Character-side machinery: the psi interpolation map, evaluation of the
trianguline parameter characters, hypothesis (*), the weight-direction first
reduction, and the Lipschitz estimate for ball-norm-bounded series.

Everything here is exact p-adic arithmetic at a tracked cap.  The two maps
that matter are

  psi_alpha(s) = alpha^s = exp_p(s log_p alpha)      (alpha in 1 + pZ_p, s in Z_p)

evaluated redundantly (exp/log route and binomial route, compared digit for
digit), and the rank-one parameter character

  delta^(s)(x) = mu_{1/a_p}(x) * omega(x)^(1-k) * psi_{<x>}(s)

whose specialization at s = 1 - k collapses to mu_{1/a_p} * chi^(1-k) -- the
identity the weight-side argument pivots on.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .deform import DeformCertificate, check_request, deform_trace
from .errors import (
    DomainError,
    NonpositiveValuation,
    NormViolation,
    PreconditionFails,
    PrecisionExhausted,
    ZeroInput,
)
from .padics import (
    PadicElt,
    PadicParams,
    ScaledElt,
    _canon,
    _ring_mul,
    _running_quotients,
    _valpi_or_cap,
    binom_coeffs,
    check_odd_prime,
    pexp,
    plog,
    teichmuller_decompose,
    val,
    val_or_cap,
)
from .wach import WachData

__all__ = [
    "CoeffBoundReport",
    "LipschitzReport",
    "PsiMap",
    "TriCharacter",
    "char_eval",
    "coeff_bound_check",
    "hypothesis_star",
    "lipschitz_check",
    "psi_eval",
    "radius_to_level",
    "sample_ball_pairs",
    "weight_step",
]


def _angle_offset(alpha: PadicElt) -> tuple[list[int], int | None]:
    """alpha - 1 (digits at alpha's cap) and its valuation, None at zero; alpha in 1 + pZ_p."""
    params = alpha.params
    z = _canon(params, [alpha.digits[0] - 1, *alpha.digits[1:]], alpha.cap)
    v = _valpi_or_cap(params, z, alpha.cap)
    if v < params.e and v < alpha.cap:
        raise DomainError(f"argument not in 1 + pZ_p: v(alpha - 1) = {Fraction(v, params.e)}")
    return z, (None if v == alpha.cap else v)


# --------------------------------------------------------------------------- #
# psi_alpha
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PsiMap:
    """alpha^s as the entire series sum c_n s^n with c_n = (log_p alpha)^n / n!."""

    alpha: PadicElt
    coeffs: tuple[PadicElt, ...]

    @classmethod
    def build(cls, alpha: PadicElt, n_max: int) -> "PsiMap":
        _angle_offset(alpha)
        la = plog(alpha)
        coeffs = _running_quotients(
            alpha.params,
            [(la.digits, la.cap)] * n_max,
            lambda n: NormViolation(f"|c_{n}| > 1: the interpolation series leaves the unit ball"),
        )
        return cls(alpha=alpha,
                   coeffs=tuple(PadicElt(alpha.params, ds, cap) for ds, cap in coeffs))

    def terms_at(self, s: PadicElt) -> list[PadicElt]:
        """The terms c_n s^n, n = 0..n_max - 1."""
        terms, spow = [], PadicElt.one(s.params)
        for n, c in enumerate(self.coeffs):
            if n:
                spow = spow * s
            terms.append(c * spow)
        return terms


def _binomial_route(alpha: PadicElt, z: list[int], t: int | None, s: PadicElt) -> PadicElt:
    """sum_n C(s, n) z^n for z = alpha - 1 of valuation t, on the integer kernel."""
    params = alpha.params
    prec, e = params.prec_pi, params.e
    acc = [1] + [0] * (e - 1)
    if t is None:
        return PadicElt(params, acc, alpha.cap)
    bc = binom_coeffs(s, prec // t + 1)
    cap, zpow, zcap, zv = prec, list(acc), prec, 0
    if e == 1:   # the same sum on the one digit, with no digit lists in between
        z, zpow, total = z[0], 1, 1
        for bd, bcap in bc[1:]:
            zcap = min(zcap + t, alpha.cap + zv, prec)
            zpow, zv = zpow * z % params.modulus(zcap), min(zv + t, zcap)
            cap = min(cap, bcap + zv, zcap + _valpi_or_cap(params, bd, bcap))
            total += bd[0] * zpow
        return PadicElt(params, [total], cap)
    for bd, bcap in bc[1:]:
        # valuations add in O_E, so v(z^n) is min(v(z^(n-1)) + t, cap)
        zcap = min(zcap + t, alpha.cap + zv, prec)
        zpow, zv = _canon(params, _ring_mul(params, zpow, z), zcap), min(zv + t, zcap)
        cap = min(cap, bcap + zv, zcap + _valpi_or_cap(params, bd, bcap))
        acc = list(map(add, acc, _ring_mul(params, bd, zpow)))
    return PadicElt(params, acc, cap)


def psi_eval(alpha: PadicElt, s) -> PadicElt:
    """alpha^s by both the exp/log route and the binomial series.

    The two evaluations must agree at the shared cap; the returned element
    carries that cap.  alpha must lie in 1 + pZ_p and s in Z_p.
    """
    params = alpha.params
    z, t = _angle_offset(alpha)
    if not isinstance(s, PadicElt):
        s = PadicElt.from_rational(params, s)

    exp_path = pexp(s * plog(alpha))
    bin_path = _binomial_route(alpha, z, t, s)
    if not exp_path.same_at_cap(bin_path):
        raise PrecisionExhausted(
            "exp/log and binomial evaluations of alpha^s disagree at cap"
        )
    out = exp_path.reduce_cap(min(exp_path.cap, bin_path.cap))
    if (out.digits[0] - 1) % params.p:    # out - 1 is a unit
        raise PrecisionExhausted("alpha^s drifted outside 1 + pZ_p")
    return out


@dataclass(frozen=True)
class CoeffBoundReport:
    """Outcome of the unit-ball estimate on the interpolation coefficients."""

    alpha_digits: tuple[int, ...]
    n_max: int
    min_coeff_val: Fraction
    nonneg: bool
    strict_from_1: bool
    gouvea_ok: bool

    @property
    def ok(self) -> bool:
        return self.nonneg and self.gouvea_ok


def coeff_bound_check(alpha: PadicElt, n_max: int) -> CoeffBoundReport:
    """Verify v(c_n) >= 0 up to n_max, plus the term-versus-sum domination
    |c_n s^n| <= |psi_alpha(s)| on 8 sampled s in Z_p (composition criterion),
    drawn from a fixed seed so the report is reproducible."""
    params = alpha.params
    psi = PsiMap.build(alpha, n_max)
    vals = [val_or_cap(c) for c in psi.coeffs]
    nonneg = all(v >= 0 for v in vals)
    strict = all(v >= 1 for v in vals[1:])

    rng = random.Random(0)
    gouvea_ok = True
    for _ in range(8):
        s = PadicElt.from_int(params, rng.randrange(params.p ** (params.prec_pi // params.e)))
        terms = psi.terms_at(s)
        g_val = val(sum(terms, PadicElt.zero(params))) or Fraction(0)
        if any(tv is not None and tv < g_val for tv in map(val, terms)):
            gouvea_ok = False
    return CoeffBoundReport(
        alpha_digits=alpha.digits,
        n_max=n_max,
        min_coeff_val=min(vals),
        nonneg=nonneg,
        strict_from_1=strict,
        gouvea_ok=gouvea_ok,
    )


# --------------------------------------------------------------------------- #
# the parameter character delta^(s)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class TriCharacter:
    """delta^(s) = mu_{1/a_p} * omega^(1-k) * psi_{< . >}(s) on Q_p^x."""

    k: int
    a_p: PadicElt
    s: PadicElt

    def __post_init__(self) -> None:
        if self.k < 2:
            raise DomainError(f"weight must be at least 2, got {self.k}")
        if self.a_p.is_zero_at_cap():
            raise ZeroInput("mu_{1/a_p} undefined for a_p = 0")


def char_eval(chr_: TriCharacter, x: PadicElt, vp_shift: int = 0) -> ScaledElt:
    """Evaluate delta^(s) at x * p^vp_shift (the shift encodes denominators).

    The value lives in E^x, not O_E, whenever x carries a p-power and a_p is
    not a unit, so the result is a scaled element.
    """
    params = x.params
    vx = x.valpi()
    if vx is None:
        raise ZeroInput("character undefined at zero")
    if vx % params.e:
        raise DomainError("argument is not in Q_p (fractional valuation)")
    t = vx // params.e + vp_shift
    _, omega, angle = teichmuller_decompose(x)
    inv_ap = ScaledElt(PadicElt.one(params)).div(ScaledElt(chr_.a_p))
    mu_val = inv_ap.power(t)
    om_val = omega ** ((1 - chr_.k) % (params.p - 1))
    psi_val = psi_eval(angle, chr_.s)
    return mu_val.mul(ScaledElt(om_val)).mul(ScaledElt(psi_val))


# --------------------------------------------------------------------------- #
# hypothesis (*) and the weight-direction step
# --------------------------------------------------------------------------- #

def hypothesis_star(p: int, v_ap, m) -> int:
    """Smallest weight k with k >= (3 v(a_p) + m)(1 - p/(p-1)^2)^{-1} + 1."""
    check_odd_prime(p)
    v_ap, m = Fraction(v_ap), Fraction(m)
    if v_ap <= 0:
        raise NonpositiveValuation(f"(*) needs v(a_p) > 0, got {v_ap}")
    if m <= 0:
        raise NonpositiveValuation(f"(*) needs m > 0, got {m}")
    threshold = (3 * v_ap + m) / (1 - Fraction(p, (p - 1) ** 2)) + 1
    return math.ceil(threshold)


def weight_step(w: WachData, m) -> tuple[WachData, DeformCertificate]:
    """One step along the weight direction: deform a_p to a_p + p^(k-1)/a_p.

    After the refusals of `check_request` up to the level, refused outright at
    a_p = 0 and unless hypothesis (*) holds for (k, v(a_p), m); under (*) the
    perturbation has v(eps) = k - 1 - v(a_p), which the delegated deformation
    re-checks against its own bound.
    """
    params = w.params
    m = check_request(params.p, w.chi_gamma, w.k, params.e, m)[0]
    v_ap = val(w.a_p)
    if v_ap is None:
        raise ZeroInput("weight step undefined at a_p = 0 (v(eps) would be infinite)")
    k_min = hypothesis_star(params.p, v_ap, m)
    if w.k < k_min:
        raise PreconditionFails(
            f"(*) fails: k = {w.k} < {k_min} for (p, v(a_p), m) = "
            f"({params.p}, {v_ap}, {m})"
        )
    pk = ScaledElt(PadicElt.one(params), params.e * (w.k - 1))
    eps = pk.div(ScaledElt(w.a_p)).to_padic()
    return deform_trace(w, w.a_p + eps, m)


# --------------------------------------------------------------------------- #
# Lipschitz estimate on the ball |x| <= p^(-r)
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class LipschitzReport:
    """Sampled verification of |g(x) - g(y)| <= p^r |g|_r |x - y|."""

    r: int
    pairs: int                # those with x = y at cap included (inequality vacuous)
    sharpest: Fraction | None  # min of v(g(x)-g(y)) - (v(x-y) - r); None if all vacuous
    equality_attained: bool

    @property
    def ok(self) -> bool:
        return self.sharpest is None or self.sharpest >= 0


def sample_ball_pairs(
    params: PadicParams, r: int, count: int, seed: int = 0
) -> list[tuple[PadicElt, PadicElt]]:
    """Random pairs in p^r Z_p for feeding lipschitz_check."""
    rng = random.Random(seed)
    span = params.p ** max(params.prec_pi // params.e - r, 1)
    out = []
    for _ in range(count):
        x = PadicElt.from_int(params, params.p ** r * rng.randrange(span))
        y = PadicElt.from_int(params, params.p ** r * rng.randrange(span))
        out.append((x, y))
    return out


def lipschitz_check(
    params: PadicParams,
    coeffs,
    r: int,
    samples,
) -> LipschitzReport:
    """Check v(g(x) - g(y)) >= v(x - y) - r over the sampled pairs.

    g is given by finitely many exact rational coefficients a_n (a_0 first)
    subject to the ball-norm bound |g|_r <= 1, i.e. v(a_n) + r n >= 0 for all
    n; the sample points must lie in p^r Z_p.
    """
    if r < 0:
        raise DomainError(f"ball exponent must be nonnegative, got {r}")
    scaled = [ScaledElt.from_rational(params, Fraction(a)) for a in coeffs]
    for n, a in enumerate(scaled):
        if a.is_zero_at_floor():
            continue
        va = Fraction(a.valpi(), params.e)
        if va + r * n < 0:
            raise NormViolation(
                f"|g|_r > 1: coefficient a_{n} has v = {va} < {-r * n}"
            )

    def g_at(x: PadicElt) -> PadicElt:
        acc = PadicElt.zero(params)
        xpow = ScaledElt(PadicElt.one(params))
        for n, a in enumerate(scaled):
            if n:
                xpow = xpow.mul(ScaledElt(x))
            if a.is_zero_at_floor():
                continue
            acc = acc + a.mul(xpow).to_padic()
        return acc

    sharpest: Fraction | None = None
    total = 0
    equality = False
    for x, y in samples:
        for pt in (x, y):
            vpt = val(pt)
            if vpt is not None and vpt < r:
                raise DomainError(f"sample point has |.| > p^-{r}: v = {vpt}")
        total += 1
        diff_in = x - y
        v_in = diff_in.valpi()
        if v_in is None:
            continue
        diff_out = g_at(x) - g_at(y)
        v_out = diff_out.valpi_or_cap()
        slack = Fraction(v_out - v_in, params.e) + r
        if sharpest is None or slack < sharpest:
            sharpest = slack
        if slack == 0 and not diff_out.is_zero_at_cap():
            equality = True
    return LipschitzReport(
        r=r,
        pairs=total,
        sharpest=sharpest,
        equality_attained=equality,
    )


# --------------------------------------------------------------------------- #
# radius-to-level bookkeeping
# --------------------------------------------------------------------------- #

def radius_to_level(r: int, m) -> Fraction:
    """The level n = m + r: weights k' = k mod p^(m+r)(p-1) land mod p^m."""
    if r < 1:
        raise DomainError(f"radius exponent must be a positive integer, got {r}")
    m = Fraction(m)
    if m <= 0:
        raise NonpositiveValuation(f"level must be positive, got {m}")
    return m + r
