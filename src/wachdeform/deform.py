"""Trace deformation of Wach-module data with machine-checkable certificates.

The pipeline implemented here takes a verified module (P, G), a target trace
a'_p congruent to a_p deep enough p-adically, and produces a deformed pair
(P', G') together with a certificate recording every valuation the congruence
argument leans on:

  1. ``alpha`` computes the precision tax of the Gamma-recursion,
     alpha(r) = sum_{j<=r} v(1 - chi(gamma)^j), checking it at every j <= r.
  2. ``build_h0`` finds a constant H0 with det(Id + H0) = 1 and
     Tr(H0 P(0)) = a'_p - a_p: the rank-one nilpotent s v w^T, w = (-v2, v1),
     at a vector v where the form w^T P(0) v has the least valuation.
  3. ``extend_h`` grows H0 to a polynomial H of degree < k with
     H G = G gamma(H) mod x^k, reading each H_r off the series expansion of
     G gamma(H) - H G; the pass over the finished H re-checks the relation.
  4. ``correct_gamma`` repairs the Gamma-matrix so that (P', G') with
     P' = (Id + H) P satisfies the commutation relation to full x-precision,
     through the order-by-order solver ``wach._solve_orders`` that also
     builds the seed.

Every division is exact with tracked caps; when a theoretical valuation floor
cannot be certified at the working precision the pipeline aborts rather than
emit an under-precise verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .errors import (
    BoundViolated,
    DefectNotDivisible,
    DomainError,
    InexactDivision,
    NeumannDivergence,
    NotAGenerator,
    PreconditionFails,
    PrecisionExhausted,
    ValuationFloorUnreachable,
)
from .padics import (
    PadicElt,
    check_odd_prime,
    check_ramification,
    val,
    val_or_cap,
    vp,
)
from .series import Mat2, MatrixSeries, mat_frobenius, mat_gamma
from .wach import WachData, _solve_orders, check_axioms

__all__ = [
    "DeformCertificate",
    "alpha",
    "build_h0",
    "check_request",
    "converse_bound",
    "correct_gamma",
    "default_chi",
    "deform_trace",
    "deformation_bound",
    "extend_h",
    "is_generator",
    "precision_default",
    "precision_floor",
]


# --------------------------------------------------------------------------- #
# the alpha function
# --------------------------------------------------------------------------- #

def is_generator(p: int, chi_gamma: int) -> bool:
    """chi generates Z_p^x: full order mod p and no premature triviality mod p^2."""
    check_odd_prime(p)
    if chi_gamma < 2 or chi_gamma % p == 0:
        return False
    # order p - 1 mod p: chi^((p-1)/q) != 1 for each prime q | p - 1
    n, q = p - 1, 2
    while n > 1:
        if q * q > n:
            q = n   # what is left is prime
        if n % q == 0:
            if pow(chi_gamma, (p - 1) // q, p) == 1:
                return False
            while n % q == 0:
                n //= q
        q += 1
    return pow(chi_gamma, p - 1, p * p) != 1


def _require_generator(p: int, chi_gamma: int) -> None:
    if not is_generator(p, chi_gamma):   # a p that is not an odd prime is refused first
        raise NotAGenerator(
            f"chi(gamma) = {chi_gamma} does not topologically generate Z_{p}^x"
        )


def default_chi(p: int) -> int:
    """Smallest integer generator of Z_p^x (2 for p = 3 and 5, 3 for p = 7)."""
    c = 2
    while not is_generator(p, c):   # a primitive root mod p^2 lies below p^2
        c += 1
    return c


def _alpha_floor_formula(p: int, r: int) -> int:
    """alpha(r) = sum_i floor(r / ((p-1) p^i)) in O(log r), with no refusal."""
    total, modulus = 0, p - 1
    while modulus <= r:
        total += r // modulus
        modulus *= p
    return total


def alpha(p: int, r: int, chi_gamma: int) -> int:
    """alpha(r), cross-checking the product and floor formulas at every j <= r.

    Linear time in r and constant memory: the product form carries chi^j mod
    p^L, and the floor form sum_i floor(j / ((p-1) p^i)) is kept as a running sum.
    """
    check_odd_prime(p)
    if r < 1:
        raise DomainError(f"alpha needs r >= 1, got {r}")
    _require_generator(p, chi_gamma)
    alpha_r = _alpha_floor_formula(p, r)
    # for a generator, v(chi^j - 1) <= 1 + v_p(j) < L = 2 + floor(log_p r), so
    # chi^j mod p^L keeps every step
    modulus = p * p
    while modulus <= r * p:
        modulus *= p
    moduli = [p - 1]   # (p-1) p^i <= r; each divides the next
    while moduli[-1] * p <= r:
        moduli.append(moduli[-1] * p)
    total = floor_total = 0
    chi_pow = 1
    for j in range(1, r + 1):
        chi_pow = chi_pow * chi_gamma % modulus
        total += vp(chi_pow - 1, p)
        for mod in moduli:   # floor(j / mod) grows by one exactly when mod | j
            if j % mod:
                break
            floor_total += 1
        if floor_total != total:
            raise DomainError(
                f"alpha({j}) mismatch: product form {total}, floor form {floor_total}"
            )
        if total * (p - 1) ** 2 > j * p:
            raise DomainError(f"alpha({j}) = {total} exceeds {j}p/(p-1)^2")
    if total != alpha_r:
        raise DomainError(f"alpha({r}) mismatch: product form {total}, floor form {alpha_r}")
    return total


# --------------------------------------------------------------------------- #
# congruence bound and precision budget
# --------------------------------------------------------------------------- #

def deformation_bound(v_ap: Fraction | int, alpha_k1: int, m: Fraction) -> Fraction:
    """Required v(a_p - a'_p): 2 v(a_p) + alpha(k-1) + m.

    At a_p = 0 only the identity deformation exists; its bound takes v_ap = 0.
    """
    return 2 * Fraction(v_ap) + alpha_k1 + m


def check_request(
    p: int, chi_gamma: int, k: int, e: int, m, a_p=None, eps=None, v=None
) -> tuple[Fraction, int, Fraction | None]:
    """Refuse a deformation request, or return (m, alpha(k-1), bound).

    The refusals come in this order, each before any budget, seeding or file:

      1. p is not an odd prime                      DomainError
      2. chi(gamma) does not generate Z_p^x         NotAGenerator
      3. the weight k is below 2                    DomainError
      4. the ramification index e is below 1        DomainError
      5. the level m is not in (1/e)Z_(>=1)         DomainError
      6. the bound, when eps = a'_p - a_p is given and nonzero:
         a_p = 0 admits only eps = 0, and otherwise
         v(eps) >= 2 v(a_p) + alpha(k-1) + m         BoundViolated

    v gives the valuation (v(p) = 1) of a_p and eps, None at zero: by default
    that of exact rationals, `val` on capped elements.  It is read only after
    p has passed.  bound is None without a_p, and takes v(a_p) = 0 at a_p = 0.
    """
    _require_generator(p, chi_gamma)
    if k < 2:
        raise DomainError(f"weight must be >= 2, got {k}")
    check_ramification(e)
    m = Fraction(m)
    if m * e < 1 or (m * e).denominator != 1:
        raise DomainError(f"congruence level must lie in (1/{e})Z_(>=1), got {m}")
    alpha_k1 = _alpha_floor_formula(p, k - 1)
    if a_p is None:
        return m, alpha_k1, None
    if v is None:
        def v(q):
            return None if q == 0 else vp(q, p)
    v_ap = v(a_p)
    bound = deformation_bound(v_ap or 0, alpha_k1, m)
    v_eps = None if eps is None else v(eps)
    if v_eps is not None:
        if v_ap is None:
            raise BoundViolated("a_p = 0 admits only the identity deformation")
        if v_eps < bound:
            raise BoundViolated(
                f"v(a_p - a'_p) = {v_eps} < 2 v(a_p) + alpha(k-1) + m = {bound}"
            )
    return m, alpha_k1, bound


def precision_floor(e: int, k: int, m: Fraction, alpha_k1: int) -> int:
    """Minimum admissible cap: e * (m + 2 alpha(k-1) + k + 8)."""
    return math.ceil(e * (m + 2 * alpha_k1 + k + 8))


def precision_default(
    p: int, e: int, k: int, m: Fraction, alpha_k1: int, nx: int
) -> int:
    """Floor plus headroom for the per-order drift of the solvers."""
    drift = 2 * (k - 1) ** 2 + math.ceil(nx / (p - 1)) + 8
    return precision_floor(e, k, m, alpha_k1) + e * drift


# --------------------------------------------------------------------------- #
# the constant seed H0
# --------------------------------------------------------------------------- #

def _min_val(m: Mat2 | MatrixSeries, of_caps: bool = False) -> Fraction:
    """The least valpi-or-cap (or cap) over the entries of m, with v(p) = 1."""
    return Fraction(m.min_cap() if of_caps else m.min_val_or_cap(), m.entries()[0].params.e)


def build_h0(p0: Mat2, eps: PadicElt, floor: Fraction) -> Mat2:
    """Constant seed of the deformation: det(Id+H0) = 1, Tr(H0 P0) = eps.

    With P0 = (a b / c d), H0 is the rank-one nilpotent s v w^T, w = (-v2, v1):
    Tr(H0 P0) = s q(v) for the binary form q(v) = c v1^2 + (d-a) v1 v2 - b v2^2,
    so s = eps / q(v).  v is the first of (0,1), (1,0), (1,1) at which
    v(q) = min(v(b), v(c), v(d-a)), the only precision spent; companion P0
    takes v = (0,1) and H0 = ((0,0),(-eps,0)) with no loss.  A P0 that is
    scalar at cap admits no such v and is refused.
    """
    params = eps.params
    if eps.is_zero_at_cap():
        return Mat2.zero(params)
    a, b, c, d = p0.entries()
    d_a = d - a
    v_b, v_c, v_da = (math.inf if x.is_zero_at_cap() else x.valpi_or_cap() for x in (b, c, d_a))
    v_q = min(v_b, v_c)
    q = None
    if v_da < v_q:   # v(c + d - a - b) = v(d - a), unless the caps of b and c hide it
        q = c - b + d_a
        if q.is_zero_at_cap():
            q = None
        else:
            v_q = v_da
    if v_q == math.inf:
        raise DomainError("P(0) is scalar at cap: no rank-one H0 meets Tr(H0 P0) = eps")
    floor_q = floor + Fraction(v_q, params.e)
    v_eps = val_or_cap(eps)
    if v_eps < floor_q:
        raise ValuationFloorUnreachable(f"v(eps) = {v_eps} below the floor {floor_q}")
    zero = PadicElt.zero(params)
    if q is not None:   # v = (1,1)
        s = eps.divide_exact(q)
        h0 = Mat2(-s, s, -s, s)
    elif v_b == v_q:    # v = (0,1), q = -b
        h0 = Mat2(zero, zero, eps.divide_exact(b), zero)
    else:               # v = (1,0), q = c
        h0 = Mat2(zero, eps.divide_exact(c), zero, zero)

    one = PadicElt.from_int(params, 1)
    identity = Mat2.identity(params)
    if not ((identity + h0).det() - one).is_zero_at_cap():
        raise PrecisionExhausted("det(Id + H0) - 1 does not vanish at cap")
    if not ((h0 * p0).trace() - eps).is_zero_at_cap():
        raise PrecisionExhausted("Tr(H0 P0) - eps does not vanish at cap")
    got = _min_val(h0)
    if got < floor:
        raise ValuationFloorUnreachable(
            f"H0 valuation {got} below the required floor {floor}"
        )
    return h0


# --------------------------------------------------------------------------- #
# the Gamma-recursion mod x^k
# --------------------------------------------------------------------------- #

def extend_h(
    h0: Mat2,
    g: MatrixSeries,
    chi_gamma: int,
    floors: tuple[Fraction, ...],
) -> MatrixSeries:
    """Grow H0 to H = H0 + x H_1 + ... + x^{k-1} H_{k-1} with HG = G gamma(H) mod x^k.

    k = len(floors), and floors[r] = alpha(k-1) - alpha(r) + m is the valuation
    H_r must reach; floors[0] is the floor of H0.  Each pass expands
    D = G gamma(H) - H G below x^k with H_r still zero, so D[x^r] = (1 - chi^r) H_r:
    the division spends exactly v(1 - chi^r) of precision.  The pass over the
    finished H re-checks that every order of D below x^k vanishes.
    """
    params = g.params
    if _min_val(h0) < floors[0]:
        raise ValuationFloorUnreachable(
            f"H0 must sit above p^(alpha(k-1)+m) = p^{floors[0]}"
        )
    if not (g.eval0() - Mat2.identity(params)).is_zero_at_cap():
        raise DomainError("gamma-matrix must be Id mod x")

    # D below x^k depends only on H and G below x^k; gamma(H) is taken at full
    # length, whose substitution table the ring has, and then cut
    n = min(len(floors), g.nx)
    gk = g.reduce_nx(n)
    hs: list[Mat2] = [h0]
    while True:
        h = MatrixSeries.from_mats(params, hs, g.nx)
        defect = gk * mat_gamma(h, chi_gamma).reduce_nx(n) - h.reduce_nx(n) * gk
        r = len(hs)
        if r == n:
            break
        divisor = PadicElt.from_int(params, 1 - chi_gamma**r)
        try:
            hr = Mat2(*(x.divide_exact(divisor) for x in defect.coeff(r).entries()))
        except InexactDivision as exc:
            raise PrecisionExhausted(
                f"step {r}: division by 1 - chi^{r} left the integral ring: {exc}"
            )
        hs.append(hr)
        got, cap = _min_val(hr), _min_val(hr, of_caps=True)
        if cap < floors[r]:
            raise PrecisionExhausted(f"step {r}: cap {cap} cannot certify the floor {floors[r]}")
        if got < floors[r]:
            raise ValuationFloorUnreachable(
                f"step {r}: v(H_{r}) = {got} below the floor {floors[r]}"
            )
    for j in range(n):
        if not defect.coeff(j).is_zero_at_cap():
            raise PrecisionExhausted(
                f"recursion output fails HG = G gamma(H) at order {j}"
            )
    return h


# --------------------------------------------------------------------------- #
# Gamma-matrix correction to full x-precision
# --------------------------------------------------------------------------- #

def correct_gamma(
    pp: MatrixSeries,
    g: MatrixSeries,
    k: int,
    chi_gamma: int,
) -> tuple[MatrixSeries, tuple[tuple[int, Fraction], ...]]:
    """Repair G order by order so that (P', G') commute to full x-precision.

    Carries the defect D = P' phi(G') - G' gamma(P'), which lives in the
    integral ring (no series inversion anywhere) and must vanish below x^k;
    zeroing its x^j coefficient, j >= k, is the constant Sylvester problem
    S P0 - p^j P0 S = D[x^j], solved by the seed's loop `wach._solve_orders`
    through the contraction S = R0 + p^{j-k+1} P0 S adj(P0) with
    R0 = D[x^j] adj(P0) / p^{k-1}.  Returns the corrected matrix and the log
    of (order, v(S_j)) for the certificate.
    """
    gamma_pp = mat_gamma(pp, chi_gamma)
    defect = pp * mat_frobenius(g) - g * gamma_pp
    for j in range(min(k, pp.nx)):
        if not defect.coeff(j).is_zero_at_cap():
            raise DefectNotDivisible(
                f"defect has a nonzero x^{j} term below x^{k}"
            )
    return _solve_orders(
        pp, gamma_pp, g, defect, k, k,
        solve_low=None,
        not_divisible=lambda j, exc: NeumannDivergence(
            f"order {j}: defect coefficient not divisible by p^{k - 1} "
            f"(det condition violated): {exc}"
        ),
        diverged=lambda j, sweeps: NeumannDivergence(
            f"order {j}: affine iteration did not stabilize in {sweeps} sweeps"
        ),
    )


# --------------------------------------------------------------------------- #
# the deformation pipeline and its certificate
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class DeformCertificate:
    """Audit trail of one trace deformation a_p -> a'_p at level m."""

    p: int
    e: int
    k: int
    chi_gamma: int
    prec_pi: int
    prec_x: int
    a_p_digits: tuple[int, ...]
    ap_new_digits: tuple[int, ...]
    m: Fraction
    bound_required: Fraction
    bound_observed: Fraction
    bound_ok: bool
    h_valuations: tuple[Fraction, ...]
    h_floors: tuple[Fraction, ...]
    iteration_log: tuple[tuple[int, Fraction], ...]
    p_congruent: bool
    g_congruent: bool
    charpoly_ok: bool
    axioms_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.bound_ok
            and self.p_congruent
            and self.g_congruent
            and self.charpoly_ok
            and self.axioms_ok
        )

    def as_obj(self) -> dict:
        """JSON-ready rendering: the digit tuples as "d0,d1,..." under a_p and
        ap_new, fractions as strings, tuples as lists, and `ok` under "pass"."""
        obj = {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}
        for key in ("a_p", "ap_new"):
            obj[key] = ",".join(map(str, obj.pop(key + "_digits")))
        return obj | {"pass": self.ok}


def _json_value(v):
    if type(v) is Fraction:
        return str(v)
    return [_json_value(x) for x in v] if type(v) is tuple else v


def deform_trace(
    w: WachData, ap_new: PadicElt, m
) -> tuple[WachData, DeformCertificate]:
    """Deform (P, G) to trace a'_p, certifying P = P' and G = G' mod p^m.

    Refuses through `check_request` before touching the matrices, and with
    PrecisionExhausted when a'_p - a_p is zero at a cap below the bound.  On
    success the returned module carries P' = (Id + H) P and the repaired
    gamma-matrix; all valuation floors the congruence argument uses are logged
    in the certificate, which re-verifies the deformed module from scratch.
    """
    params = w.params
    k, chi = w.k, w.chi_gamma
    eps = ap_new - w.a_p
    m, alpha_k1, bound = check_request(params.p, chi, k, params.e, m, w.a_p, eps, val)
    v_eps = val_or_cap(eps)
    if v_eps < bound:   # eps is zero at a cap below the bound
        raise PrecisionExhausted(
            f"cap {v_eps} cannot certify the hypothesis v(eps) >= {bound}"
        )

    report = check_axioms(w)
    if not report.ok:
        raise DomainError("input module fails its axioms; refusing to deform")

    h_floors = tuple(alpha_k1 - _alpha_floor_formula(params.p, r) + m for r in range(k))
    h0 = build_h0(w.P.eval0(), eps, h_floors[0])
    alpha(params.p, k - 1, chi)   # product form against floor form at every j < k
    h = extend_h(h0, w.G, chi, h_floors)
    pp = w.P + h * w.P
    gp, log = correct_gamma(pp, w.G, k, chi)

    wp = WachData(params=params, k=k, a_p=ap_new, chi_gamma=chi, P=pp, G=gp)
    report_p = check_axioms(wp)

    h_vals = tuple(_min_val(h.coeff(r)) for r in range(k))
    cert = DeformCertificate(
        p=params.p,
        e=params.e,
        k=k,
        chi_gamma=chi,
        prec_pi=params.prec_pi,
        prec_x=w.P.nx,
        a_p_digits=w.a_p.digits,
        ap_new_digits=ap_new.digits,
        m=m,
        bound_required=bound,
        bound_observed=v_eps,
        bound_ok=True,
        h_valuations=h_vals,
        h_floors=h_floors,
        iteration_log=log,
        p_congruent=_min_val(w.P - pp) >= m,
        g_congruent=_min_val(w.G - gp) >= m,
        charpoly_ok=report_p.charpoly_ok,
        axioms_ok=report_p.ok,
    )
    return wp, cert


def converse_bound(m, alpha_k1: int) -> Fraction:
    """Necessary valuation of a_p - a'_p for a mod-p^m isomorphism: m - alpha(k-1).

    Only informative when m >= alpha(k-1); refuses otherwise.
    """
    m = Fraction(m)
    if m < alpha_k1:
        raise PreconditionFails(
            f"converse bound needs m >= alpha(k-1) = {alpha_k1}, got {m}"
        )
    return m - alpha_k1
