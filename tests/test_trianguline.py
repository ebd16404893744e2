"""Tests for the character layer: psi interpolation, delta^(s) evaluation,
hypothesis (*), the weight-direction step guards, and the Lipschitz suite."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wachdeform.errors import (
    DomainError,
    NonpositiveValuation,
    NormViolation,
    PreconditionFails,
    PrecisionExhausted,
    ZeroInput,
)
from wachdeform.padics import (
    PadicElt,
    PadicParams,
    ScaledElt,
    binom_coeffs,
    pexp,
    plog,
    val,
)
from wachdeform.trianguline import (
    PsiMap,
    _angle_offset,
    _binomial_route,
    TriCharacter,
    char_eval,
    coeff_bound_check,
    hypothesis_star,
    lipschitz_check,
    psi_eval,
    radius_to_level,
    sample_ball_pairs,
    weight_step,
)
from wachdeform.wach import seed_companion

from qp_characters import QpMultChar

P3 = PadicParams(3, 1, 20)


def elt(n: int, params: PadicParams = P3) -> PadicElt:
    return PadicElt.from_int(params, n)


def scaled_eq(a: ScaledElt, b: ScaledElt) -> bool:
    if a.is_zero_at_floor() or b.is_zero_at_floor():
        return a.is_zero_at_floor() and b.is_zero_at_floor()
    return a.exp == b.exp and a.mantissa.same_at_cap(b.mantissa)


# --------------------------------------------------------------------------- #
# psi_alpha
# --------------------------------------------------------------------------- #

def test_psi_trivial_exponents():
    assert psi_eval(elt(4), 0).same_at_cap(elt(1))
    assert psi_eval(elt(4), 1).same_at_cap(elt(4))
    assert psi_eval(elt(1), 5).same_at_cap(elt(1))


def test_psi_square_root_of_four():
    # the square root of 4 inside 1 + 3Z_3 is -2, not 2
    v = psi_eval(elt(4), Fraction(1, 2))
    assert v.cap >= 18
    assert v.same_at_cap(elt(-2))
    assert (v * v).same_at_cap(elt(4))


def test_psi_integer_powers_match_exact():
    for s in (2, 3, 7):
        assert psi_eval(elt(10), s).same_at_cap(elt(10**s))


def test_psi_domain_checks():
    with pytest.raises(DomainError):
        psi_eval(elt(2), 1)          # 2 is not in 1 + 3Z_3
    with pytest.raises(DomainError):
        psi_eval(elt(4), Fraction(1, 3))   # 1/3 not in Z_3


def test_psi_homomorphism_laws():
    rng = random.Random(41)
    a = elt(4)
    for _ in range(40):
        s, t = rng.randrange(3**10), rng.randrange(3**10)
        lhs = psi_eval(a, s + t)
        rhs = psi_eval(a, s) * psi_eval(a, t)
        assert lhs.same_at_cap(rhs)
    s = rng.randrange(3**10)
    assert (psi_eval(a, s) * psi_eval(a, -s)).same_at_cap(elt(1))


def test_psi_random_alphas_dual_path():
    # the internal exp/log vs binomial comparison is the assertion; any
    # disagreement raises
    rng = random.Random(17)
    for _ in range(20):
        a = elt(1 + 3 * rng.randrange(1, 3**12))
        s = rng.randrange(3**12)
        out = psi_eval(a, s)
        assert not (out - elt(1)).is_unit()


def test_psi_map_series_matches_closed_form():
    psi = PsiMap.build(elt(4), 60)
    assert psi.coeffs[0].same_at_cap(elt(1))
    assert psi.coeffs[1].same_at_cap(plog(elt(4)))
    for s in (0, 1, 11, 3**5 + 2):
        assert sum(psi.terms_at(elt(s)), elt(0)).same_at_cap(psi_eval(elt(4), s))


def test_coeff_bound_check_to_200():
    rep = coeff_bound_check(elt(4), 200)
    assert rep.ok
    assert rep.nonneg and rep.strict_from_1
    assert rep.min_coeff_val == 0        # c_0 = 1
    assert rep.gouvea_ok
    assert rep.n_max == 200
    assert rep.alpha_digits == (4,)


def test_coeff_bound_check_ramified():
    rep = coeff_bound_check(elt(4, PadicParams(3, 2, 12)), 40)
    assert rep.ok
    assert rep.alpha_digits == (4, 0)


# --------------------------------------------------------------------------- #
# psi on the integer kernel against element-by-element references
# --------------------------------------------------------------------------- #
# ref_psi_eval is psi_eval with its angle check and binomial sum written over
# PadicElt, one element operation at a time; ref_psi_map_coeffs is the
# ScaledElt running product behind PsiMap.build.  Digits, cap and exception
# class must agree on mixed caps, at e = 1 and e = 2, in and out of domain.

def ref_require_angle(alpha):
    z = alpha - PadicElt.one(alpha.params, alpha.cap)
    v = z.valpi()
    if v is not None and v < alpha.params.e:
        raise DomainError("argument not in 1 + pZ_p")


def ref_binomial_route(alpha, s):
    params = alpha.params
    z = alpha - PadicElt.one(params, alpha.cap)
    t = z.valpi()
    if t is None:
        return PadicElt.one(params, z.cap)
    n_terms = params.prec_pi // t + 1
    bc = binom_coeffs(s, n_terms)
    acc = PadicElt.one(params)
    zpow = PadicElt.one(params)
    for n in range(1, n_terms + 1):
        zpow = zpow * z
        acc = acc + PadicElt(params, *bc[n]) * zpow
    return acc


def ref_psi_eval(alpha, s):
    params = alpha.params
    ref_require_angle(alpha)
    exp_path = pexp(s * plog(alpha))
    bin_path = ref_binomial_route(alpha, s)
    if not exp_path.same_at_cap(bin_path):
        raise PrecisionExhausted("exp/log and binomial evaluations disagree at cap")
    out = exp_path.reduce_cap(min(exp_path.cap, bin_path.cap))
    if (out - PadicElt.one(params, out.cap)).is_unit():
        raise PrecisionExhausted("alpha^s drifted outside 1 + pZ_p")
    return out


def ref_psi_map_coeffs(alpha, n_max):
    params = alpha.params
    ref_require_angle(alpha)
    la = plog(alpha)
    coeffs = [PadicElt.one(params)]
    cur = ScaledElt(PadicElt.one(params))
    for n in range(1, n_max + 1):
        cur = cur.mul(ScaledElt(la)).div(ScaledElt.from_rational(params, n))
        if not cur.is_zero_at_floor() and cur.exp < 0:
            raise NormViolation(f"|c_{n}| > 1")
        coeffs.append(cur.to_padic())
    return coeffs


def outcome(fn, *args):
    """Digits and cap of the result(s), or the exception class raised."""
    try:
        got = fn(*args)
    except Exception as exc:    # the class is the outcome compared
        return type(exc)
    return [(x.digits, x.cap) for x in (got if isinstance(got, (list, tuple)) else [got])]


PSI_RINGS = [PadicParams(3, 1, 12), PadicParams(5, 1, 8), PadicParams(3, 2, 12)]


@st.composite
def psi_inputs(draw):
    """alpha = 1 + pi^v u with v(alpha - 1) from 0 to 3 (alpha = 1 at cap among them),
    s in Z_p (or, at e = 2, any element) at a low or full cap."""
    params = draw(st.sampled_from(PSI_RINGS))
    e, p, prec = params.e, params.p, params.prec_pi
    caps = st.one_of(st.just(prec), st.integers(1, prec))
    v = draw(st.integers(0, 3 * e))
    u = draw(st.lists(st.integers(0, p ** prec), min_size=e, max_size=e))
    alpha = (PadicElt.one(params) + PadicElt(params, u, prec).pi_mul(v)).reduce_cap(draw(caps))
    s_digits = [draw(st.integers(-p ** prec, p ** prec))] + [
        draw(st.sampled_from([0, 1, p])) for _ in range(e - 1)]
    return alpha, PadicElt(params, s_digits, draw(caps))


@settings(max_examples=200, deadline=None)
@given(psi_inputs())
def test_psi_kernel_matches_reference(inputs):
    alpha, s = inputs
    assert outcome(psi_eval, alpha, s) == outcome(ref_psi_eval, alpha, s)
    # the binomial route on its own: its cap rarely binds in psi_eval's result
    try:
        z, t = _angle_offset(alpha)
    except DomainError:
        return
    assert outcome(_binomial_route, alpha, z, t, s) == outcome(ref_binomial_route, alpha, s)


@settings(max_examples=100, deadline=None)
@given(psi_inputs(), st.integers(0, 30))
def test_psi_map_coeffs_match_reference(inputs, n_max):
    alpha = inputs[0]
    built = outcome(lambda: PsiMap.build(alpha, n_max).coeffs)
    assert built == outcome(ref_psi_map_coeffs, alpha, n_max)


# --------------------------------------------------------------------------- #
# delta^(s)
# --------------------------------------------------------------------------- #

def _tri(k: int = 4, ap: int = 3, s: int | None = None) -> TriCharacter:
    return TriCharacter(k=k, a_p=elt(ap), s=elt(1 - k if s is None else s))


def test_char_at_one_and_p():
    tc = _tri()
    one = char_eval(tc, elt(1))
    assert one.exp == 0 and one.mantissa.same_at_cap(elt(1))
    at_p = char_eval(tc, elt(3))
    assert at_p.exp == -1                       # v(1/a_p) = -1
    unit = elt(3).pi_div_exact(1)
    assert at_p.mantissa.same_at_cap(unit.invert())


def test_char_constructor_validation():
    with pytest.raises(DomainError):
        TriCharacter(k=1, a_p=elt(3), s=elt(0))
    with pytest.raises(ZeroInput):
        TriCharacter(k=4, a_p=PadicElt.zero(P3), s=elt(0))
    with pytest.raises(ZeroInput):
        char_eval(_tri(), PadicElt.zero(P3))


def test_char_multiplicative():
    rng = random.Random(11)
    tc = _tri(s=7)
    for _ in range(30):
        x = elt(rng.randrange(1, 3**10) * 3 ** rng.randrange(0, 3))
        y = elt(rng.randrange(1, 3**10) * 3 ** rng.randrange(0, 3))
        lhs = char_eval(tc, x * y)
        rhs = char_eval(tc, x).mul(char_eval(tc, y))
        assert scaled_eq(lhs, rhs)


def test_char_specialization_at_one_minus_k():
    # delta^(1-k) must equal mu_{1/a_p} * chi^(1-k) on all of Q_p^x
    k = 4
    tc = _tri(k=k, ap=3)
    inv = ScaledElt(PadicElt.one(P3)).div(ScaledElt(elt(3)))
    ref = QpMultChar(
        kind="product",
        factors=(
            QpMultChar(kind="mu", z=inv),
            QpMultChar(kind="chi_power", exponent=1 - k),
        ),
    )
    rng = random.Random(5)
    for _ in range(20):
        u = rng.randrange(1, 3**12)
        while u % 3 == 0:
            u += 1
        x = elt(u * 3 ** rng.randrange(0, 3))
        shift = rng.randrange(-2, 1)
        assert scaled_eq(char_eval(tc, x, shift), ref.evaluate(x, shift))


def test_char_rejects_fractional_valuation():
    params = PadicParams(3, 2, 20)
    pi_elt = PadicElt.from_int(params, 3).pi_div_exact(1)   # valuation 1/2
    tc = TriCharacter(k=4, a_p=PadicElt.from_int(params, 3), s=PadicElt.zero(params))
    with pytest.raises(DomainError):
        char_eval(tc, pi_elt)


# --------------------------------------------------------------------------- #
# hypothesis (*) and weight_step guards
# --------------------------------------------------------------------------- #

def test_hypothesis_star_table():
    assert hypothesis_star(3, 1, 1) == 17
    assert hypothesis_star(5, 1, 1) == 7
    assert hypothesis_star(7, 1, 1) == 6


def test_hypothesis_star_rational_inputs():
    # (3/2 + 1) * 4 + 1 = 11 exactly
    assert hypothesis_star(3, Fraction(1, 2), 1) == 11


def test_hypothesis_star_guards():
    with pytest.raises(NonpositiveValuation):
        hypothesis_star(3, 0, 1)
    with pytest.raises(NonpositiveValuation):
        hypothesis_star(3, 1, 0)
    with pytest.raises(DomainError):
        hypothesis_star(2, 1, 1)


def test_weight_step_refused_below_star():
    params = PadicParams(3, 1, 24)
    w = seed_companion(params, k=2, a_p=PadicElt.from_int(params, 3),
                       chi_gamma=2, nx=12)
    with pytest.raises(PreconditionFails):
        weight_step(w, 1)


def test_weight_step_rejects_ap_zero():
    params = PadicParams(3, 1, 24)
    w = seed_companion(params, k=3, a_p=PadicElt.zero(params), chi_gamma=2, nx=12)
    with pytest.raises(ZeroInput):
        weight_step(w, 1)


def test_weight_step_perturbation_arithmetic():
    # the epsilon the step would feed the pipeline: v(p^(k-1)/a_p) = k-1-v(a_p);
    # at (p,k,a_p,m) = (3,17,3,1) that is 15 >= 2 v(a_p) + alpha(16) + 1 = 13
    from wachdeform.deform import alpha

    assert alpha(3, 16, 2) == 10
    v_eps = Fraction(17 - 1) - 1
    assert v_eps == 15 and v_eps >= 2 * 1 + 10 + 1


# --------------------------------------------------------------------------- #
# Lipschitz suite
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("r", [0, 1, 2])
def test_lipschitz_linear_equality(r):
    pairs = sample_ball_pairs(P3, r, 40, seed=r + 1)
    rep = lipschitz_check(P3, [0, Fraction(1, 3**r)], r, pairs)
    assert rep.ok
    assert rep.sharpest == 0
    assert rep.equality_attained


def test_lipschitz_constant_difference_vanishes():
    pairs = sample_ball_pairs(P3, 1, 10, seed=2)
    rep = lipschitz_check(P3, [Fraction(7)], 1, pairs)
    assert rep.ok
    # g(x) - g(y) = 0 at cap, so the slack is the full remaining precision
    assert rep.sharpest > 10
    assert not rep.equality_attained


def test_lipschitz_square_contracts():
    pairs = sample_ball_pairs(P3, 0, 50, seed=6)
    rep = lipschitz_check(P3, [0, 0, 1], 0, pairs)
    assert rep.ok
    assert rep.sharpest >= 0


def test_lipschitz_norm_violation():
    with pytest.raises(NormViolation):
        lipschitz_check(P3, [0, Fraction(1, 3)], 0, [])


def test_lipschitz_rejects_point_outside_ball():
    with pytest.raises(DomainError):
        lipschitz_check(P3, [0, 1], 2, [(elt(3), elt(9))])


def test_lipschitz_randomized_suite():
    rng = random.Random(99)
    for trial in range(200):
        r = rng.randrange(0, 3)
        deg = rng.randrange(1, 5)
        coeffs = [
            Fraction(rng.randrange(-50, 51), 3 ** (r * n)) for n in range(deg + 1)
        ]
        pairs = sample_ball_pairs(P3, r, 5, seed=trial)
        rep = lipschitz_check(P3, coeffs, r, pairs)
        assert rep.ok, (trial, r, coeffs)


# --------------------------------------------------------------------------- #
# radius / level bookkeeping
# --------------------------------------------------------------------------- #

def test_radius_to_level_values():
    assert radius_to_level(2, 1) == 3
    assert radius_to_level(1, 2) == 3
    assert radius_to_level(1, Fraction(1, 2)) == Fraction(3, 2)


def test_radius_to_level_monotone():
    for r in range(1, 5):
        for m in range(1, 5):
            assert radius_to_level(r + 1, m) > radius_to_level(r, m)
            assert radius_to_level(r, m + 1) > radius_to_level(r, m)


def test_radius_to_level_guards():
    with pytest.raises(DomainError):
        radius_to_level(0, 1)
    with pytest.raises(NonpositiveValuation):
        radius_to_level(2, 0)
