"""Element-level references and operands shared by the series and solver
kernel tests.

A reference is written over PadicElt coefficients one at a time, so it
reaches the integer helpers only through the element arithmetic; the series
kernels (`test_series.py`) and the solver kernels (`test_wach.py`) are
compared with it on digits, caps, valuations and support.
"""
from __future__ import annotations

from hypothesis import strategies as st

from wachdeform.padics import PadicElt

KINDS = ("exact_zero", "low_zero", "any", "full")


@st.composite
def capped_elts(draw, params, factor=1, kinds=KINDS):
    """An exact zero, a zero known only below prec_pi, or digits (times factor)
    at any cap or at prec_pi."""
    kind = draw(st.sampled_from(kinds))
    prec = params.prec_pi
    if kind == "exact_zero":
        return PadicElt.zero(params)
    cap = prec if kind == "full" else draw(st.integers(1, prec - (kind == "low_zero")))
    if kind == "low_zero":
        return PadicElt.zero(params, cap)
    bound = params.p ** prec
    digits = draw(st.lists(st.integers(-bound, bound), min_size=params.e, max_size=params.e))
    return PadicElt(params, [factor * d for d in digits], cap)


def ref_mul(f, g):
    """The coefficients of f g mod x^min(nx), summed product by product."""
    params, n = f.params, min(f.nx, g.nx)
    zero = PadicElt.zero(params)
    out = [zero] * n
    for i, a in enumerate(f.coeffs[:n]):
        if a.is_zero_at_cap() and a.cap >= params.prec_pi:
            continue
        for j, b in enumerate(g.coeffs[: n - i]):
            t = a * b
            out[i + j] = t if out[i + j] is zero else out[i + j] + t
    return out


def ref_support(coeffs):
    """1 + the last index holding anything but an exact zero."""
    nonzero = [j for j, x in enumerate(coeffs)
               if x.cap < x.params.prec_pi or not x.is_zero_at_cap()]
    return nonzero[-1] + 1 if nonzero else 0


def elt_view(coeffs):
    """(digits, cap, valpi-or-cap) of each coefficient."""
    return [(x.digits, x.cap, x.valpi_or_cap()) for x in coeffs]


def kernel_view(f):
    """`elt_view` of a series' coefficients, its cached support and valuations
    checked against them."""
    coeffs = f.coeffs
    assert f._support() == ref_support(coeffs)
    assert f._valuations() == tuple(x.valpi_or_cap() for x in coeffs)
    return elt_view(coeffs)
