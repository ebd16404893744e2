"""QpMultChar: multiplicative characters of Q_p^x built from their standard
generators over PadicElt and ScaledElt, the element-level reference that the
tests compare trianguline.char_eval against."""
from __future__ import annotations

from dataclasses import dataclass

from wachdeform.errors import DomainError, ZeroInput
from wachdeform.padics import PadicElt, ScaledElt, teichmuller_decompose


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
            return ScaledElt(x.pi_div_exact(vx) ** self.exponent)
        if self.kind == "omega_power":
            _, omega, _ = teichmuller_decompose(x)
            j = self.exponent % (params.p - 1)
            return ScaledElt(omega ** j)
        out = ScaledElt(PadicElt.one(params))
        for f in self.factors:
            out = out.mul(f.evaluate(x, vp_shift))
        return out
