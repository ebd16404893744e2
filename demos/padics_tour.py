# A tour of the exact p-adic layer: elements, valuations, exact division,
# Teichmuller decomposition, exp/log.  Everything is big-int arithmetic
# with an explicit precision cap; nothing here is floating point.
from fractions import Fraction

from wachdeform import (
    PadicElt,
    PadicParams,
    pexp,
    plog,
    teichmuller_decompose,
    val,
)

params = PadicParams(p=3, e=1, prec_pi=20)
print(f"working in Z_3 at cap 3^{params.prec_pi}")

x = PadicElt.from_int(params, 45)            # 45 = 3^2 * 5
print("v(45) =", val(x))
print("45 as stored:", x)

# exact division: 45 / 9 works, 45 / 7 works (7 is a unit), 45 / 27 refuses
print("45 / 9  =", x.pi_div_exact(2).lift_int())
print("45 / 7  =", x.div_unit(PadicElt.from_int(params, 7)).lift_int())

# rationals with denominator prime to p embed exactly
half = PadicElt.from_rational(params, Fraction(1, 2))
print("1/2 in Z_3:", half.lift_int(), "(check: doubled =",
      (half + half).lift_int(), ")")

# Teichmuller: 45 = 3^2 * omega * <unit part>; here omega = -1 and the
# unit part is -5 (the lifts below are their residues at the cap)
v, omega, angle = teichmuller_decompose(x)
print(f"45 = 3^{v} * omega * angle with omega = {omega.lift_int()} (= -1), "
      f"angle = {angle.lift_int()} (= -5)")
print("omega^2 =", (omega * omega).lift_int(), "(roots of unity square to 1 here)")

# log and exp are inverse on the domains where both converge
u = PadicElt.from_int(params, 10)            # 10 = 1 + 9, v(u - 1) = 2
logu = plog(u)
print("log(10) has valuation", val(logu))
print("exp(log(10)) =", pexp(logu).lift_int(), "== 10")
