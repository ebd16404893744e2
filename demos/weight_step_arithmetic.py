# Arithmetic of the weight-side step: the minimal weight satisfying
# hypothesis (*), the size of the induced trace perturbation p^(k-1)/a_p,
# and the character-interpolation machinery behind it.
from fractions import Fraction

from wachdeform import (
    PadicElt,
    PadicParams,
    ScaledElt,
    SeedSingular,
    alpha,
    hypothesis_star,
    precision_floor,
    psi_eval,
    radius_to_level,
    seed_companion,
    val,
    weight_step,
)

# minimal weights for slope-1 traces at level m=1
for p in (3, 5, 7):
    print(f"p={p}: hypothesis (*) needs k >= {hypothesis_star(p, 1, 1)}")
print("fractional slopes work too: p=3, v(a_p)=1/2 needs k >=",
      hypothesis_star(3, Fraction(1, 2), 1))

# at (p, k, a_p) = (3, 17, 3) the perturbation is eps = 3^16 / 3 = 3^15
params = PadicParams(3, 1, 46)
eps = ScaledElt(PadicElt.one(params), 16).div(
    ScaledElt(PadicElt.from_int(params, 3))).to_padic()
alpha_16 = alpha(3, 16, 2)
print(f"\nk=17: v(eps) = {val(eps)} against the bound "
      f"2 v(a_p) + alpha(16) + m = {2 + alpha_16 + 1} "
      f"(alpha(16) = {alpha_16})")
print("certified working precision floor:", precision_floor(1, 17, 1, 10),
      "digits (= 1 + 20 + 17 + 8)")
print("ball radius r maps to congruence level m + r:",
      [(r, radius_to_level(r, 1)) for r in (1, 2, 3)])

# the interpolation psi_alpha(s) = alpha^s: a square root, computed two ways
four = PadicElt.from_int(PadicParams(3, 1, 20), 4)
print("\npsi_4(1/2) =", psi_eval(four, Fraction(1, 2)).lift_int(),
      "(that is -2: the principal square root of 4 in Z_3)")

# the weight step itself needs a module at weight k >= 17 to act on, and no
# integral companion seed exists there -- the pipeline reports this honestly
try:
    w = seed_companion(params, k=17, a_p=PadicElt.from_int(params, 3),
                       chi_gamma=2)
    weight_step(w, 1)
except SeedSingular as exc:
    print("\nweight step at k=17 stops at seeding:", exc)
