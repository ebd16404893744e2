# The gamma-action depends on a chosen topological generator chi(gamma).
# Certificates are stated for a fixed choice; this experiment re-runs the
# same deformation under several generators and compares the verdicts and
# the alpha-tables side by side.  (Equality of the certificates across
# generators is NOT asserted anywhere in the package -- this script just
# reports what happens.)
from wachdeform import (
    PadicElt,
    PadicParams,
    alpha,
    deform_trace,
    is_generator,
    seed_companion,
)

p = 3
generators = [c for c in range(2, 30) if is_generator(p, c)][:4]
print(f"first generators mod {p}^2: {generators}")

for chi in generators:
    values = tuple(alpha(p, r, chi) for r in range(1, 9))
    print(f"chi = {chi}: alpha(1..8) = {values}")

print()
for chi in generators:
    params = PadicParams(p, 1, 37)
    w = seed_companion(params, k=2, a_p=PadicElt.from_int(params, 3),
                       chi_gamma=chi, nx=32)
    wp, cert = deform_trace(w, PadicElt.from_int(params, 30), m=1)
    log_head = [str(v) for _, v in cert.iteration_log[:4]]
    print(f"chi = {chi}: certificate {'PASS' if cert.ok else 'FAIL'}, "
          f"bound {cert.bound_observed} >= {cert.bound_required}, "
          f"correction valuations {log_head} ...")
