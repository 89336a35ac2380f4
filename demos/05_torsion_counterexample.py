"""Why per-pair thresholds must grow: torsion pairs in Z * Z/2.

Take g = f^n s and h = f^n.  Both are hyperbolic, no powers commute, yet
(h^-1 g)^2 = s^2 = 1 for every n, so <g, h> is never free: the subgroup
contains torsion.  Their axes overlap on a segment of length n, so the
measured D grows with n; any criterion whose exponents are driven by D
prices this in, while an aggressive sharp-mode request at exponents (1, 1)
is caught by the oracle back-check and refused.
"""

from fractions import Fraction

from freecert import (
    CertificateRefused,
    FreeProductModel,
    analyze_pair,
    exceptional_sweep,
    freeness_to_depth,
    independence_test,
    nielsen_certify,
    resolve_constants,
)

model = FreeProductModel(cap=2048)

for n in (1, 3, 6):
    g = model.canon((1,) * n + (2,))
    h = model.canon((1,) * n)
    analysis = analyze_pair(model, g, h, delta=0, window=6)
    report = freeness_to_depth(model, g, h, 4)
    print(
        f"n = {n}: independence {independence_test(model, g, h, 3)[0]}, "
        f"D = {analysis.overlap.D}, oracle {report.verdict} {list(report.relation)}"
    )

g, h = model.canon((1, 1, 2)), (1, 1)
try:
    nielsen_certify(
        model, g, h, resolve_constants(model, 0, "tree-case"),
        epsilon_mode="sharp-experimental", epsilon=Fraction(1), exponents=(1, 1),
    )
except CertificateRefused as exc:
    print("\nsharp mode at (1, 1) is refused:", exc)

table = exceptional_sweep(model, g, h, range(1, 4), range(1, 4), 4)
print("\nexceptional cells in the 3 x 3 exponent grid:", table.exceptional_pairs)
