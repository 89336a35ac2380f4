"""Certificates for free subgroups, cross-checked by the word oracle.

Each criterion re-verifies its defining inequalities on measured quantities
before emitting anything; a failed precondition raises instead of producing
an optimistic claim.  The brute-force oracle then confirms certified pairs
by enumerating every reduced word in a^n and b^m to a depth and checking
that all of them act nontrivially and pairwise distinctly; it takes a, b
and the exponents, and reports a check the model cap stops as unchecked.
"""

from fractions import Fraction

from freecert import (
    CertificateRefused,
    FreeGroupModel,
    freeness_to_depth,
    nielsen_certify,
    prop6_certify,
    prop7_certify,
    resolve_constants,
    theorem9_certify,
)

model = FreeGroupModel(2, cap=4096)
a, b = (1,), (2,)
consts = resolve_constants(model, 0, "tree-case")

cert = nielsen_certify(model, a, b, consts)
print("nielsen:", cert.exponents, "lambda =", cert.details["lambda"])

cert6 = prop6_certify(model, a, b, consts, q=Fraction(3))
print("comparable lengths: N6 =", cert6.constants["N6"][0], "->", cert6.exponents)

cert7 = prop7_certify(model, a, b, consts)
print("dominant f: E =", cert7.constants["E"][0], " N7 =", cert7.constants["N7"][0])

cert9 = theorem9_certify(model, a, b, consts)
print("uniform bound: M =", cert9.constants["M"][0], "branch", cert9.details["branch"])

n, m = cert.exponents["n_min"], cert.exponents["m_min"]
report = freeness_to_depth(model, a, b, n, m, 5)  # the oracle forms a^n and b^m itself
print(f"\noracle on (a^{n}, b^{m}) to depth 5:", report.verdict)
print("min displacement per word letter:", report.min_displacement_ratio)

small = FreeGroupModel(2, cap=64)
capped = freeness_to_depth(small, a, b, n, m, 5)
print(f"the same check with cap {small.cap}:", capped.to_doc())

try:
    nielsen_certify(model, a, (1, 1), consts)
except CertificateRefused as exc:
    print("\na with a^2 is refused:", exc)
