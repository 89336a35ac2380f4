"""Witness chains: the point sequences behind the freeness proofs.

For a word w in a dominant power a and a second element b, the chain
interpolates the orbit of a base point so that consecutive gaps fall in two
controlled bands and the three points condition holds, which forces
|x - w(x)| > 0 and a quasi-isometric orbit embedding with an explicit
constant L.  Every clause is recomputed from raw distances and reported.
"""

from fractions import Fraction

from freecert import FreeGroupModel, analyze_pair, build_witness_chain, chain_base_points

model = FreeGroupModel(2, cap=8192)
a = model.power((1,), 204)  # tr = 204
b = (2,)

analysis = analyze_pair(model, a, b, delta=0, window=3)
x, y = chain_base_points(analysis)
print("base points:", x, y, " overlap D =", analysis.overlap.D)

E, Q = Fraction(204, 1000), 3
for word in [(1,), (1, 2), (1, 2, 2, 2, 2, -1), (2, 2, 2, 1)]:
    chain = build_witness_chain(model, word, a, b, x, y, E, Q, delta=0)
    bands = ",".join(band or "?" for _, band in chain.gaps)
    print(
        f"word {word}: case {chain.case}, {len(chain.u)} chain points, "
        f"bands {bands}, three-points {chain.three_points.holds}, "
        f"L = {chain.embedding_L}, embedding ok = {chain.embedding_ok}"
    )

# A degenerate pair makes the overlap clauses fail: with b = a the segments
# A_1, B_1 and A_2 all run along the same line.
bad = build_witness_chain(model, (1, -2, 1), a, a, x, y, E, Q, delta=0)
print("\nwith b = a the chain reports:", bad.failures)
