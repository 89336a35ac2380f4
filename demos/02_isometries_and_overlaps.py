"""Translation lengths, axes, and how long two axes fellow-travel.

On a Cayley tree the translation length of an element is the length of its
cyclically reduced word, computed exactly.  Each hyperbolic element has an
invariant axis; the overlap diameter D of two axes is the key measured
quantity in every freeness criterion: powers only need to clear D plus a
buffer before ping-pong kicks in.
"""

from freecert import FreeGroupModel, classify, displacement_power, independence_test, overlap_diameter, quasi_axis

model = FreeGroupModel(2, cap=512)

for word, name in [((1,), "a"), ((1, 2), "ab"), ((1, 2, -1), "aba^-1")]:
    p = classify(model, word)
    print(f"{name}: tr = {p.tr}, hyperbolic = {p.hyperbolic}")

print("displacement criterion first fires for a at power", displacement_power(model, (1,), delta=0))

axis_a = quasi_axis(model, classify(model, (1,)), window=6, delta=0)
axis_b = quasi_axis(model, classify(model, (2,)), window=6, delta=0)
axis_ab = quasi_axis(model, classify(model, (1, 2)), window=6, delta=0)
print("\naxis of a:", axis_a.mode, "defect", axis_a.invariance_defect)

print("\noverlap diameters (c = 10 delta = 0):")
print("  a vs b:   D =", overlap_diameter(model, axis_a, axis_b, 0).D)
rep = overlap_diameter(model, axis_ab, axis_a, 0)
print("  ab vs a:  D =", rep.D, "witness", list(rep.witness_segment))

print("\nindependence (no commuting powers up to the bound):")
print("  a, b:", independence_test(model, (1,), (2,), 5)[0])
print("  a, a^2:", independence_test(model, (1,), (1, 1), 2))
