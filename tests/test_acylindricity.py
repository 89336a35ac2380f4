"""Brute-forced acylindricity constants and the displacement power P."""

import pytest

from freecert import (
    AcylEntry,
    CycleModel,
    ExplicitGraphModel,
    FreeGroupModel,
    ModelError,
    acyl_constants,
    acyl_profile,
    constant_P,
)

SQUARE = ExplicitGraphModel([[1, 3], [0, 2], [1, 3], [0, 2]], [[1, 2, 3, 0], [0, 3, 2, 1]])


def test_free_group_r0_is_free_action():
    m = FreeGroupModel(2, cap=64)
    entry = acyl_constants(m, R=0, region_radius=3, group_ball_radius=5)
    assert entry.K_hat == 1
    assert entry.L_hat == 1
    # The group ball is a proper subset of F2.
    assert not acyl_profile(m, [0], region_radius=3, group_ball_radius=5).exhaustive


def test_free_group_r2_along_a_line_counts_five():
    # Elements moving both e and a^6 by at most 2: exactly 1, a^{±1}, a^{±2}.
    m = FreeGroupModel(2, cap=64)
    x, y = (), (1,) * 6
    movers = [
        g
        for g in m.group_ball(4)
        if m.distance(x, m.apply(g, x)) <= 2 and m.distance(y, m.apply(g, y)) <= 2
    ]
    assert sorted(movers, key=lambda w: (len(w), w)) == [
        (),
        (-1,),
        (1,),
        (-1, -1),
        (1, 1),
    ]


def test_cycle_c5_rotations_k_hat_three():
    m = CycleModel(5)
    profile = acyl_profile(m, [1], region_radius=4, group_ball_radius=6)
    assert profile.entries[1].K_hat == 3  # rotations by -1, 0, 1 move every point by <= 1
    assert profile.exhaustive


def test_exhaustive_when_the_group_ball_is_the_whole_group():
    # Words of length <= 4 reach all 8 rotations of C8, length <= 3 only 7.
    c8 = CycleModel(8)
    assert acyl_profile(c8, [1], region_radius=4, group_ball_radius=4).exhaustive
    assert len(c8.group_ball(3)) == 7
    assert not acyl_profile(c8, [1], region_radius=4, group_ball_radius=3).exhaustive
    # Words of length <= 1 reach 4 of the 8 symmetries of the square.
    assert not acyl_profile(SQUARE, [1], region_radius=2, group_ball_radius=1).exhaustive
    assert acyl_profile(SQUARE, [1], region_radius=2, group_ball_radius=4).exhaustive


def test_acyl_bound_holds_on_region():
    # Definition check: at separation >= L_hat, at most K_hat small movers.
    m = FreeGroupModel(2, cap=64)
    entry = acyl_constants(m, R=1, region_radius=3, group_ball_radius=5)
    region = m.ball((), 3)
    group = m.group_ball(5)
    for i, x in enumerate(region):
        for y in region[i + 1 :]:
            if m.distance(x, y) < entry.L_hat:
                continue
            count = sum(
                1
                for g in group
                if m.distance(x, m.apply(g, x)) <= 1 and m.distance(y, m.apply(g, y)) <= 1
            )
            assert count <= entry.K_hat


def test_constant_p_examples():
    # P = ceil(K200 / (90 delta)); the tree case P = 1 is resolve_constants' (test_certifier).
    assert constant_P(1, K200=90) == 1
    assert constant_P(1, K200=91) == 2
    assert constant_P(2, K200=900) == 5


def test_constant_p_requires_k200_when_curved():
    with pytest.raises(ModelError):
        constant_P(1, K200=0)
    # The formula has no value at delta = 0.
    with pytest.raises(ModelError):
        constant_P(0, K200=1)


def test_acyl_profile_collects_entries():
    m = CycleModel(5)
    profile = acyl_profile(m, [0, 1], region_radius=4)
    assert set(profile.entries) == {0, 1}
    assert profile.entries[0].K_hat <= profile.entries[1].K_hat


def test_acyl_profile_names_its_group_ball():
    # On C8, K_hat is counted over 7 rotations at ball radius 3 and over all 8 at radius 4.
    c8 = CycleModel(8)
    for radius, size in ((3, 7), (4, 8)):
        doc = acyl_profile(c8, [1], region_radius=4, group_ball_radius=radius).to_doc()
        assert doc["group_ball"] == {"radius": radius, "size": size}
        assert doc["exhaustive"] == (size == 8)


def _reference_entry(model, R, region_radius, group_ball_radius):
    """K_hat, L_hat for one R by the per-radius loop, every distance measured anew."""
    region = model.ball(model.basepoint(), region_radius)
    group = model.group_ball(group_ball_radius)
    small = [
        frozenset(i for i, g in enumerate(group) if model.distance(x, model.apply(g, x)) <= R) for x in region
    ]
    max_sep, by_sep = 0, {}
    for i in range(len(region)):
        for j in range(i + 1, len(region)):
            d = model.distance(region[i], region[j])
            if d == 0:
                continue
            max_sep = max(max_sep, d)
            by_sep[d] = max(by_sep.get(d, 0), len(small[i] & small[j]))
    M = [0] * (max_sep + 2)
    for d in range(max_sep, 0, -1):
        M[d] = max(by_sep.get(d, 0), M[d + 1])
    L_hat = next(
        (sep for sep in range(1, max_sep - 1) if M[sep] == M[sep + 1] == M[sep + 2]),
        1 if max_sep <= 2 else max_sep - 2,
    )
    return AcylEntry(R, max(1, M[L_hat]), L_hat)


def _count_distance_calls(model):
    calls = [0]
    distance = model.distance

    def counted(x, y):
        calls[0] += 1
        return distance(x, y)

    model.distance = counted
    return calls


@pytest.mark.parametrize(
    "model, region_radius, group_ball_radius",
    [
        pytest.param(FreeGroupModel(2, cap=64), 2, 4, id="F2"),
        pytest.param(CycleModel(9), 4, 5, id="C9"),
        pytest.param(SQUARE, 2, 3, id="square"),
    ],
)
def test_acyl_profile_matches_the_per_radius_loop(model, region_radius, group_ball_radius):
    radii = [0, 1, 2, 3]
    profile = acyl_profile(model, radii, region_radius, group_ball_radius)
    assert profile.entries == {R: _reference_entry(model, R, region_radius, group_ball_radius) for R in radii}


def test_acyl_profile_measures_distances_once_for_all_radii():
    counts = []
    for radii in ([0], [0, 1, 2, 3]):
        model = FreeGroupModel(2, cap=64)
        calls = _count_distance_calls(model)
        acyl_profile(model, radii)
        counts.append(calls[0])
    # 53 region points times 1457 group elements, plus 53 * 52 / 2 region pairs.
    assert counts == [78_599, 78_599]


def test_acyl_profile_refuses_a_negative_radius():
    # No displacement is at most -3, so K_hat and L_hat would mean nothing there.
    with pytest.raises(ModelError, match="^radius R must be >= 0, got -3$"):
        acyl_profile(CycleModel(4), [-3, 0])
