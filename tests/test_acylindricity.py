"""Brute-forced acylindricity constants and the displacement power P."""

import pytest

from freecert import (
    CycleModel,
    ExplicitGraphModel,
    FreeGroupModel,
    ModelError,
    acyl_constants,
    acyl_profile,
    constant_P,
)


def test_free_group_r0_is_free_action():
    m = FreeGroupModel(2, cap=64)
    entry = acyl_constants(m, R=0, region_radius=3, group_ball_radius=5)
    assert entry.K_hat == 1
    assert entry.L_hat == 1
    assert not entry.exhaustive  # group ball is a proper subset of F2


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
    entry = acyl_constants(m, R=1, region_radius=4, group_ball_radius=6)
    assert entry.K_hat == 3  # rotations by -1, 0, 1 move every point by <= 1
    assert entry.exhaustive


def test_exhaustive_when_the_group_ball_is_the_whole_group():
    # Words of length <= 4 reach all 8 rotations of C8, length <= 3 only 7.
    c8 = CycleModel(8)
    assert acyl_constants(c8, R=1, region_radius=4, group_ball_radius=4).exhaustive
    assert len(c8.group_ball(3)) == 7
    assert not acyl_constants(c8, R=1, region_radius=4, group_ball_radius=3).exhaustive
    # Words of length <= 1 reach 4 of the 8 symmetries of the square.
    square = ExplicitGraphModel([[1, 3], [0, 2], [1, 3], [0, 2]], [[1, 2, 3, 0], [0, 3, 2, 1]])
    assert not acyl_constants(square, R=1, region_radius=2, group_ball_radius=1).exhaustive
    assert acyl_constants(square, R=1, region_radius=2, group_ball_radius=4).exhaustive


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
    assert constant_P(0).P == 1
    assert constant_P(0).provenance == "tree-case"
    assert constant_P(1, K200=90).P == 1
    assert constant_P(2, K200=900).P == 5


def test_constant_p_requires_k200_when_curved():
    with pytest.raises(ModelError):
        constant_P(1)


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
