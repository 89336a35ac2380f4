"""Empirical acylindricity constants K(R), L(R) and the power constant P.

The constants are brute-forced on a finite region against a finite group
ball.  Whenever the group ball is a proper subset of the acting group the
result is tagged non-exhaustive: an empirical lower bound for K and a
candidate for L, never a verified bound for the whole action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .models import ActionModel, ModelError


@dataclass(frozen=True)
class AcylEntry:
    R: int
    K_hat: int
    L_hat: int
    exhaustive: bool
    group_size: int  # elements of the group ball that K_hat was counted over


@dataclass(frozen=True)
class AcylProfile:
    entries: dict
    region: dict
    group_ball: dict
    exhaustive: bool

    def to_doc(self) -> dict:
        return {
            "entries": {
                str(R): {"K_hat": e.K_hat, "L_hat": e.L_hat} for R, e in sorted(self.entries.items())
            },
            "region": self.region,
            "group_ball": self.group_ball,
            "exhaustive": self.exhaustive,
        }


@dataclass(frozen=True)
class ConstantP:
    P: int
    provenance: str  # "tree-case" | "formula" | "empirical"


def constant_P(delta: int, K200: Optional[int] = None) -> ConstantP:
    """Power P with tr(g^P) >= 1 for every hyperbolic g.

    delta = 0 is the tree case where P = 1; otherwise P = ceil(K200/(90*delta))
    from the displacement argument's lower bound tr >= 90*delta/K(200*delta).
    """
    if delta < 0:
        raise ModelError("delta must be >= 0")
    if delta == 0:
        return ConstantP(1, "tree-case")
    if K200 is None or K200 < 1:
        raise ModelError("K200 >= 1 required when delta > 0")
    return ConstantP(max(1, -(-K200 // (90 * delta))), "formula")


def acyl_constants(
    model: ActionModel,
    R: int,
    region_radius: int = 3,
    group_ball_radius: int = 6,
) -> AcylEntry:
    """Brute-force a workable (K_hat, L_hat) pair for radius R.

    K_hat is the max, over region pairs separated by at least L_hat, of the
    number of group-ball elements moving both points by at most R.  L_hat is
    the smallest separation at which that max count plateaus over three
    consecutive separations (no closed form for L(R) exists in general, so
    the plateau rule is an explicit, testable choice).
    """
    if group_ball_radius < 1:
        raise ModelError("group_ball_radius must be >= 1")
    region = model.ball(model.basepoint(), region_radius)
    group = model.group_ball(group_ball_radius)
    exhaustive = model.order is not None and len(group) == model.order

    # Per-point sets of small-displacement elements, then pairwise intersection counts.
    small = []
    for x in region:
        small.append(frozenset(i for i, g in enumerate(group) if model.distance(x, model.apply(g, x)) <= R))

    max_sep = 0
    by_sep: dict[int, int] = {}
    n = len(region)
    for i in range(n):
        for j in range(i + 1, n):
            d = model.distance(region[i], region[j])
            if d == 0:
                continue
            count = len(small[i] & small[j])
            if d > max_sep:
                max_sep = d
            if count > by_sep.get(d, 0):
                by_sep[d] = count

    if max_sep == 0:
        raise ModelError("region has no separated pairs")

    # M(sep) = max count over pairs at separation >= sep (non-increasing).
    M = [0] * (max_sep + 2)
    for d in range(max_sep, 0, -1):
        M[d] = max(by_sep.get(d, 0), M[d + 1])

    for sep in range(1, max_sep - 1):
        if M[sep] == M[sep + 1] == M[sep + 2]:
            L_hat = sep
            break
    else:
        L_hat = 1 if max_sep <= 2 else max_sep - 2
    return AcylEntry(R, max(1, M[L_hat]), L_hat, exhaustive, len(group))


def acyl_profile(
    model: ActionModel, radii: list[int], region_radius: int = 3, group_ball_radius: int = 6
) -> AcylProfile:
    entries = {R: acyl_constants(model, R, region_radius, group_ball_radius) for R in radii}
    # Every entry counts over the same group ball.
    group_size = max((e.group_size for e in entries.values()), default=0)
    exhaustive = all(e.exhaustive for e in entries.values())
    group_ball = {"radius": group_ball_radius, "size": group_size}
    return AcylProfile(entries, {"radius": region_radius}, group_ball, exhaustive)
