"""Empirical acylindricity constants K(R), L(R) and the power constant P.

The constants are brute-forced on a finite region against a finite group
ball.  Whenever the group ball is a proper subset of the acting group the
result is tagged non-exhaustive: an empirical lower bound for K and a
candidate for L, never a verified bound for the whole action.
"""

from __future__ import annotations

from dataclasses import dataclass

from .models import ActionModel, ModelError


@dataclass(frozen=True)
class AcylEntry:
    R: int
    K_hat: int
    L_hat: int


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


def constant_P(delta: int, K200: int) -> int:
    """Power P with tr(g^P) >= 1 for every hyperbolic g, when delta >= 1.

    P = ceil(K200/(90*delta)), from the displacement argument's lower bound
    tr >= 90*delta/K(200*delta).  At delta = 0 the formula has no value.
    """
    if delta < 1 or K200 < 1:
        raise ModelError("constant_P requires delta >= 1 and K200 >= 1")
    return max(1, -(-K200 // (90 * delta)))


def acyl_constants(
    model: ActionModel,
    R: int,
    region_radius: int = 3,
    group_ball_radius: int = 6,
) -> AcylEntry:
    """The (K_hat, L_hat) pair for one radius R; see :func:`acyl_profile`."""
    return acyl_profile(model, [R], region_radius, group_ball_radius).entries[R]


def acyl_profile(
    model: ActionModel, radii: list[int], region_radius: int = 3, group_ball_radius: int = 6
) -> AcylProfile:
    """Brute-force a workable (K_hat, L_hat) pair for each radius R in ``radii``.

    K_hat is the max, over region pairs separated by at least L_hat, of the
    number of group-ball elements moving both points by at most R.  L_hat is
    the smallest separation at which that max count plateaus over three
    consecutive separations (no closed form for L(R) exists in general, so
    the plateau rule is an explicit, testable choice).  The displacements
    d(x, gx) and the region distances do not depend on R, so they are
    measured once for all radii.
    """
    if group_ball_radius < 1:
        raise ModelError("group_ball_radius must be >= 1")
    for R in radii:
        if R < 0:
            raise ModelError(f"radius R must be >= 0, got {R}")
    region = model.ball(model.basepoint(), region_radius)
    group = model.group_ball(group_ball_radius)
    moves = [[model.distance(x, model.apply(g, x)) for g in group] for x in region]
    pairs = []  # (i, j, d(x_i, x_j)) for the separated region pairs
    for i in range(len(region)):
        for j in range(i + 1, len(region)):
            d = model.distance(region[i], region[j])
            if d:
                pairs.append((i, j, d))
    if not pairs:
        raise ModelError("region has no separated pairs")

    entries = {R: _plateau_entry(R, moves, pairs) for R in radii}
    exhaustive = model.order is not None and len(group) == model.order
    group_ball = {"radius": group_ball_radius, "size": len(group)}
    return AcylProfile(entries, {"radius": region_radius}, group_ball, exhaustive)


def _plateau_entry(R: int, moves: list, pairs: list) -> AcylEntry:
    # Per-point sets of small-displacement elements, then pairwise intersection counts.
    small = [frozenset(k for k, d in enumerate(row) if d <= R) for row in moves]
    by_sep: dict[int, int] = {}
    for i, j, d in pairs:
        count = len(small[i] & small[j])
        if count > by_sep.get(d, 0):
            by_sep[d] = count
    max_sep = max(d for _, _, d in pairs)

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
    return AcylEntry(R, max(1, M[L_hat]), L_hat)
