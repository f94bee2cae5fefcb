"""Known-answer families: Vietoris-Rips complexes whose homotopy type a
theorem gives at any size, run end to end through ``analyze_metric`` with
verification on, over q and z, and every radius of the circles up to 40
points over z alone.

* Circles (Adamaszek & Adams, *The Vietoris-Rips complexes of a circle*,
  Pacific J. Math. 2017): n evenly spaced points at hop radius k give
  S^(2l+1) when l/(2l+1) < k/n < (l+1)/(2l+3), and a wedge of n - 2k - 1
  copies of S^(2l) when k/n = l/(2l+1).
* Wedges (Adamaszek, Adams, Frick, Peterson & Previte-Johnson,
  *Vietoris-Rips and Cech complexes of metric gluings*, arXiv:1712.06224):
  two circles glued at one point, with X and Y the two circles, give
  VR(X v Y) = VR(X) v VR(Y), the base case of the paper's gluing results.

Reports stop at degree cap - 1, so a sphere at the cap or above reads as
trivial.  None of these complexes has torsion.
"""

from fractions import Fraction

import pytest

from ripsdecomp import CRITERIA, DistanceSpace, MetricCover, analyze_metric

from oracles import glue

FIELDS = ["q", "z"]

#: (n, k, cap, sphere degree, copies): VR(circle n; k) is a wedge of
#: ``copies`` spheres of that degree.
CIRCLES = [
    (9, 3, 3, 2, 2),
    (30, 10, 3, 2, 9),
    (13, 5, 4, 3, 1),
    (40, 15, 4, 3, 1),
    (20, 5, 3, 1, 1),
    (60, 15, 3, 1, 1),
    (70, 20, 3, 1, 1),
    (50, 20, 4, 4, 9),
    (200, 50, 3, 1, 1),
]

#: (n, m, r, cap): circles of n and m points glued at one point, at radius r.
WEDGES = [(12, 9, 3, 3), (20, 13, 5, 4), (40, 30, 10, 3)]


def circle(n, name):
    """n evenly spaced points under the hop distance min(|i-j|, n-|i-j|);
    point 0 is ``w``, the others ``name`` and their index."""
    labels = ["w"] + [f"{name}{i}" for i in range(1, n)]
    return DistanceSpace(labels, [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)])


def circle_answer(n, k):
    """(sphere degree, copies) of VR(circle n; k), 0 < k < n/2, by the theorem."""
    l = 0
    while Fraction(k, n) >= Fraction(l + 1, 2 * l + 3):
        l += 1
    if Fraction(k, n) == Fraction(l, 2 * l + 1):
        return 2 * l, n - 2 * k - 1
    return 2 * l + 1, 1


def betti(cap, *wedge):
    """Reduced Betti numbers in degrees -1..cap-1 of a wedge of spheres,
    given as (degree, copies) pairs."""
    out = [0] * (cap + 1)
    for degree, copies in wedge:
        if degree < cap:
            out[degree + 1] += copies
    return out


def check_profiles(report, part, want):
    for coeffs in FIELDS:
        profile = report.profiles[part][coeffs]
        assert [profile["betti"][str(d)] for d in profile["degrees"]] == want, (part, coeffs)
        assert profile["torsion"] == {}, (part, coeffs)


def circle_thirds(n, k):
    """The circle n at hop radius k, with X = {i mod 3 != 2} and
    Y = {i mod 3 != 1}."""
    space = circle(n, "c")
    x = [p for i, p in enumerate(space.labels) if i % 3 != 2]
    y = [p for i, p in enumerate(space.labels) if i % 3 != 1]
    return MetricCover(space, x, y, k)


@pytest.mark.parametrize("n, k, cap, degree, copies", CIRCLES)
def test_circle(n, k, cap, degree, copies):
    assert circle_answer(n, k) == (degree, copies)
    report = analyze_metric(circle_thirds(n, k), dim_cap=cap, fields=FIELDS)
    assert report.soundness["ok"], report.soundness
    check_profiles(report, "total", betti(cap, (degree, copies)))


@pytest.mark.parametrize("n", range(5, 41))
def test_every_circle_radius_over_z_alone(n):
    """Every hop radius 0 < k < n/2 of the circle n, at cap 3 over z alone,
    where no induced map is kept: the gate still checks every claim, and
    the total reads the theorem's Betti numbers with no torsion."""
    for k in range(1, (n + 1) // 2):
        report = analyze_metric(circle_thirds(n, k), dim_cap=3, fields=["z"])
        assert report.soundness["ok"], (n, k, report.soundness)
        profile = report.profiles["total"]["z"]
        got = [profile["betti"][str(d)] for d in profile["degrees"]]
        assert got == betti(3, circle_answer(n, k)) and profile["torsion"] == {}, (n, k)


@pytest.mark.parametrize("n, m, r, cap", WEDGES)
def test_wedge_of_two_circles(n, m, r, cap):
    left, right = circle(n, "a"), circle(m, "b")
    space = glue(left, right, ["w"])
    report = analyze_metric(
        MetricCover(space, left.labels, right.labels, r), dim_cap=cap, fields=FIELDS
    )
    assert report.soundness["ok"], report.soundness
    sides = circle_answer(n, r), circle_answer(m, r)
    check_profiles(report, "x", betti(cap, sides[0]))
    check_profiles(report, "y", betti(cap, sides[1]))
    check_profiles(report, "total", betti(cap, *sides))
    # induced maps are read over the fields among FIELDS: q alone
    assert [(rec["field"], rec["degree"]) for rec in report.induced] == [("q", d) for d in range(cap)]
    assert all(rec["iso"] for rec in report.induced)
    statuses = {v.criterion: v.status for v in report.verdicts}
    assert len(report.verdicts) == len(statuses) == 32 and set(CRITERIA) < set(statuses)
    assert statuses.pop("no-cross-simplices") == "fails"
    assert statuses.pop("torsion-obstructions") == "not_applicable"
    assert set(statuses.values()) == {"holds"} and len(statuses) == 30
