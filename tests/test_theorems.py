"""Theorem pairs of the criteria catalog, written as data: whenever the
first criterion of a row holds, the second holds too.

Each row follows from the definitions of the two rules, so a report where
the first holds and the second does not is an analyzer bug, one that the
homology gate may not see: both verdicts can be wrong in the safe
direction.  The table is checked over the golden reports, the seeded fuzz
reports, and seeded metric covers with tolerance 1/7, among them a
four-point cover where the tolerance once let the strong simplex condition
hold while the simplex condition failed.
"""

import json
import os
from fractions import Fraction

from ripsdecomp import DistanceSpace, MetricCover, analyze_metric

from conftest import random_metric_cover, random_pseudometric, rng_for
from oracles import glue, subspace
from test_golden import FUZZ_SEEDS, GOLDEN, GOLDEN_DIR, fuzz_report

#: (stronger, weaker, why "stronger holds" implies "weaker holds").
THEOREMS = [
    (
        "contractible-obstructions",
        "acyclic-obstructions",
        "a certified contractible obstruction has trivial reduced integral homology",
    ),
    (
        "gluing-strong-simplex-condition",
        "gluing-simplex-condition",
        "the strong check fails every pair of shared points the plain check fails",
    ),
    (
        "singleton-intersection-extends",
        "all-intersection-subsets-extend",
        "one rule, guarded to a one-point intersection",
    ),
    (
        "edge-singleton-extension",
        "edge-pair-extension",
        "one rule, guarded to a one-point intersection",
    ),
    (
        "edge-full-intersection",
        "full-intersection-obstruction",
        "each vertex of a cross clique ends a cross edge, so the clique sees all of A",
    ),
    (
        "shared-singleton",
        "shared-witness",
        "one check, guarded to a one-point intersection",
    ),
    (
        "cross-dominates-diameter",
        "cross-domination",
        "the diameter test applies only where cross domination holds",
    ),
    (
        "clique-entry-point-central",
        "clique-entry-point-adjacent",
        "a vertex central in every edge obstruction is adjacent to all their vertices",
    ),
    (
        "no-cross-simplices",
        "contractible-obstructions",
        "with no cross simplex, every obstruction is vacuously contractible",
    ),
]

STRONGER = {strong for strong, _, _ in THEOREMS}
TOL = Fraction(1, 7)


def violations(statuses):
    """The rows whose first criterion holds while the second does not, in
    a ``{criterion: status}`` table; a report without the metric criteria
    has no row about them."""
    return [
        (strong, weak, statuses[weak])
        for strong, weak, _ in THEOREMS
        if statuses.get(strong) == "holds" and statuses[weak] != "holds"
    ]


def statuses_of(report):
    return {v.criterion: v.status for v in report.verdicts}


def tolerance_case():
    """x lies within r + tol = 8/7 of p, q and y, and d(p, q) = 6/5 does
    not: 2 d(p, q) = 12/5 stays under the detour 16/7 plus one tolerance."""
    return MetricCover(
        DistanceSpace(
            ["x", "p", "q", "y"],
            [
                [0, 8 * TOL, 8 * TOL, 8 * TOL],
                [8 * TOL, 0, "6/5", TOL],
                [8 * TOL, "6/5", 0, "6/5"],
                [8 * TOL, TOL, "6/5", 0],
            ],
            tol=TOL,
        ),
        ["x", "p", "q"],
        ["p", "q", "y"],
        1,
    )


def tolerance_covers():
    """The four-point case, then seeded covers at tolerance 1/7: random
    tables, and gluings of two random pseudometrics along shared points,
    where the simplex conditions apply."""
    yield tolerance_case()
    rng = rng_for(8101)
    for _ in range(150):
        mc = random_metric_cover(rng)
        space = DistanceSpace(mc.space.labels, mc.space.matrix, tol=TOL)
        labels = space.labels
        yield MetricCover(
            space, [labels[i] for i in sorted(mc.x)], [labels[i] for i in sorted(mc.y)], mc.r
        )
    for _ in range(150):
        shared = [f"a{i}" for i in range(rng.randint(1, 3))]
        side_x = shared + [f"x{i}" for i in range(rng.randint(1, 3))]
        side_y = shared + [f"y{i}" for i in range(rng.randint(1, 3))]
        labels = side_x + side_y[len(shared) :]
        table = random_pseudometric(rng, labels, max_whole=5, denominators=(1, 2, 5, 7))
        space = DistanceSpace(labels, table.matrix, tol=TOL)
        glued = glue(subspace(space, side_x), subspace(space, side_y), shared)
        r = Fraction(rng.randint(1, 12), rng.choice((1, 2, 7)))
        yield MetricCover(glued, side_x, side_y, r)


def test_every_row_names_two_criteria_of_the_catalog():
    from ripsdecomp.analyzer import CRITERIA, METRIC_CRITERIA

    known = set(CRITERIA) | set(METRIC_CRITERIA)
    for strong, weak, reason in THEOREMS:
        assert {strong, weak} <= known and strong != weak and reason


def test_golden_reports_keep_the_table():
    for name, _ in GOLDEN:
        with open(os.path.join(GOLDEN_DIR, name + ".json")) as fh:
            verdicts = json.load(fh)["verdicts"]
        assert violations({v["criterion"]: v["status"] for v in verdicts}) == [], name


def test_fuzz_reports_keep_the_table():
    held = set()
    for seed in FUZZ_SEEDS:
        statuses = statuses_of(fuzz_report(seed))
        assert violations(statuses) == [], seed
        held.update(c for c, status in statuses.items() if status == "holds")
    assert STRONGER <= held, sorted(STRONGER - held)


def test_metric_covers_at_a_tolerance_keep_the_table():
    held = set()
    for i, mc in enumerate(tolerance_covers()):
        statuses = statuses_of(analyze_metric(mc, dim_cap=2, verify=False))
        assert violations(statuses) == [], i
        held.update(c for c, status in statuses.items() if status == "holds")
    assert STRONGER <= held, sorted(STRONGER - held)
