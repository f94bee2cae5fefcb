"""Theorem pairs of the criteria catalog, written as data: whenever the
first criterion of a row holds, the second holds too.

Each row follows from the definitions of the two rules, so a report where
the first holds and the second does not is an analyzer bug, one that the
homology gate may not see: both verdicts can be wrong in the safe
direction.  The table is checked over the golden reports, the seeded fuzz
reports, and seeded metric covers: random tables and gluings.

The radius-free metric criteria are also swept over every radius of seeded
gluings: each keeps its status, and the soundness gate passes, at each one.
"""

import json
import os
from collections import Counter
from fractions import Fraction
from itertools import chain

from ripsdecomp import DistanceSpace, MetricCover, analyze_metric

from conftest import random_metric_cover, random_pseudometric, rng_for
from oracles import glue, subspace
from test_golden import FIELDS, FUZZ_SEEDS, GOLDEN, GOLDEN_DIR, fuzz_report

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

#: Metric criteria that read no radius, so a cover has one status for each
#: at every radius; the paper's cross-domination results claim every radius.
RADIUS_FREE = ("metric-gluing", "cross-domination", "cross-dominates-diameter")


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


def seeded_metric_covers():
    """Seeded covers: random tables, and gluings of two random
    pseudometrics along shared points, where the simplex conditions
    apply."""
    rng = rng_for(8101)
    for _ in range(150):
        yield random_metric_cover(rng)
    for _ in range(150):
        shared = [f"a{i}" for i in range(rng.randint(1, 3))]
        side_x = shared + [f"x{i}" for i in range(rng.randint(1, 3))]
        side_y = shared + [f"y{i}" for i in range(rng.randint(1, 3))]
        labels = side_x + side_y[len(shared) :]
        table = random_pseudometric(rng, labels, max_whole=5, denominators=(1, 2, 5, 7))
        glued = glue(subspace(table, side_x), subspace(table, side_y), shared)
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


def test_seeded_metric_covers_keep_the_table():
    held = set()
    for i, mc in enumerate(seeded_metric_covers()):
        statuses = statuses_of(analyze_metric(mc, dim_cap=2, verify=False))
        assert violations(statuses) == [], i
        held.update(c for c, status in statuses.items() if status == "holds")
    assert STRONGER <= held, sorted(STRONGER - held)


def grid_gluings():
    """80 seeded gluings (``oracles.glue``) of two subspaces of a 12-point
    L-inf cloud on a 5 x 5 grid, along 1-2 shared points, with the two
    sides as the cover.  Plain grid covers are not gluings: on them the
    radius-free criteria are never found to hold."""
    rng = rng_for(8201)
    labels = [f"g{i}" for i in range(12)]
    for _ in range(80):
        cells = rng.sample([(a, b) for a in range(5) for b in range(5)], 12)
        dist = [[max(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in cells] for p in cells]
        space = DistanceSpace(labels, dist)
        k = rng.randint(1, 2)
        cut = rng.randint(k + 1, 11)
        side_x, side_y = labels[:cut], labels[:k] + labels[cut:]
        yield glue(subspace(space, side_x), subspace(space, side_y), labels[:k]), side_x, side_y


def test_radius_free_criteria_keep_their_status_at_every_radius():
    """Each gluing is analyzed at every distinct distance, verified over q,
    z, zp:2 and zp:3: the radius-free criteria keep one status, the table
    holds, and the soundness gate passes at every radius."""
    held, runs = Counter(), 0
    for glued, side_x, side_y in grid_gluings():
        seen = set()
        for r in sorted(set(chain.from_iterable(glued.matrix))):
            report = analyze_metric(MetricCover(glued, side_x, side_y, r), dim_cap=3, fields=FIELDS)
            assert report.soundness["ok"], (side_x, side_y, r, report.soundness)
            statuses = statuses_of(report)
            assert violations(statuses) == [], (side_x, side_y, r)
            seen.add(tuple(statuses[c] for c in RADIUS_FREE))
            runs += 1
        assert len(seen) == 1, (side_x, side_y, seen)
        held.update(zip(RADIUS_FREE, seen.pop()))
    # every instance is a gluing; cross domination goes both ways
    assert held["metric-gluing", "holds"] == 80, held
    assert held["cross-domination", "holds"] >= 40 and held["cross-domination", "fails"] >= 10, held
    assert held["cross-dominates-diameter", "holds"] >= 40 and runs > 400, (held, runs)
