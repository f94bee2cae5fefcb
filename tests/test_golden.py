"""Byte identity of rendered decomposition reports.

Each file under ``tests/golden/`` is the ``render_json`` output of one
instance, recorded before the code it guards was changed (the first ones
from the dense rational engine): every corpus case, plus
seeded explicit and metric instances verified over q, z, zp:2 and zp:3,
three metric instances whose distances break the triangle inequality,
reach "inf", or have mixed denominators, and two Vietoris-Rips instances
whose cross simplices share obstruction complexes (a circle and an L-inf
grid cloud, verified over q and z).
Rebuild them only from a commit whose outputs are trusted:

    PYTHONPATH=src python tests/test_golden.py
"""

import math
import os
from fractions import Fraction

import pytest

from ripsdecomp import Complex, DistanceSpace, MetricCover, analyze, analyze_metric
from ripsdecomp.corpus import CASES, run_case
from ripsdecomp.reporting import render_json

from conftest import (
    PROJECTIVE_PLANE,
    circle_cover,
    grid_cover,
    random_cover,
    random_pseudometric,
    rng_for,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
FIELDS = ["q", "z", "zp:2", "zp:3"]
SEEDS = range(6)


def _explicit(seed):
    """Random facets on up to 9 vertices; odd seeds wedge an RP^2 on at
    vertex 0, so H_1 carries Z/2 torsion and zp:2 differs from q."""
    rng = rng_for(1000 + seed)
    n = rng.randint(5, 9)
    facets = [
        rng.sample(range(n), rng.randint(2, min(4, n)))
        for _ in range(rng.randint(3, 7))
    ]
    if seed % 2:
        facets += [[v and n + v for v in f] for f in PROJECTIVE_PLANE]
    complex_ = Complex.from_facets(facets)
    return analyze(complex_, random_cover(rng, complex_), dim_cap=4, fields=FIELDS)


def _metric_report(rng, space, radius):
    """Report for a seeded cover of ``space``; ``radius(rng)`` draws r last."""
    labels = space.labels
    x = [p for p in labels if rng.random() < 0.6]
    y = [p for p in labels if p not in x or rng.random() < 0.4]
    mc = MetricCover(space, x, y, radius(rng))
    return analyze_metric(mc, dim_cap=3, fields=FIELDS)


def _metric(seed):
    rng = rng_for(2000 + seed)
    labels = [f"p{i}" for i in range(rng.randint(5, 8))]
    space = random_pseudometric(rng, labels, max_whole=4)
    return _metric_report(rng, space, lambda rng: Fraction(rng.randint(2, 4)))


ODD_METRICS = ("triangle", "inf", "rational")


def _odd_metric(kind):
    """"triangle": one distance raised past a two-step path; "inf": two
    clusters at infinite distance; "rational": denominators 1, 2, 3, 5, 7."""
    rng = rng_for(3000 + ODD_METRICS.index(kind))
    labels = [f"p{i}" for i in range(rng.randint(6, 8))]
    if kind == "inf":
        cut = rng.randint(2, len(labels) - 2)
        left = random_pseudometric(rng, labels[:cut], max_whole=4).matrix
        right = random_pseudometric(rng, labels[cut:], max_whole=4).matrix
        matrix = [list(row) + [math.inf] * len(right) for row in left]
        matrix += [[math.inf] * cut + list(row) for row in right]
        return _metric_report(rng, DistanceSpace(labels, matrix), lambda rng: 3)
    denominators = (1, 2, 3, 5, 7) if kind == "rational" else None
    space = random_pseudometric(rng, labels, max_whole=4, denominators=denominators)
    if kind == "triangle":
        i, j, k = rng.sample(range(len(labels)), 3)
        matrix = [list(row) for row in space.matrix]
        matrix[i][k] = matrix[k][i] = matrix[i][j] + matrix[j][k] + 1
        space = DistanceSpace(labels, matrix)
    return _metric_report(rng, space, lambda rng: Fraction(rng.randint(3, 9), 2))


def golden_reports():
    """(name, thunk returning the report) for every golden instance."""
    out = [(f"corpus-{c.name}", lambda c=c: run_case(c)[0]) for c in CASES]
    out += [(f"explicit-{s}", lambda s=s: _explicit(s)) for s in SEEDS]
    out += [(f"metric-{s}", lambda s=s: _metric(s)) for s in SEEDS]
    out += [(f"metric-{k}", lambda k=k: _odd_metric(k)) for k in ODD_METRICS]
    # 84 cross simplices over 21 distinct obstructions
    out.append(("metric-circle-21", lambda: analyze_metric(circle_cover(21), 3)))
    # one collapse obstruction shared by 9 cross simplices, one homology-only
    # obstruction shared by 10
    out.append(("metric-grid-16", lambda: analyze_metric(grid_cover(1, 16, 8, 3), 3)))
    return out


GOLDEN = golden_reports()


@pytest.mark.parametrize("name,build", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_report_bytes_match_golden(name, build):
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as fh:
        assert render_json(build()) == fh.read()


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_corpus_case_matches_expectations(case):
    assert run_case(case)[1] == []


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, build in GOLDEN:
        with open(os.path.join(GOLDEN_DIR, name + ".json"), "w") as fh:
            fh.write(render_json(build()))
