"""Byte identity of rendered decomposition reports.

Each file under ``tests/golden/`` is the ``render_json`` output of one
instance, recorded from the dense rational engine: every corpus case, plus
seeded explicit and metric instances verified over q, z, zp:2 and zp:3.
Rebuild them only from a commit whose outputs are trusted:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
from fractions import Fraction

import pytest

from ripsdecomp import Complex, MetricCover, analyze, analyze_metric
from ripsdecomp.corpus import CASES, run_case
from ripsdecomp.reporting import render_json

from conftest import PROJECTIVE_PLANE, random_cover, random_pseudometric, rng_for

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


def _metric(seed):
    rng = rng_for(2000 + seed)
    labels = [f"p{i}" for i in range(rng.randint(5, 8))]
    space = random_pseudometric(rng, labels, max_whole=4)
    x = [p for p in labels if rng.random() < 0.6]
    y = [p for p in labels if p not in x or rng.random() < 0.4]
    mc = MetricCover(space, x, y, Fraction(rng.randint(2, 4)))
    return analyze_metric(mc, dim_cap=3, fields=FIELDS)


def golden_reports():
    """(name, thunk returning the report) for every golden instance."""
    out = [(f"corpus-{c.name}", lambda c=c: run_case(c)[0]) for c in CASES]
    out += [(f"explicit-{s}", lambda s=s: _explicit(s)) for s in SEEDS]
    out += [(f"metric-{s}", lambda s=s: _metric(s)) for s in SEEDS]
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
