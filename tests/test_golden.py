"""Byte identity of rendered decomposition reports.

Each file under ``tests/golden/`` is the ``render_json`` output of one
instance, recorded before the code it guards was changed (the first ones
from the dense rational engine): every corpus case, plus
seeded explicit and metric instances verified over q, z, zp:2 and zp:3,
three metric instances whose distances break the triangle inequality,
reach "inf", or have mixed denominators, and two Vietoris-Rips instances
whose cross simplices share obstruction complexes (a circle and an L-inf
grid cloud, verified over q and z).  Three more reach verdicts no other
instance does: a cross edge over a dunce hat (``inconclusive``, explicit
and flag), a four-point gluing whose simplex condition fails, and an RP^2
obstruction beside a cone (``torsion-obstructions: holds``).

``fuzz-digests.txt`` holds the SHA-256 of the ``render_json`` output of
each of a thousand seeded reports (``fuzz_report``), one line per seed.
Rebuild them only from a commit whose outputs are trusted:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
import os
from fractions import Fraction

import pytest

from ripsdecomp import Complex, Cover, DistanceSpace, MetricCover, analyze, analyze_metric
from ripsdecomp.corpus import CASES, run_case, space_for
from ripsdecomp.reporting import parse_report, render_json

from conftest import (
    PROJECTIVE_PLANE,
    circle_cover,
    dunce_hat,
    grid_cover,
    random_cover,
    random_flag,
    random_metric_cover,
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


def _dunce(flag):
    """The cross edge {25, 26} joined to a dunce hat on 0..24, which is its
    obstruction: acyclic without a certificate.  The flag complex of its
    1-skeleton (cap 4) is the same complex."""
    k = Complex.from_facets([f + [25, 26] for f in dunce_hat()])
    if flag:
        k = Complex.flag(k.vertices, k.edges(), dim_cap=4)
    d = set(range(25))
    return analyze(k, Cover(d | {25}, d | {26}), dim_cap=4, fields=FIELDS)


def _gluing_simplex_fails():
    """A gluing along {a1, a2} whose cross pair (x, y) is close to both a1
    and a2 through x, while d(a1, a2) = 2 exceeds r = 3/2."""
    half = Fraction(1, 2)
    labels = ["a1", "a2", "x", "y"]
    matrix = [
        [0, 2, 1, half],
        [2, 0, 1, 5 * half],
        [1, 1, 0, 3 * half],
        [half, 5 * half, 3 * half, 0],
    ]
    mc = MetricCover(DistanceSpace(labels, matrix), ["a1", "a2", "x"], ["a1", "a2", "y"], 3 * half)
    return analyze_metric(mc, dim_cap=3, fields=FIELDS)


def _torsion_holds():
    """The cross edge {10, 11} over an RP^2 on 0..5 (Z/2 in degree 1) beside
    the cross edge {12, 13} over the cone {0, 1}."""
    facets = [f + [10, 11] for f in PROJECTIVE_PLANE] + [[0, 1, 12, 13]]
    a = set(range(6))
    return analyze(
        Complex.from_facets(facets), Cover(a | {10, 12}, a | {11, 13}), dim_cap=4, fields=FIELDS
    )


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
    out.append(("explicit-dunce", lambda: _dunce(flag=False)))
    out.append(("flag-dunce", lambda: _dunce(flag=True)))
    out.append(("metric-gluing-simplex-fails", _gluing_simplex_fails))
    out.append(("explicit-torsion-holds", _torsion_holds))
    return out


GOLDEN = golden_reports()

#: The statuses of each criterion that some golden report reaches.  The
#: dunce hat, gluing and torsion instances alone reach contractible-obstructions
#: inconclusive, gluing-simplex-condition fails and torsion-obstructions holds.
REACHED = {
    "no-cross-simplices": "holds fails",
    "contractible-obstructions": "holds fails inconclusive",
    "acyclic-obstructions": "holds fails",
    "torsion-obstructions": "holds fails not_applicable",
    "obstruction-connectivity": "holds fails not_applicable",
    "skeleton-obstruction-connectivity": "holds fails not_applicable",
    "edge-intersection-nonempty": "holds fails not_applicable",
    "constant-obstruction": "holds fails not_applicable",
    "full-intersection-obstruction": "holds fails not_applicable",
    "all-intersection-subsets-extend": "holds fails not_applicable",
    "singleton-intersection-extends": "fails not_applicable",
    "one-entry-point": "holds fails not_applicable",
    "edge-standard-obstructions": "holds fails not_applicable",
    "edge-constant-obstruction": "holds fails not_applicable",
    "edge-full-intersection": "holds fails not_applicable",
    "edge-pair-extension": "holds fails not_applicable",
    "edge-singleton-extension": "fails not_applicable",
    "clique-entry-point-adjacent": "holds fails not_applicable",
    "clique-entry-point-central": "holds fails not_applicable",
    "clique-entry-point-local": "holds fails not_applicable",
    "two-entry-points": "holds fails not_applicable",
    "shared-witness": "holds fails",
    "witness-ball-closure": "holds fails not_applicable",
    "small-intersection-diameter": "holds fails not_applicable",
    "shared-singleton": "fails not_applicable",
    "cross-domination": "holds fails",
    "cross-dominates-diameter": "holds fails not_applicable",
    "radius-independence": "holds fails not_applicable",
    "full-witness-set": "holds fails not_applicable",
    "metric-gluing": "holds fails",
    "gluing-simplex-condition": "holds fails not_applicable",
    "gluing-strong-simplex-condition": "holds fails not_applicable",
}

FUZZ_FILE = os.path.join(GOLDEN_DIR, "fuzz-digests.txt")
FUZZ_SEEDS = range(1000)

#: Holds only seeded pools reach: each needs a one-point intersection.
FUZZ_REACHED = {
    ("singleton-intersection-extends", "holds"),
    ("edge-singleton-extension", "holds"),
    ("shared-singleton", "holds"),
}


def fuzz_report(seed):
    """Seed s % 3: 0 a flag complex, 1 random facets with an RP^2 wedged on
    over q, z, zp:2 and zp:3, 2 a random metric cover (``inf`` entries,
    fractions, tolerances, broken triangle inequalities).  Verification is
    on for s % 9 < 3, a third of each kind."""
    rng = rng_for(50000 + seed)
    verify = seed % 9 < 3
    kind = seed % 3
    if kind == 0:
        k = random_flag(rng, max_vertices=9, edge_p=rng.choice((0.4, 0.6, 0.8)), dim_cap=3)
        return analyze(k, random_cover(rng, k), dim_cap=rng.randint(1, 3), verify=verify)
    if kind == 1:
        n = rng.randint(3, 8)
        facets = [rng.sample(range(n), rng.randint(1, min(4, n))) for _ in range(rng.randint(1, 5))]
        facets += [[v and n + v for v in f] for f in PROJECTIVE_PLANE]
        k = Complex.from_facets(facets)
        return analyze(k, random_cover(rng, k), dim_cap=rng.randint(1, 4), fields=FIELDS, verify=verify)
    mc = random_metric_cover(rng)
    return analyze_metric(mc, dim_cap=rng.randint(1, 3), fields=("q", "z", "zp:2"), verify=verify)


def fuzz_digest(seed):
    return hashlib.sha256(render_json(fuzz_report(seed)).encode()).hexdigest()


@pytest.mark.parametrize("name,build", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_report_bytes_match_golden(name, build):
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as fh:
        assert render_json(build()) == fh.read()


def _with_item_table(name, build):
    """A fresh golden report that keeps its item table: a corpus case is
    built as ``run_case`` builds it, before ``compare`` reads its items."""
    for case in CASES:
        if name == f"corpus-{case.name}":
            mc = MetricCover(space_for(case), case.x, case.y, case.r)
            return analyze_metric(mc, dim_cap=case.dim_cap, fields=list(case.fields))
    return build()


def _golden_text(name):
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as fh:
        return fh.read()


@pytest.mark.parametrize("name,build", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_every_render_path_gives_the_golden_bytes(name, build):
    """The writer from the records the report keeps (its item table, and a
    verified report's profile and induced-map records), then plain
    json.dumps, which builds their dicts and drops the records, then the
    writer from those dicts; the report reads back as itself."""
    text = _golden_text(name)
    report = _with_item_table(name, build)
    verified = json.loads(text)["profiles"] is not None
    kept = {"items", "profiles", "induced"} if verified else {"items"}
    assert set(report.kept()) == kept
    assert render_json(report) == text
    assert json.dumps(report.to_dict(), indent=2, sort_keys=True) == text
    assert report.kept() == {}
    assert render_json(report) == text
    assert parse_report(render_json(report)) == report == parse_report(text)


@pytest.mark.parametrize("name,build", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_assigned_items_replace_the_item_table(name, build):
    """Assigning ``items`` drops the table, and the writer follows the new
    list."""
    items = json.loads(_golden_text(name))["items"][::-1] + [{"dim": 0, "simplex": ["new"]}]
    report = _with_item_table(name, build)
    report.items = items
    assert report.item_table is None
    text = render_json(report)
    assert json.loads(text)["items"] == items
    assert text == json.dumps(report.to_dict(), indent=2, sort_keys=True)


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_corpus_case_matches_expectations(case):
    assert run_case(case)[1] == []


def test_goldens_reach_every_pinned_verdict():
    reached = set()
    for name, _ in GOLDEN:
        with open(os.path.join(GOLDEN_DIR, name + ".json")) as fh:
            reached.update((v["criterion"], v["status"]) for v in json.load(fh)["verdicts"])
    pinned = {(crit, status) for crit, statuses in REACHED.items() for status in statuses.split()}
    assert pinned <= reached, sorted(pinned - reached)


def test_fuzz_reports_match_their_digests():
    with open(FUZZ_FILE) as fh:
        expected = dict(line.split() for line in fh)
    assert sorted(map(int, expected)) == list(FUZZ_SEEDS)
    reached = set()
    for seed in FUZZ_SEEDS:
        report = fuzz_report(seed)
        digest = hashlib.sha256(render_json(report).encode()).hexdigest()
        assert digest == expected[str(seed)], f"fuzz seed {seed} renders differently"
        reached.update((v.criterion, v.status) for v in report.verdicts)
    assert FUZZ_REACHED <= reached, sorted(FUZZ_REACHED - reached)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, build in GOLDEN:
        with open(os.path.join(GOLDEN_DIR, name + ".json"), "w") as fh:
            fh.write(render_json(build()))
    with open(FUZZ_FILE, "w") as fh:
        fh.writelines(f"{seed} {fuzz_digest(seed)}\n" for seed in FUZZ_SEEDS)
