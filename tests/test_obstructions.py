"""Obstruction records: each distinct obstruction complex of a report is
certified once and profiled only when no certificate exists, K[A] is
classified only when it is needed, the coverage flag agrees with the full
clique enumeration, and the criteria read from the records agree with the
enumeration-based and homology-based references they replace."""

from collections import Counter

import pytest

from ripsdecomp import Complex, Cover, analyze, analyze_metric, analyzer, vietoris_rips
from ripsdecomp.complexes import make_simplex
from ripsdecomp.homology import homology

from conftest import (
    PROJECTIVE_PLANE,
    circle_cover,
    grid_cover,
    random_complex,
    random_cover,
    random_flag,
    rng_for,
)


@pytest.fixture
def obstruction_calls(monkeypatch):
    """Complexes passed to obstruction profiles (homology without max_deg)
    and to certificate searches, recorded in call order."""
    calls = {"homology": [], "certificate": []}
    homology = analyzer.homology
    certificate = analyzer.contractibility_certificate

    def counted_homology(complex_, *args, **kwargs):
        if "max_deg" not in kwargs:
            calls["homology"].append(complex_)
        return homology(complex_, *args, **kwargs)

    def counted_certificate(complex_):
        calls["certificate"].append(complex_)
        return certificate(complex_)

    monkeypatch.setattr(analyzer, "homology", counted_homology)
    monkeypatch.setattr(analyzer, "contractibility_certificate", counted_certificate)
    return calls


@pytest.mark.parametrize(
    "mc,least",
    [(circle_cover(30), 0), (grid_cover(1, 16, 8, 3), 1)],
    ids=["circle-30", "grid-16"],
)
def test_each_distinct_obstruction_is_profiled_and_certified_once(obstruction_calls, mc, least):
    report = analyze_metric(mc, dim_cap=3)
    searched = [c.vertices for c in obstruction_calls["certificate"]]
    assert len(searched) == len(set(searched))
    # profiled: exactly the complexes of the distinct homology-only records,
    # each once (every circle-30 obstruction is a cone)
    vr = vietoris_rips(mc.space, mc.r, 3)
    homology_only = {
        tuple(mc.space.index(p) for p in it["obstruction_vertices"])
        for it in report.items
        if it["status"] == "homology-only"
    }
    expected = Counter(
        frozenset(vr.restrict(vs).to_explicit(full=True).simplices()) for vs in homology_only
    )
    profiled = Counter(frozenset(c.simplices()) for c in obstruction_calls["homology"])
    assert profiled == expected
    assert len(homology_only) >= least
    distinct = {tuple(it["obstruction_vertices"]) for it in report.items}
    assert len(distinct) < report.census["total"]


def test_intersection_restriction_left_alone_when_an_obstruction_differs(obstruction_calls):
    mc = circle_cover(30)
    report = analyze_metric(mc, dim_cap=3)
    a = sorted(report.cover["A"])
    assert any(sorted(it["obstruction_vertices"]) != a for it in report.items)
    assert report.verdict("full-intersection-obstruction").status == "fails"
    for kind in ("homology", "certificate"):
        assert all(
            sorted(mc.space.labels[v] for v in c.vertices) != a
            for c in obstruction_calls[kind]
        ), kind


def test_full_coverage_matches_the_enumerated_dimension():
    rng = rng_for(113)
    for i in range(80):
        if i % 2:
            k = random_flag(rng, max_vertices=9, edge_p=rng.choice((0.4, 0.7)), dim_cap=4)
            dim_cap = rng.randint(1, k.dim_cap)
        else:
            k = random_complex(rng, max_vertices=8, max_facet_size=5)
            dim_cap = rng.randint(1, 4)
        kdim = k.dim()
        expected = kdim <= dim_cap and not (k.is_flag and kdim == k.dim_cap == dim_cap)
        ctx = analyzer._Context(k, random_cover(rng, k), dim_cap)
        assert ctx.full_coverage == expected


def _cover(rng, k, shared):
    """Each vertex in both sides with probability ``shared``, else in one."""
    x, y = set(), set()
    split = shared + (1 - shared) / 2
    for v in k.vertices:
        roll = rng.random()
        if roll < split:
            x.add(v)
        if roll < shared or roll >= split:
            y.add(v)
    return Cover(x, y)


def _seeded_contexts(seed, count, shared=0.2):
    """Flag and explicit contexts with seeded covers."""
    rng = rng_for(seed)
    for i in range(count):
        if i % 2:
            k = random_flag(rng, max_vertices=11, edge_p=rng.choice((0.4, 0.6, 0.8)), dim_cap=4)
            dim_cap = rng.randint(1, k.dim_cap)
        else:
            k = random_complex(rng, max_vertices=10, max_facets=8, max_facet_size=5)
            dim_cap = rng.randint(1, 4)
        yield analyzer._Context(k, _cover(rng, k, shared), dim_cap)


def _tree_contexts(seed, count):
    """The cross edge {u, w} over a random tree on the intersection: its
    obstruction is the tree, collapsible and a cone only when it is a star.
    Flag and explicit backings alternate."""
    rng = rng_for(seed)
    for i in range(count):
        m = rng.randint(4, 9)
        tree = [(rng.randrange(j), j) for j in range(1, m)]
        u, w = m, m + 1
        if i % 2:
            edges = tree + [(u, w)] + [(v, t) for v in range(m) for t in (u, w)]
            k = Complex.flag(range(m + 2), edges, dim_cap=3)
        else:
            k = Complex.from_facets([[a, b, u, w] for a, b in tree])
        yield analyzer._Context(k, Cover(set(range(m)) | {u}, set(range(m)) | {w}), 3)


def _torsion_contexts(seed, count):
    """Explicit complexes where the cross edge {u, w} has an RP^2 on the
    intersection as its obstruction (Z/2 in degree 1), beside random facets
    through the intersection whose cross simplices have other obstructions."""
    rng = rng_for(seed)
    for _ in range(count):
        n = rng.randint(3, 7)
        rp2 = [n + v for v in range(6)]
        u, w = n + 6, n + 7
        facets = [[rp2[v] for v in f] + [u, w] for f in PROJECTIVE_PLANE]
        for _ in range(rng.randint(1, 5)):
            base = rng.sample(range(n), rng.randint(1, min(3, n)))
            facets.append(base + rng.sample(rp2, rng.randint(1, 3)))
        k = Complex.from_facets(facets)
        side = {v: rng.choice("xy") for v in k.vertices if v < n}
        x = set(rp2) | {u} | {v for v in side if side[v] == "x"}
        y = set(rp2) | {w} | {v for v in side if side[v] == "y"}
        yield analyzer._Context(k, Cover(x, y), 4)


def one_entry_point_oracle(ctx):
    """(witness label, n) of the one-entry-point criterion, by enumerating
    every cross simplex of the whole complex again; None when it fails."""
    cross = [
        s
        for s in ctx.complex.simplices(max_dim=ctx.dim_cap)
        if set(s) & ctx.x_only and set(s) & ctx.y_only
    ]
    for n in range(ctx.dim_cap - 1, -1, -1):
        for v in sorted(ctx.a):
            if all(
                len(set(t) - ctx.a) > n + 2 or make_simplex(t + (v,)) in ctx.complex
                for t in cross
            ):
                return ctx.label(v), n
    return None


def clique_entry_local_oracle(ctx):
    """Label of the first intersection vertex extending every cross edge
    and every cross edge plus one intersection vertex, or None."""
    small = []
    for it in ctx.edge_items:
        small.append(it.simplex)
        small += [
            make_simplex(it.simplex + (a,))
            for a in sorted(ctx.a)
            if make_simplex(it.simplex + (a,)) in ctx.complex
        ]
    for v in sorted(ctx.a):
        if all(make_simplex(t + (v,)) in ctx.complex for t in small):
            return ctx.label(v)
    return None


def profile_of(obs):
    return homology(obs.complex.to_explicit(full=True), "z", reduced=True)


def connectivity_oracle(obs):
    """Homological connectivity from the integral profile."""
    profile = profile_of(obs)
    top = profile.degrees[-1]
    n = -1
    for d in range(0, top + 1):
        if profile.betti.get(d, 0) or profile.torsion_at(d):
            break
        n = d
    return "all" if n == top else n


def torsion_oracle(ctx):
    """(prime, iso_upto) of the torsion criterion from the profile of every
    obstruction, or None when it does not hold."""
    if any(it.obs.status == "empty" for it in ctx.items):
        return None
    profiles = [profile_of(it.obs) for it in ctx.items]
    primes = {
        min(b for b in range(2, q + 1) if q % b == 0)
        for prof in profiles
        for powers in prof.torsion.values()
        for q in powers
    }
    if len(primes) != 1:
        return None
    if any(prof.betti.get(0, 0) or prof.betti.get(-1, 0) for prof in profiles):
        return None
    best = min(
        next((d - 1 for d in range(1, prof.degrees[-1] + 1) if prof.betti.get(d, 0)), prof.degrees[-1])
        for prof in profiles
    )
    return primes.pop(), best


def test_entry_point_criteria_match_the_enumeration():
    seen = Counter()
    for ctx in _seeded_contexts(401, 400, shared=0.4):
        verdict = analyzer._crit_one_entry_point(ctx)
        if ctx.items and ctx.a:
            expected = one_entry_point_oracle(ctx)
            if expected is None:
                assert verdict.status == "fails" and verdict.witness is None
            else:
                witness, n = expected
                assert (verdict.status, verdict.witness) == ("holds", witness)
                assert verdict.claim == analyzer._claim_connected(n)
            seen["one-entry-" + verdict.status] += 1
        local = analyzer._crit_clique_entry_local(ctx)
        if ctx.complex.is_flag and ctx.a:
            expected = clique_entry_local_oracle(ctx)
            assert local.witness == expected
            assert local.status == ("fails" if expected is None else "holds")
            seen["local-" + local.status] += 1
            seen["local-no-edges"] += not ctx.edge_items
    assert min(seen.values()) >= 10, seen
    assert len(seen) == 5, seen


def test_certificates_answer_connectivity_without_homology(monkeypatch):
    seen = Counter()
    for ctx in [*_seeded_contexts(402, 200, shared=0.5), *_tree_contexts(405, 20)]:
        records = {id(it.obs): it.obs for it in ctx.items}.values()
        for obs in records:
            if obs.status == "empty":
                continue
            expected = connectivity_oracle(obs)
            if obs.certified:
                monkeypatch.setattr(analyzer, "homology", None)
                assert ctx.connectivity(obs) == (True, expected) == (True, "all")
                monkeypatch.undo()
                assert obs.profile is None
            else:
                assert ctx.connectivity(obs) == (False, expected)
            seen[obs.status] += 1
    assert min(seen[s] for s in ("cone", "collapse", "homology-only")) >= 5, seen


def test_torsion_criterion_matches_the_profiles():
    seen = Counter()
    contexts = list(_seeded_contexts(403, 100)) + list(_torsion_contexts(404, 100))
    for ctx in contexts:
        verdict = analyzer._crit_torsion(ctx)
        expected = torsion_oracle(ctx)
        if verdict.status == "holds":
            assert expected == (verdict.claim["exclude_char"], verdict.claim["iso_upto"])
            seen["holds-with-certified"] += any(it.obs.certified for it in ctx.items)
        else:
            assert expected is None
        seen[verdict.status] += 1
    assert seen["holds-with-certified"] >= 3, seen


def test_torsion_holds_through_the_degree_of_a_certified_obstruction():
    """A cross edge whose obstruction is RP^2 (Z/2 in degree 1, nothing
    above) next to one whose obstruction is a certified 1-simplex: the
    certified record bounds the claim at degree 1, as its profile would."""
    facets = [f + [10, 11] for f in PROJECTIVE_PLANE] + [[0, 1, 12, 13]]
    k = Complex.from_facets(facets)
    a = set(range(6))
    cover = Cover(a | {10, 12}, a | {11, 13})
    report = analyze(k, cover, dim_cap=4, fields=["q", "z", "zp:2", "zp:3"])
    statuses = {tuple(it["simplex"]): it["status"] for it in report.items}
    assert statuses == {("10", "11"): "homology-only", ("12", "13"): "cone"}
    verdict = report.verdict("torsion-obstructions")
    assert verdict.status == "holds" and verdict.witness == "2"
    assert verdict.claim == {"iso_upto": 1, "surj_at": 2, "exclude_char": 2}
    assert torsion_oracle(analyzer._Context(k, cover, 4)) == (2, 1)
    assert report.soundness["ok"]
