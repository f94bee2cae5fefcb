"""Obstruction records: each distinct obstruction complex of a report is
certified and profiled once, K[A] is classified only when it is needed, and
the coverage flag agrees with the full clique enumeration."""

import pytest

from ripsdecomp import analyze_metric, analyzer

from conftest import (
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
    "mc", [circle_cover(30), grid_cover(1, 16, 8, 3)], ids=["circle-30", "grid-16"]
)
def test_each_distinct_obstruction_is_profiled_and_certified_once(obstruction_calls, mc):
    report = analyze_metric(mc, dim_cap=3)
    profiled = [frozenset(c.simplices()) for c in obstruction_calls["homology"]]
    searched = [c.vertices for c in obstruction_calls["certificate"]]
    assert len(profiled) == len(set(profiled))
    assert len(searched) == len(set(searched))
    distinct = {tuple(it["obstruction_vertices"]) for it in report.items}
    assert 0 < len(profiled) <= len(distinct) < report.census["total"]


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
