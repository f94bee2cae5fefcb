"""Obstruction records: each distinct obstruction complex of a report is
certified once and profiled only when no certificate exists, K[A] is
classified only when it is needed, the coverage flag agrees with the full
clique enumeration, and the criteria read from the records agree with the
enumeration-based and homology-based references they replace."""

from collections import Counter

import pytest

from ripsdecomp import (
    Complex,
    ContractibilityCertificate,
    Cover,
    CriterionVerdict,
    analyze,
    analyze_metric,
    analyzer,
    vietoris_rips,
)
from ripsdecomp.complexes import _bits, make_simplex
from ripsdecomp.homology import contractibility_certificate, homology

from conftest import (
    PROJECTIVE_PLANE,
    circle_cover,
    grid_cover,
    random_complex,
    random_cover,
    random_flag,
    rng_for,
    rp2_with_clique,
)
from oracles import central_vertices, good_vertices


@pytest.fixture
def obstruction_calls(monkeypatch):
    """Complexes passed to obstruction profiles (homology without max_deg)
    and to certificate searches, recorded in call order.  A search on a flag
    complex's vertex mask is recorded as the full subcomplex on the mask."""
    calls = {"homology": [], "certificate": []}
    homology = analyzer.homology
    certificate = analyzer.contractibility_certificate

    def counted_homology(complex_, *args, **kwargs):
        if "max_deg" not in kwargs:
            calls["homology"].append(complex_)
        return homology(complex_, *args, **kwargs)

    def counted_certificate(complex_, *mask):
        calls["certificate"].append(complex_.subcomplex(*mask) if mask else complex_)
        return certificate(complex_, *mask)

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
        frozenset(vr.restrict(vs).to_explicit().simplices()) for vs in homology_only
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


def _flag_contexts(seed, count):
    """Flag contexts with seeded covers, the flag ones of ``_tree_contexts``,
    then the 80-point circle at r = 20, cap 3, whose records with no
    central vertex are certified by collapse."""
    rng = rng_for(seed)
    for _ in range(count):
        k = random_flag(rng, max_vertices=12, edge_p=rng.choice((0.3, 0.5, 0.7)), dim_cap=4)
        cover = _cover(rng, k, rng.choice((0.4, 0.6, 0.8)))
        yield "random", analyzer._Context(k, cover, rng.randint(1, k.dim_cap))
    for ctx in _tree_contexts(seed, count):
        if ctx.complex.is_flag:
            yield "random", ctx
    mc = circle_cover(80)
    yield "circle-80", analyzer._Context(vietoris_rips(mc.space, mc.r, 3), Cover(mc.x, mc.y), 3)


def test_flag_records_from_masks_match_the_complex_path():
    """Each flag obstruction record is made from its vertex mask on the whole
    complex's graph, with no complex built, and equals the path that builds
    the full subcomplex on the mask: the same vertex and central masks, and
    the same certificate (kind, apex, steps and dominations), so the same
    status."""
    seen = Counter()
    for kind, ctx in _flag_contexts(161, 100):
        for key, obs in ctx._records.items():
            assert obs._complex is None
            old = ctx.complex.subcomplex(key)
            assert obs.mask == key == sum(1 << v for v in old.vertices)
            assert _bits(obs.central) == central_vertices(old)
            if old.is_empty:
                assert (obs.status, obs.certificate) == ("empty", None)
                seen[kind, "empty"] += 1
                continue
            cert = contractibility_certificate(old)
            assert obs.certificate == cert, (kind, old.edges())
            status = (
                "homology-only" if cert is None
                else "cone" if cert.kind == ContractibilityCertificate.CENTRAL
                else "collapse"
            )
            assert obs.status == status
            seen[kind, status] += 1
    assert seen["circle-80", "collapse"] == 14, seen
    statuses = ("empty", "cone", "collapse", "homology-only")
    assert min(seen["random", s] for s in statuses) >= 10, seen


def test_records_build_no_complex_whatever_their_number(monkeypatch):
    """``analyze_metric`` on the 30-, 36- and 42-point circles builds the
    same three complexes however many obstruction records there are: the
    Vietoris-Rips complex, K[A] and the pair-extension witness's one
    obstruction."""
    built = []
    real = Complex.__init__
    monkeypatch.setattr(Complex, "__init__", lambda self, **kw: built.append(1) or real(self, **kw))
    records = {}
    for n in (30, 36, 42):
        built.clear()
        report = analyze_metric(circle_cover(n), dim_cap=3, verify=False)
        records[len(report.records["items"].records)] = len(built)
    assert records == {40: 3, 48: 3, 70: 3}


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


def verdict_of(criterion, ctx):
    """The verdict of one criterion, through its table row and the builder."""
    row = next(rule for rule in analyzer._RULES if rule.id == criterion)
    return analyzer._verdict(row, ctx)


class TestVerdictHonesty:
    """``_verdict`` alone keeps a claim above degree 0 to certified records,
    whatever the rule: synthetic rows stand in for the catalog's."""

    @staticmethod
    def verdict(test, degrees=None):
        ctx = analyzer._Context(Complex.from_facets([[0, 1], [1, 2]]), Cover({0, 1}, {1, 2}), 3)
        rule = analyzer._Rule("synthetic", test, degrees=degrees, conclusion="iso to {iso_upto}")
        return analyzer._verdict(rule, ctx)

    @pytest.mark.parametrize(
        "degree",
        ["all", {"iso_upto": 2, "surj_at": 3, "exclude_char": 2}],
        ids=["all", "claim"],
    )
    def test_a_degree_less_hold_without_certificate_is_inconclusive(self, degree):
        verdict = self.verdict(lambda ctx, n: analyzer._holds(degree, "w", "d", certified=False))
        assert verdict == CriterionVerdict("synthetic", "inconclusive", "w", None, None, "d")
        certified = self.verdict(lambda ctx, n: analyzer._holds(degree, "w", "d"))
        assert (certified.status, certified.witness, certified.detail) == ("holds", "w", "d")
        want = degree if isinstance(degree, dict) else analyzer._claim_connected(degree)
        assert certified.claim == want
        assert certified.conclusion == f"iso to {want['iso_upto']}"

    def test_a_hold_at_degree_0_needs_no_certificate(self):
        verdict = self.verdict(lambda ctx, n: analyzer._holds(0, "w", "d", certified=False))
        assert verdict.status == "holds"
        assert verdict.claim == analyzer._claim_connected(0)

    @pytest.mark.parametrize("degrees", [analyzer._scan, analyzer._all_or_0], ids=["scan", "all-or-0"])
    def test_a_scanned_hold_without_certificate_falls_back_to_degree_0(self, degrees):
        tried = []

        def test(ctx, n):
            tried.append(n)
            return analyzer._holds(n, f"w{n}", "d", certified=False)

        verdict = self.verdict(test, degrees)
        assert tried == [2, 1, 0] if degrees is analyzer._scan else tried == ["all", 0]
        assert (verdict.status, verdict.witness) == ("holds", "w0")
        assert verdict.claim == analyzer._claim_connected(0)

    def test_a_scan_stops_at_the_best_certified_degree(self):
        def test(ctx, n):
            if n == 2:
                return analyzer._fails("too high")
            return analyzer._holds(n, certified=n < 2)

        verdict = self.verdict(test, analyzer._scan)
        assert verdict.claim == analyzer._claim_connected(1)


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
    for simplex in (simplex for simplex, c in ctx.items if c.dim == 1):
        small.append(simplex)
        small += [
            make_simplex(simplex + (a,))
            for a in sorted(ctx.a)
            if make_simplex(simplex + (a,)) in ctx.complex
        ]
    for v in sorted(ctx.a):
        if all(make_simplex(t + (v,)) in ctx.complex for t in small):
            return ctx.label(v)
    return None


def profile_of(obs):
    return homology(obs.complex.to_explicit(), "z", reduced=True)


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
    if any(c.obs.status == "empty" for _, c in ctx.items):
        return None
    profiles = [profile_of(c.obs) for _, c in ctx.items]
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
        verdict = verdict_of("one-entry-point", ctx)
        if ctx.items and ctx.a:
            expected = one_entry_point_oracle(ctx)
            if expected is None:
                assert verdict.status == "fails" and verdict.witness is None
            else:
                witness, n = expected
                assert (verdict.status, verdict.witness) == ("holds", witness)
                assert verdict.claim == analyzer._claim_connected(n)
            seen["one-entry-" + verdict.status] += 1
        local = verdict_of("clique-entry-point-local", ctx)
        if ctx.complex.is_flag and ctx.a:
            expected = clique_entry_local_oracle(ctx)
            assert local.witness == expected
            assert local.status == ("fails" if expected is None else "holds")
            seen["local-" + local.status] += 1
            seen["local-no-edges"] += not ctx.edge_classes
    assert min(seen.values()) >= 10, seen
    assert len(seen) == 5, seen


def test_certificates_answer_connectivity_without_homology(monkeypatch):
    seen = Counter()
    for ctx in [*_seeded_contexts(402, 200, shared=0.5), *_tree_contexts(405, 20)]:
        records = {id(c.obs): c.obs for _, c in ctx.items}.values()
        for obs in records:
            if obs.status == "empty":
                continue
            expected = connectivity_oracle(obs)
            if obs.certified:
                monkeypatch.setattr(analyzer, "homology", None)
                assert obs.connectivity() == expected == "all"
                monkeypatch.undo()
                assert obs._profile is None
            else:
                assert obs.connectivity() == expected
            seen[obs.status] += 1
    assert min(seen[s] for s in ("cone", "collapse", "homology-only")) >= 5, seen


def test_torsion_criterion_matches_the_profiles():
    seen = Counter()
    contexts = list(_seeded_contexts(403, 100)) + list(_torsion_contexts(404, 100))
    for ctx in contexts:
        verdict = verdict_of("torsion-obstructions", ctx)
        expected = torsion_oracle(ctx)
        if verdict.status == "holds":
            assert expected == (verdict.claim["exclude_char"], verdict.claim["iso_upto"])
            seen["holds-with-certified"] += any(c.obs.certified for _, c in ctx.items)
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


def moore_space_mod_3(base):
    """A 13-vertex mod-3 Moore space on ids base..base+12, H_1 = Z/3: the
    apex o, a ring u0..u8 coned off from o, and a boundary c0..c2 the ring
    wraps three times."""
    o, u, c = base, [base + 1 + i for i in range(9)], [base + 10 + i for i in range(3)]
    return [
        facet
        for i in range(9)
        for facet in (
            [o, u[i], u[(i + 1) % 9]],
            [u[i], u[(i + 1) % 9], c[i % 3]],
            [u[(i + 1) % 9], c[i % 3], c[(i + 1) % 3]],
        )
    ]


def test_torsion_at_two_primes_fails():
    """Two cross edges, one with RP^2 (Z/2) as its obstruction, the other a
    mod-3 Moore space (Z/3): no single prime is excluded."""
    moore = moore_space_mod_3(10)
    profile = homology(Complex.from_facets(moore), coeffs="z")
    assert profile.torsion == {1: (3,)} and not any(profile.betti.values())
    x1, y1, x2, y2 = 30, 31, 32, 33
    facets = [f + [x1, y1] for f in PROJECTIVE_PLANE] + [f + [x2, y2] for f in moore]
    k = Complex.from_facets(facets)
    a = set(range(6)) | set(range(10, 23))
    report = analyze(k, Cover(a | {x1, x2}, a | {y1, y2}), dim_cap=4)
    assert report.census["by_status"] == {"homology-only": 2}
    verdict = report.verdict("torsion-obstructions")
    assert verdict.status == "fails"
    assert verdict.detail == "torsion at several primes [2, 3]; no single excluded prime"
    assert report.soundness["ok"]


@pytest.mark.parametrize("size", [8, 21])
def test_torsion_reads_the_top_degree_of_a_big_cone_without_enumerating_it(size):
    """The cross edge x1 y1 has the barycentric RP^2 as its obstruction, and
    x2 y2 a clique, a cone: the cone bounds nothing below RP^2's degree 2, so
    the claim holds through degree 2 whatever the clique's size.  A 21-clique
    has 2^21 - 1 faces, past the simplex budget, so its top degree is read
    by existence search."""
    k, cover = rp2_with_clique(size)
    report = analyze(k, cover, dim_cap=3)
    assert [it["status"] for it in report.items] == ["homology-only", "cone"]
    verdict = report.verdict("torsion-obstructions")
    assert verdict.status == "holds" and verdict.witness == "2"
    assert verdict.claim == {"iso_upto": 2, "surj_at": 3, "exclude_char": 2}
    assert report.soundness["ok"]


def _conn_at_least(conn, n):
    """Is a homological connectivity (None when empty) at least n?"""
    if conn is None:
        return False
    return conn == "all" or (n != "all" and conn >= n)


def _mask(vertices):
    return sum(1 << v for v in vertices)


def test_class_table_matches_a_scan_of_the_classes():
    """For every prefix of classes through a dimension and every threshold,
    in a shuffled order, the table's first failing class is the first one a
    scan of the classes' connectivity finds; the prefix ANDs of good(k) and
    the edge classes' masks are the intersections of the sets the
    definition gives; and each record test picks the first class a scan of
    the obstruction complexes picks."""
    rng = rng_for(409)
    seen = Counter()
    contexts = [*_seeded_contexts(410, 160, shared=0.4), *_tree_contexts(411, 20)]
    for ctx in contexts + list(_torsion_contexts(412, 20)):
        queries = [
            (d, n) for d in range(ctx.dim_cap + 1) for n in [*range(-1, ctx.dim_cap + 1), "all"]
        ]
        rng.shuffle(queries)
        for d, n in queries:
            through = ctx.classes_through(d)
            got = ctx.first_unconnected(len(through), n)
            want = next(
                (i for i, c in enumerate(through)
                 if not _conn_at_least(c.obs.connectivity(), n)),
                None,
            )
            assert got == want, (d, n)
            seen["fails" if got is not None else "holds"] += 1
        cap, a = ctx.dim_cap, set(ctx.a)
        for d in range(ctx.dim_cap + 1):
            through = ctx.classes_through(d)
            ok = a.intersection(*(good_vertices(c.obs.complex, cap - c.dim) for c in through))
            assert ctx.a_mask & ctx.entry_points(len(through)) == _mask(ok)
            seen["entry"] += bool(ok) and bool(through)
        edges = [c.obs.complex for c in ctx.edge_classes]
        central = [good_vertices(o, len(o.vertices)) for o in edges]
        assert ctx.a_mask & ctx.edge_central == _mask(a.intersection(*central))
        assert ctx.a_mask & ctx.edge_shared == _mask(a.intersection(*(o.vertices for o in edges)))
        assert ctx.edge_spread == _mask(set().union(*(o.vertices for o in edges)))
        for c in ctx.classes:
            o = c.obs.complex
            goods = [c.obs.good(k) for k in range(cap + 2)]
            assert goods == [_mask(good_vertices(o, k)) for k in range(cap + 2)]
        whole_a = tuple(sorted(a))
        tests = {
            analyzer._is_certified: lambda c: c.obs.certificate is not None,
            analyzer._is_nonempty: lambda c: not c.obs.complex.is_empty,
            analyzer._is_standard: lambda c: not c.obs.complex.vertices
            or c.obs.complex.vertices in c.obs.complex,
            analyzer._spans_a: lambda c: set(c.obs.complex.vertices) == a,
            analyzer._holds_a: lambda c: whole_a in c.obs.complex,
            analyzer._is_leading: lambda c: c.obs is ctx.classes[0].obs,
            analyzer._is_intersection: lambda c: c.obs.complex == ctx.complex.restrict(a),
        }
        if not a:
            del tests[analyzer._holds_a]    # asked only when A is not empty
        for test, scan in tests.items():
            want = next((i for i, c in enumerate(ctx.classes) if not scan(c)), len(ctx.classes))
            assert ctx.first(test) == want, test.__name__
            seen[test.__name__] += 0 < want < len(ctx.classes)
    assert seen["fails"] >= 100 and seen["holds"] >= 100 and seen["entry"] >= 20, seen
    assert min(seen[t] for t in ("_is_certified", "_is_standard", "_spans_a", "_is_leading")) >= 5, seen


def test_classes_partition_the_items_in_report_order():
    seen = Counter()
    contexts = [*_seeded_contexts(406, 120, shared=0.3), *_tree_contexts(407, 10)]
    for ctx in contexts + list(_torsion_contexts(408, 10)):
        position = {simplex: i for i, (simplex, _) in enumerate(ctx.items)}
        members = {}
        for simplex, c in ctx.items:
            members.setdefault((c.obs, c.dim), []).append(simplex)
        assert [(c.obs, c.dim) for c in ctx.classes] == list(members)
        for c in ctx.classes:
            assert (c.first, c.size) == (members[c.obs, c.dim][0], len(members[c.obs, c.dim]))
        firsts = [position[c.first] for c in ctx.classes]
        assert firsts == sorted(firsts) and len(set(firsts)) == len(firsts)
        for d in range(ctx.dim_cap + 1):
            through = ctx.classes_through(d)
            assert through == ctx.classes[: len(through)]
            assert through == [c for c in ctx.classes if c.dim <= d]
        assert ctx.edge_classes == [c for c in ctx.classes if c.dim == 1]
        per_item = {
            "total": len(ctx.items),
            "by_dim": dict(Counter(str(c.dim) for _, c in ctx.items)),
            "by_status": dict(Counter(c.obs.status for _, c in ctx.items)),
        }
        census = analyzer._census(ctx)
        assert census == per_item
        assert [list(census[k]) for k in ("by_dim", "by_status")] == [
            list(per_item[k]) for k in ("by_dim", "by_status")
        ]
        seen["flag" if ctx.complex.is_flag else "explicit"] += len(ctx.items) > len(ctx.classes)
        seen["mixed statuses"] += len(census["by_status"]) > 1
        seen.update(census["by_status"].keys())
    assert seen["flag"] >= 10 and seen["explicit"] >= 10 and seen["mixed statuses"] >= 10, seen
    assert min(seen[s] for s in ("empty", "cone", "collapse", "homology-only")) >= 3, seen


def _interleaved(flag):
    """Cross edges {3,5}, {3,6}, {4,5}, {4,6} in report order over the
    obstructions {0} (a point), {0,2}, {0,1} and {0,2} again: two
    disconnected classes whose edges interleave, after one that passes."""
    adjacent = {3: (0, 2), 4: (0, 1, 2), 5: (0, 1), 6: (0, 2)}
    edges = [(u, w) for u in (3, 4) for w in (5, 6)]
    edges += [(v, a) for v, common in adjacent.items() for a in common]
    k = Complex.flag(range(7), edges, dim_cap=3)
    if not flag:
        k = Complex.from_facets(k.simplices())
    return analyzer._Context(k, Cover({0, 1, 2, 3, 4}, {0, 1, 2, 5, 6}), 3)


@pytest.mark.parametrize("flag", [True, False], ids=["flag", "explicit"])
def test_witness_is_the_first_failing_cross_simplex_of_interleaved_classes(flag):
    ctx = _interleaved(flag)
    assert [simplex for simplex, _ in ctx.items] == [(3, 5), (3, 6), (4, 5), (4, 6)]
    assert [c.first for c in ctx.classes] == [(3, 5), (3, 6), (4, 5)]
    assert [c.size for c in ctx.classes] == [1, 2, 1]
    witnesses = {
        "acyclic-obstructions": "{3,6}",
        "obstruction-connectivity": "{3,6}",
        "skeleton-obstruction-connectivity": "{3,6}",
        "contractible-obstructions": "{3,6}",
        "full-intersection-obstruction": "{3,5}",
        "all-intersection-subsets-extend": "{3,5}",
    }
    if flag:
        witnesses["edge-full-intersection"] = "{3,5}+1"
        witnesses["edge-pair-extension"] = "{3,5}+{0,1}"
        witnesses["edge-standard-obstructions"] = "{3,6}"
    for criterion, witness in witnesses.items():
        verdict = verdict_of(criterion, ctx)
        assert (verdict.status, verdict.witness) == ("fails", witness), criterion
