"""Core simplicial machinery: construction, restriction, central simplices,
cross-simplex enumeration and the cover-compatible edge collapse, and the
star, obstruction, skeleton, join, intersection, union, centrality and
edge-domination oracles they are checked against."""

from collections import Counter
from itertools import combinations

import pytest

from ripsdecomp import (
    Complex,
    Cover,
    CoverError,
    EnumerationRefused,
    InvalidInput,
    ContractibilityCertificate,
    analyze,
    contractibility_certificate,
    enumerate_p_complement,
    homology,
    induced_map,
    make_simplex,
)
from ripsdecomp import analyzer, complexes
from ripsdecomp.complexes import (
    SIMPLEX_BUDGET,
    _bits,
    _mask_of,
    collapse_edges,
    facet_masks,
    good_masks,
)
from ripsdecomp.corpus import space_for
from ripsdecomp.metric import MetricCover, vietoris_rips

from conftest import (
    case_by_name,
    circle_cover,
    cover_shapes,
    random_complex,
    random_cover,
    random_flag,
    random_metric_cover,
    rng_for,
)
from oracles import (
    central_vertices,
    cover_union,
    clique_levels,
    cross_cliques,
    dominated_in_every_part,
    intersect,
    is_central,
    join,
    obstruction,
    replay_edge_collapse,
    skeleton,
    star,
    union_of,
)


def hollow_triangle():
    return Complex.from_facets([[1, 2], [2, 3], [1, 3]])


def standard_simplex(vertices):
    """The full simplex on a vertex set, as a flag complex."""
    vs = sorted(vertices)
    return Complex.flag(vs, combinations(vs, 2), dim_cap=max(len(vs) - 1, 0))


class TestFromFacets:
    def test_full_simplex_closure(self):
        assert len(Complex.from_facets([[1, 2, 3]]).simplices()) == 7

    def test_hollow_triangle(self):
        k = hollow_triangle()
        assert len(k.simplices()) == 6
        assert (1, 2, 3) not in k

    def test_idempotence_on_duplicates(self):
        k = Complex.from_facets([[1], [1]])
        assert k.simplices() == [(1,)]

    def test_empty_facet_rejected(self):
        with pytest.raises(InvalidInput):
            Complex.from_facets([[]])

    def test_keeps_the_maximal_facets_as_masks(self):
        """Repeated and non-maximal input facets are dropped, so the kept
        facets are a function of the simplices; they are those a complex
        with the same simplices but no input finds on first use."""
        k = Complex.from_facets([[1, 2], [3, 2, 1], [1, 2, 3], [4], [2], [4, 5], [1, 3]])
        assert k._memo["facets"] == {0b1110, 0b110000}
        rng = rng_for(102)
        for _ in range(40):
            k = random_complex(rng, max_vertices=9, max_facets=9, max_facet_size=5)
            again = Complex.from_facets(k.simplices())
            assert again._memo["facets"] == k._memo["facets"]
            copy = k.restrict(k.vertices)
            assert "facets" not in copy._memo
            assert facet_masks(copy) == k._memo["facets"]
            assert {s for s in k.simplices() if _mask_of(s) in k._memo["facets"]} == {
                s for s in k.simplices() if not any(set(s) < set(t) for t in k.simplices())
            }


class TestRestriction:
    def test_full_simplex(self):
        k = Complex.from_facets([[1, 2, 3]])
        assert k.restrict({1, 2}) == Complex.from_facets([[1, 2]])

    def test_identity_case(self):
        k = hollow_triangle()
        assert k.restrict({1, 2, 3}) == k

    def test_matches_brute_force_filter(self):
        rng = rng_for(101)
        for _ in range(25):
            k = random_complex(rng)
            subset = set(rng.sample(k.vertices, rng.randint(0, len(k.vertices))))
            expected = {s for s in k.simplices() if subset.issuperset(s)}
            assert set(k.restrict(subset).simplices()) == expected


class TestStar:
    def test_full_simplex_star_is_whole(self):
        k = Complex.from_facets([[1, 2, 3]])
        assert star(k, (1,)) == k

    def test_hollow_triangle_star(self):
        k = hollow_triangle()
        assert set(star(k, (1,)).simplices()) == {(1,), (2,), (3,), (1, 2), (1, 3)}

    def test_matches_brute_force_on_flag(self):
        rng = rng_for(102)
        for _ in range(20):
            k = random_flag(rng)
            simplices = k.simplices()
            sigma = simplices[rng.randrange(len(simplices))]
            expected = {
                mu for mu in simplices if make_simplex(mu + sigma) in k
            }
            assert set(star(k, sigma).simplices(max_dim=k.dim_cap)) == expected

    def test_requires_membership(self):
        with pytest.raises(InvalidInput):
            star(hollow_triangle(), (1, 2, 3))


class TestObstruction:
    def test_square_example(self):
        case = case_by_name("square-4pt")
        space = space_for(case)
        k = vietoris_rips(space, 1, 3)
        sigma = (space.index("x"), space.index("y"))
        a = {space.index("a"), space.index("b")}
        obs = obstruction(k, sigma, a)
        assert set(obs.simplices()) == {(space.index("a"),), (space.index("b"),)}

    def test_full_simplex(self):
        k = Complex.from_facets([[1, 2, 3]])
        assert obstruction(k, (1,), {2, 3}) == Complex.from_facets([[2, 3]])

    def test_six_point_example(self):
        case = case_by_name("six-pt-entry")
        space = space_for(case)
        k = vietoris_rips(space, 1, 4)
        idx = space.index
        obs = obstruction(k, (idx("x"), idx("y")), {idx(f"a{i}") for i in (1, 2, 3, 4)})
        expected = Complex.from_facets(
            [[idx("a1"), idx("a3")], [idx("a3"), idx("a4")]]
        )
        assert obs == expected

    def test_contained_in_restriction_and_monotone(self):
        rng = rng_for(103)
        for _ in range(25):
            k = random_complex(rng)
            simplices = k.simplices()
            sigma = simplices[rng.randrange(len(simplices))]
            a = set(rng.sample(k.vertices, rng.randint(0, len(k.vertices))))
            obs = obstruction(k, sigma, a)
            ka = k.restrict(a)
            assert all(s in ka for s in obs.simplices())
            for tau_size in range(1, len(sigma)):
                tau = sigma[:tau_size]
                wider = obstruction(k, tau, a)
                assert all(s in wider for s in obs.simplices())


class TestCentral:
    def test_full_simplex_all_central(self):
        k = Complex.from_facets([[1, 2, 3]])
        for s in k.simplices():
            assert is_central(k, s)

    def test_hollow_triangle_vertex_not_central(self):
        assert not is_central(hollow_triangle(), (1,))

    def test_matches_brute_force(self):
        rng = rng_for(104)
        for _ in range(25):
            k = random_complex(rng)
            simplices = k.simplices()
            tau = simplices[rng.randrange(len(simplices))]
            expected = all(make_simplex(s + tau) in k for s in simplices)
            assert is_central(k, tau) == expected

    def test_subsets_of_central_are_central(self):
        rng = rng_for(105)
        hits = 0
        for _ in range(80):
            k = random_complex(rng, max_vertices=6)
            for tau in k.simplices():
                if len(tau) > 1 and is_central(k, tau):
                    hits += 1
                    for size in range(1, len(tau)):
                        for sub in combinations(tau, size):
                            assert is_central(k, sub)
        assert hits > 0


    def test_good_masks_and_the_certificate_match_the_definition(self):
        """The last good(k) mask of random flag and explicit complexes, their
        restrictions and the empty and one-vertex complexes holds exactly
        the central vertices of the definition, and a certificate is a cone
        on the lowest of them exactly when there is one."""
        rng = rng_for(106)
        complexes_ = [
            Complex.from_facets([]),
            Complex.flag([], [], 2),
            Complex.from_facets([[5]]),
            Complex.flag([3], [], 0),
        ]
        for i in range(120):
            if i % 2:
                k = random_flag(rng, max_vertices=7, edge_p=rng.choice((0.5, 0.8, 1.0)))
            else:
                k = random_complex(rng, max_vertices=7, max_facets=4, max_facet_size=5)
            complexes_ += [k, k.restrict(v for v in k.vertices if rng.random() < 0.6)]
        seen = Counter()
        for k in complexes_:
            central = central_vertices(k)
            goods = good_masks(k)
            assert goods[0] == sum(1 << v for v in k.vertices)
            assert _bits(goods[-1]) == central, k
            seen[("flag" if k.is_flag else "explicit", bool(central), len(k.vertices) > 1)] += 1
            if k.is_empty:
                continue
            cert = contractibility_certificate(k)
            is_cone = cert is not None and cert.kind == ContractibilityCertificate.CENTRAL
            assert is_cone == bool(central)
            if is_cone:
                assert cert.central == (central[0],)
        assert len(seen) == 8, seen
        assert min(n for (_, _, several), n in seen.items() if several) >= 10, seen

    def test_good_masks_are_computed_once_per_complex(self, monkeypatch):
        """A second call returns the first call's tuple, for a complex and
        for each vertex mask of a flag one, so an analysis computes the
        masks once per obstruction record, on the whole complex's graph: the
        certificate search reads the tuple the record made."""
        rng = rng_for(107)
        for k in (
            random_flag(rng, max_vertices=7, edge_p=0.8),
            random_complex(rng, max_vertices=7),
            Complex.from_facets([]),
            Complex.flag([], [], 2),
        ):
            first = good_masks(k)
            assert good_masks(k) is first
            if k.is_flag:
                mask = sum(1 << v for v in k.vertices[::2])
                first = good_masks(k, mask)
                assert good_masks(k, mask) is first
                assert first == good_masks(k.subcomplex(mask))
        computed = []
        real = complexes._good_masks
        monkeypatch.setattr(
            complexes, "_good_masks", lambda k, mask: computed.append((k, mask)) or real(k, mask)
        )
        mc = circle_cover(42)
        total = vietoris_rips(mc.space, mc.r, 3)
        ctx = analyzer._Context(total, Cover(mc.x, mc.y), 3)
        records = list(ctx._records.values())
        assert len(records) == 70
        assert all(k is total for k, _ in computed)
        assert sorted(mask for _, mask in computed) == sorted(obs.mask for obs in records)
        assert all(good_masks(total, obs.mask) is obs.goods for obs in records)


class TestSkeleton:
    def test_zero_skeleton_is_discrete(self):
        k = Complex.from_facets([[1, 2, 3]])
        assert set(skeleton(k, 0).simplices()) == {(1,), (2,), (3,)}

    def test_one_skeleton_of_full_triangle(self):
        assert skeleton(Complex.from_facets([[1, 2, 3]]), 1) == hollow_triangle()

    def test_nine_point_two_skeleton_homology(self):
        case = case_by_name("nine-pt-circle")
        k = vietoris_rips(space_for(case), 3, 4)
        sk = skeleton(k, 2)
        full = homology(k, "q", max_deg=2)
        part = homology(sk, "q", max_deg=2)
        assert part.betti_vector(0, 1) == full.betti_vector(0, 1)
        assert part.betti.get(2, 0) >= full.betti.get(2, 0)

    def test_negative_degree_rejected(self):
        with pytest.raises(InvalidInput):
            skeleton(hollow_triangle(), -1)


class TestJoin:
    def test_join_with_empty_is_identity(self):
        k = hollow_triangle()
        assert join(k, Complex.from_facets([])) == k

    def test_two_point_joins_make_circle(self):
        s0_a = Complex.flag([0, 1], (), dim_cap=0)
        s0_b = Complex.flag([2, 3], (), dim_cap=0)
        circle = join(s0_a, s0_b)
        assert homology(circle, "z", max_deg=1).betti_vector(0, 1) == (0, 1)

    def test_nine_point_split_join_is_two_sphere(self):
        case = case_by_name("nine-pt-circle")
        space = space_for(case)
        k = vietoris_rips(space, 3, 4)
        idx = space.index
        left = k.restrict({idx("z1"), idx("z5")})
        right = k.restrict({idx("z2"), idx("z4"), idx("z7"), idx("z8")})
        joined = join(left, right)
        profile = homology(joined, "z", max_deg=2, reduced=False)
        assert profile.betti_vector(0, 2) == (1, 0, 1)
        # the join equals the restriction of the whole complex to the union
        union = k.restrict(
            {idx(z) for z in ("z1", "z5", "z2", "z4", "z7", "z8")}
        )
        assert joined.to_explicit() == union.to_explicit()

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInput, match="disjoint"):
            join(hollow_triangle(), Complex.flag([1], (), dim_cap=0))

    def test_join_distributes_over_union_and_intersection(self):
        rng = rng_for(106)
        for _ in range(15):
            k1 = random_complex(rng, max_vertices=5)
            k2 = random_complex(rng, max_vertices=5)
            offset = max(k1.vertices + k2.vertices) + 1
            l = Complex.from_facets(
                [[v + offset for v in f] for f in [[0, 1], [1, 2]]]
            )
            left = join(union_of(k1, k2), l)
            right = union_of(join(k1, l), join(k2, l))
            assert left == right
            meet_left = intersect(k1, k2)
            if not meet_left.is_empty:
                assert join(meet_left, l) == intersect(join(k1, l), join(k2, l))


class TestFlagRepresentation:
    def test_membership_matches_explicit(self):
        rng = rng_for(107)
        for _ in range(20):
            flag = random_flag(rng, max_vertices=7, dim_cap=6)
            explicit = flag.to_explicit()
            for _ in range(30):
                size = rng.randint(1, min(7, len(flag.vertices)))
                probe = tuple(sorted(rng.sample(flag.vertices, size)))
                assert (probe in flag) == (probe in explicit)

    @pytest.mark.parametrize("bad", [-1, "a", 1.0, True, None])
    def test_refuses_a_vertex_id_that_is_not_a_nonnegative_int(self, bad):
        """Flag vertex ids are bit positions."""
        with pytest.raises(InvalidInput, match="nonnegative int"):
            Complex.flag([bad, 0, 1], [(0, 1)], 2)
        if bad == -1:
            with pytest.raises(InvalidInput, match="nonnegative int"):
                Complex.flag([-1, 0, 1], [(-1, 0), (0, 1)], 2)

    @pytest.mark.parametrize(
        "edges, dim_cap, message",
        [
            ([(0, 1)], -1, "dim_cap must be nonnegative"),
            ([(0, 1, 2)], 2, r"not an edge: \(0, 1, 2\)"),
            ([(1, 1)], 2, r"not an edge: \(1, 1\)"),
            ([(0, 3)], 2, r"edge \(0, 3\) uses unknown vertices"),
        ],
    )
    def test_refuses_a_negative_cap_a_non_edge_and_an_unknown_vertex(self, edges, dim_cap, message):
        with pytest.raises(InvalidInput, match=message):
            Complex.flag([0, 1, 2], edges, dim_cap)

    def test_enumeration_cap_refused(self):
        flag = Complex.flag(range(5), combinations(range(5), 2), dim_cap=2)
        with pytest.raises(EnumerationRefused):
            flag.simplices(max_dim=3)
        assert len(flag.simplices(max_dim=2)) == 5 + 10 + 10

    def test_standard_simplex_intersection(self):
        rng = rng_for(108)
        for _ in range(20):
            x = set(rng.sample(range(10), rng.randint(1, 6)))
            y = set(rng.sample(range(10), rng.randint(1, 6)))
            left = intersect(standard_simplex(x), standard_simplex(y))
            assert left == standard_simplex(x & y)

    def test_downward_closure_preserved_by_operations(self):
        rng = rng_for(109)
        for _ in range(15):
            k = random_complex(rng, max_vertices=6)
            ops = [
                k.restrict(set(rng.sample(k.vertices, len(k.vertices) // 2))),
                skeleton(k, 1),
                star(k, k.simplices()[rng.randrange(len(k.simplices()))]),
            ]
            for result in ops:
                simplices = set(result.simplices())
                for s in simplices:
                    for size in range(1, len(s)):
                        for face in combinations(s, size):
                            assert face in simplices


def clique_graphs(rng):
    """Flag complexes on scattered vertex ids at several densities, plus an
    edgeless graph, a single vertex and the empty graph."""
    for _ in range(60):
        vertices = sorted(rng.sample(range(40), rng.randint(2, 10)))
        p = rng.choice((0.2, 0.5, 0.8, 1.0))
        edges = [e for e in combinations(vertices, 2) if rng.random() < p]
        yield vertices, edges
    yield [3, 8, 11, 30], []
    yield [5], []
    yield [], []


class TestCliqueEnumeration:
    def test_levels_simplices_and_n_simplices_match_brute_force_in_order(self):
        """At caps 0 to 4 and above the clique number, and uncapped through
        ``to_explicit()``, the walk lists exactly the pairwise
        adjacent vertex subsets, in (dimension, lexicographic) order."""
        rng = rng_for(131)
        seen = Counter()
        for vertices, edges in clique_graphs(rng):
            whole = clique_levels(vertices, set(edges), max(len(vertices) - 1, 0))
            clique_number = len(whole)
            for cap in sorted({0, 1, 2, 3, 4, clique_number, clique_number + 2}):
                k = Complex.flag(vertices, edges, dim_cap=cap)
                want = clique_levels(vertices, set(edges), cap)
                assert k._clique_levels(cap) == want
                assert k.simplices() == [s for level in want for s in level]
                for n in range(-1, cap + 1):
                    assert k.n_simplices(n) == (want[n] if 0 <= n < len(want) else [])
                assert k.dim() == len(want) - 1
                assert k._clique_levels(None) == whole
                full = k.to_explicit()
                assert not full.is_flag
                assert full.simplices() == [s for level in whole for s in level]
                seen["capped" if cap < clique_number - 1 else "above"] += 1
            seen[f"clique-number-{min(clique_number, 5)}"] += 1
        assert seen["capped"] > 50 and seen["above"] > 50, seen
        assert all(seen[f"clique-number-{n}"] for n in range(6)), seen


class TestBitmaskWalk:
    def test_sparse_ids_past_bit_64_match_the_clique_oracle(self):
        """Graphs on ids drawn from range(300), caps 0 to 4 and random
        covers: the walk's levels, the existence search, the central
        vertices, restriction, the cover union and the cross cliques with
        their obstructions all equal the brute-force oracle built from the
        graph alone, in order, and equal obstructions are one object."""
        rng = rng_for(141)
        seen = Counter()
        for _ in range(150):
            vertices = sorted(rng.sample(range(300), rng.randint(1, 11)))
            p = rng.choice((0.3, 0.6, 0.9, 1.0))
            edges = {e for e in combinations(vertices, 2) if rng.random() < p}
            cap = rng.randint(0, 4)
            k = Complex.flag(vertices, edges, cap)
            whole = clique_levels(vertices, edges, len(vertices))
            assert k._clique_levels(cap) == clique_levels(vertices, edges, cap)
            assert k._clique_levels(None) == whole
            for d in range(len(vertices) + 1):
                assert k.has_simplex_of_dim(d) == (d < len(whole)), d
            central = [
                v
                for v in vertices
                if all(tuple(sorted((u, v))) in edges for u in vertices if u != v)
            ]
            assert _bits(good_masks(k)[-1]) == central
            cover = random_cover(rng, k)
            x, y = set(cover.x), set(cover.y)
            for side in (x, y, x & y):
                part = k.restrict(side)
                assert part.vertices == tuple(v for v in vertices if v in side)
                assert part._clique_levels(cap) == clique_levels(side, edges, cap)
            inside = {e for e in edges if x.issuperset(e) or y.issuperset(e)}
            union = cover_union(k, cover)
            assert union._clique_levels(cap) == clique_levels(x | y, inside, cap)
            for dim_cap in range(1, cap + 1):
                items = enumerate_p_complement(k, cover, dim_cap)
                want = cross_cliques(vertices, edges, x, y, dim_cap)
                assert [s for s, _ in items] == [s for s, _ in want]
                keys = {}
                for (_, c), (_, common) in zip(items, want):
                    obs = k.subcomplex(c.obs)
                    assert obs.vertices == common
                    assert obs._clique_levels(cap) == clique_levels(common, edges, cap)
                    assert keys.setdefault(common, c.obs) == c.obs
                assert len({c.obs for _, c in items}) == len(keys)
                seen["shared"] += len(items) > len(keys)
            seen["past-64"] += vertices[-1] >= 64 and vertices[0] < 64
            seen[f"cap-{cap}"] += 1
            seen["central"] += bool(central) and len(vertices) > 1
        assert min(seen.values()) >= 10 and len(seen) == 8, seen


class TestEdgeCollapse:
    def test_each_removed_edge_is_dominated_at_its_turn_in_every_part(self):
        """Graphs on ids drawn from range(300) under random covers, an empty
        A, and X or Y holding every vertex: replayed in order on the
        set-based oracle, each removed edge is dominated in every part of
        the cover square that holds it at its turn; the edges left are the
        collapsed complex's, and none of them is dominated in every part."""
        rng = rng_for(161)
        seen = Counter()
        for i in range(160):
            vertices = sorted(rng.sample(range(300), rng.randint(2, 12)))
            p = rng.choice((0.4, 0.7, 0.9, 1.0))
            edges = {e for e in combinations(vertices, 2) if rng.random() < p}
            k = Complex.flag(vertices, edges, rng.randint(1, 4))
            cover = cover_shapes(rng, k)[i % 4]
            x, y = set(cover.x), set(cover.y)
            collapsed, removed = collapse_edges(k, cover)
            left = replay_edge_collapse(edges, x, y, removed)
            assert set(collapsed.edges()) == left
            assert (collapsed.vertices, collapsed.dim_cap) == (k.vertices, k.dim_cap)
            assert not any(dominated_in_every_part(left, x, y, e) for e in left)
            seen["removed"] += bool(removed)
            seen["past-64"] += vertices[-1] >= 64 and vertices[0] < 64
            # a later pass removed an edge that comes before one removed earlier
            seen["several-passes"] += any(a > b for a, b in zip(removed, removed[1:]))
        assert seen["removed"] > 100 and seen["past-64"] > 50, seen
        assert seen["several-passes"] >= 5, seen

    def test_an_edge_dominated_in_the_total_but_not_in_x_is_kept(self):
        """The triangle 0, 1, 2 with X = {0, 1} and Y = {1, 2}: in the total 2
        dominates 01, but X's graph is the edge 01 alone, so it stays, as 12
        does in Y.  The total alone holds the cross edge 02, and 1 dominates
        it there."""
        edges = [(0, 1), (0, 2), (1, 2)]
        k = Complex.flag(range(3), edges, 2)
        x, y = {0, 1}, {1, 2}
        assert not dominated_in_every_part(set(edges), x, y, (0, 1))
        collapsed, removed = collapse_edges(k, Cover(x, y))
        assert removed == [(0, 2)]
        assert collapsed.edges() == [(0, 1), (1, 2)]
        # when one side holds every vertex, 2 dominates 01 in every part
        assert collapse_edges(k, Cover(range(3), y))[1][0] == (0, 1)

    def test_a_spent_budget_returns_an_exact_prefix(self, monkeypatch):
        """Budgets of 0 to 60 candidates: the collapse stops at a
        prefix of the unbounded one, and the cover square it leaves has the
        homology over q and z of every part, and the maps union -> total,
        of the square of the graph itself, through degree cap - 1."""
        rng = rng_for(162)
        stopped = 0
        for i in range(120):
            k = random_flag(rng, max_vertices=9, edge_p=rng.choice((0.5, 0.7, 0.9)), dim_cap=3)
            cover = cover_shapes(rng, k)[i % 4]
            removed = collapse_edges(k, cover)[1]
            monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", rng.randint(0, 60))
            partial, prefix = collapse_edges(k, cover)
            monkeypatch.undo()
            assert prefix == removed[: len(prefix)]
            assert square_invariants(partial, cover) == square_invariants(k, cover)
            stopped += 0 < len(prefix) < len(removed)
        assert stopped > 20, stopped


def square_invariants(total, cover):
    """The reduced homology over q and z of X, Y, A, the cover union and the
    total of a flag complex through degree cap - 1, and the rank and
    dimensions of union -> total over q there."""
    top = total.dim_cap - 1
    union = cover_union(total, cover)
    parts = [total.restrict(s) for s in (cover.x, cover.y, cover.a)] + [union, total]
    profiles = [homology(p, c, max_deg=top).to_dict() for p in parts for c in ("q", "z")]
    maps = [induced_map(union, total, d, "q") for d in range(top + 1)]
    return profiles, [(m.rank, m.dim_source, m.dim_target) for m in maps]


class TestSimplexBudget:
    def test_a_dense_walk_is_refused_before_it_is_built(self):
        """K_200 at cap 4: its 1,313,400 triangles already pass the budget,
        so the walk stops after the edges."""
        k = Complex.flag(range(200), combinations(range(200), 2), dim_cap=4)
        assert k.has_simplex_of_dim(4)
        with pytest.raises(EnumerationRefused, match=f"dimension 2 .* {SIMPLEX_BUDGET} "):
            k.simplices()
        with pytest.raises(EnumerationRefused):
            enumerate_p_complement(k, Cover(range(100), range(100, 200)), 4)
        assert len(k.simplices(max_dim=1)) == 200 + 19900

    def test_the_budget_counts_every_clique_of_the_walk(self, monkeypatch):
        """K_6 has 63 cliques: a budget of 63 walks them all, 62 refuses."""
        k = Complex.flag(range(6), combinations(range(6), 2), dim_cap=5)
        monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 63)
        assert len(k.simplices()) == 63
        monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 62)
        with pytest.raises(EnumerationRefused):
            k.simplices()
        assert len(k.simplices(max_dim=4)) == 62


class TestSimplexOfDim:
    def test_flag_search_agrees_with_clique_levels(self):
        rng = rng_for(112)
        for _ in range(80):
            k = random_flag(rng, max_vertices=9, edge_p=rng.choice((0.3, 0.6, 0.9)), dim_cap=4)
            top = len(k._clique_levels(k.dim_cap)) - 1
            for d in range(k.dim_cap + 1):
                assert k.has_simplex_of_dim(d) == (top >= d)

    def test_flag_search_ignores_the_cap(self):
        capped = Complex.flag(range(5), combinations(range(5), 2), dim_cap=2)
        assert capped.has_simplex_of_dim(4) and not capped.has_simplex_of_dim(5)

    def test_explicit(self):
        k = Complex.from_facets([[1, 2, 3], [3, 4]])
        assert [k.has_simplex_of_dim(d) for d in range(4)] == [True, True, True, False]


def covered_complexes():
    """Explicit and flag complexes with random covers, then the Vietoris-Rips
    complexes of random metric covers."""
    rng = rng_for(111)
    for i in range(60):
        k = random_flag(rng, max_vertices=9, dim_cap=3) if i % 2 else random_complex(rng)
        yield "plain", k, random_cover(rng, k)
    rng = rng_for(113)
    for _ in range(60):
        mc = random_metric_cover(rng, max_points=9)
        yield "rips", vietoris_rips(mc.space, mc.r, 3), Cover(mc.x, mc.y)


class TestPComplement:
    def test_square_single_edge(self):
        case = case_by_name("square-4pt")
        space = space_for(case)
        k = vietoris_rips(space, 1, 1)
        cover = Cover(
            {space.index(p) for p in case.x}, {space.index(p) for p in case.y}
        )
        items = enumerate_p_complement(k, cover, 1)
        assert [simplex for simplex, _ in items] == [(space.index("x"), space.index("y"))]

    def test_seven_point_two_edges(self):
        case = case_by_name("seven-pt-independence")
        space = space_for(case)
        k = vietoris_rips(space, 1, 4)
        cover = Cover(
            {space.index(p) for p in case.x}, {space.index(p) for p in case.y}
        )
        items = enumerate_p_complement(k, cover, 1)
        labels = [tuple(space.labels[v] for v in simplex) for simplex, _ in items]
        assert labels == [("x1", "y"), ("x2", "y")]

    def test_obstructions_match_the_definition_and_are_shared(self):
        """Each class holds the content key of its simplex's obstruction, the
        complex built from it is the obstruction, and equal obstructions
        have one key, distinct ones distinct keys."""
        shared = Counter()
        checked = Counter()
        for kind, k, cover in covered_complexes():
            items = enumerate_p_complement(k, cover, 3)
            by_key = {}
            for simplex, c in items:
                obs = k.subcomplex(c.obs)
                expected = obstruction(k, simplex, cover.a)
                assert obs == expected, (simplex, k.simplices())
                assert obs.labels is k.labels
                assert c.obs == expected.content_key() == obs.content_key()
                first_simplex, first = by_key.setdefault(expected.content_key(), (simplex, c.obs))
                assert c.obs == first
                shared[kind] += simplex != first_simplex
                checked[kind] += 1
            assert len({c.obs for _, c in items}) == len(by_key)
        assert shared["plain"] > 20 and shared["rips"] > 20, shared
        assert checked["rips"] > 200, checked

    @pytest.mark.parametrize("side", ["mixed", "all", "none"])
    def test_flag_cap_above_its_own_is_refused(self, side):
        k = Complex.flag(range(6), [(0, 1), (0, 3), (1, 4), (3, 4), (2, 5)], dim_cap=2)
        vs = set(k.vertices)
        cover = {
            "mixed": Cover({0, 1, 2}, {2, 3, 4, 5}),
            "all": Cover(vs, vs),
            "none": Cover({0, 1, 2}, {3, 4, 5}),
        }[side]
        with pytest.raises(EnumerationRefused):
            enumerate_p_complement(k, cover, k.dim_cap + 1)
        with pytest.raises(EnumerationRefused):
            analyze(k, cover, dim_cap=k.dim_cap + 1, verify=False)
        enumerate_p_complement(k, cover, k.dim_cap)

    @pytest.mark.parametrize("dim_cap", [1, 2, 3, 4])
    def test_flag_enumeration_matches_the_oracle_in_order(self, dim_cap):
        """Every cross clique up to the cap in (dimension, lexicographic)
        order, each with its obstruction, under random covers, an empty
        intersection and an intersection that is every vertex."""
        rng = rng_for(120 + dim_cap)
        seen = Counter()
        for _ in range(40):
            k = random_flag(rng, max_vertices=9, edge_p=rng.choice((0.5, 0.8)), dim_cap=4)
            vs = set(k.vertices)
            half = set(rng.sample(sorted(vs), len(vs) // 2))
            covers = {"random": random_cover(rng, k), "all": Cover(vs, vs)}
            covers["none"] = Cover(half, vs - half)
            for kind, cover in covers.items():
                items = enumerate_p_complement(k, cover, dim_cap)
                expected = [
                    s
                    for s in k.simplices(max_dim=dim_cap)
                    if not set(s) & cover.a and set(s) - cover.x and set(s) - cover.y
                ]
                assert [s for s, _ in items] == expected
                for s, c in items:
                    obs = k.subcomplex(c.obs)
                    assert obs == obstruction(k, s, cover.a), (kind, s)
                    assert obs.is_empty or kind == "random"
                seen[kind] += len(items)
                seen[f"{kind}-top"] += any(len(s) == dim_cap + 1 for s, _ in items)
        assert seen["all"] == 0
        assert seen["random"] > 30 and seen["none"] > 30, seen
        assert seen["random-top"] and seen["none-top"], seen

    def test_absorbing_intersection_gives_empty(self):
        k = Complex.from_facets([[0, 1], [1, 2]])
        cover = Cover({0, 1}, {1, 2})
        assert enumerate_p_complement(k, cover, 2) == []

    def test_cover_validation(self):
        k = hollow_triangle()
        with pytest.raises(CoverError, match="must use every vertex"):
            enumerate_p_complement(k, Cover({1}, {2}), 1)
        with pytest.raises(CoverError, match="uses vertices the complex does not have"):
            Cover({0, 1, 2}, {2, 7}).validate(k)

    def test_cover_union_lists_each_vertex_once(self):
        """The reference union of an explicit complex's restrictions
        (``oracles.cover_union``) holds each vertex once, so a cover of every
        facet gives the complex back, and its good(0) mask is its five
        vertices; it is the union of the two restrictions."""
        k = Complex.from_facets([[0, 1, 2], [2, 3], [3, 4]])
        union = cover_union(k, Cover({0, 1, 2, 3}, {2, 3, 4}))
        assert union.vertices == (0, 1, 2, 3, 4)
        assert union == k
        assert good_masks(union)[0] == 0b11111
        rng = rng_for(112)
        for _ in range(30):
            k = random_complex(rng)
            cover = random_cover(rng, k)
            union = cover_union(k, cover)
            assert union == union_of(k.restrict(cover.x), k.restrict(cover.y))
            assert union.vertices == tuple(sorted(cover.x | cover.y))

    def test_explicit_enumeration_matches_a_brute_force_star_oracle(self):
        """Every cross simplex up to the cap in (dimension, lexicographic)
        order, each keyed by its star in K[A], the simplices tau of K[A] with
        sigma + tau in K, and the classes in the order of their first
        simplices, under covers with no, one and several vertices in A."""
        rng = rng_for(114)
        seen = Counter()
        for i in range(90):
            k = random_complex(rng, max_vertices=10, max_facets=8, max_facet_size=5)
            vertices = list(k.vertices)
            if len(vertices) < 3:
                continue
            some = set(rng.sample(vertices, rng.randint(1, len(vertices) - 1)))
            hinge = rng.choice(vertices)
            cover = [
                Cover(some, set(vertices) - some),
                Cover(some | {hinge}, set(vertices) - some | {hinge}),
                random_cover(rng, k),
            ][i % 3]
            a, dim_cap = cover.a, rng.randint(1, 4)
            ka = [t for t in k.simplices() if a.issuperset(t)]
            want = [
                (s, frozenset(t for t in ka if make_simplex(s + t) in k))
                for s in k.simplices(max_dim=dim_cap)
                if not set(s) & a and set(s) - cover.x and set(s) - cover.y
            ]
            items = enumerate_p_complement(k, cover, dim_cap)
            assert [(s, c.obs) for s, c in items] == want
            firsts = {}
            for s, key in want:
                firsts.setdefault((len(s), key), s)
            assert [(c.first, c.obs) for c in items.classes] == [
                (s, key) for (_, key), s in firsts.items()
            ]
            assert [c.size for c in items.classes] == [
                sum(len(s) == len(c.first) and key == c.obs for s, key in want)
                for c in items.classes
            ]
            seen[min(len(a), 2)] += len(want)
            seen["nonempty"] += sum(bool(key) for _, key in want)
        assert min(seen[n] for n in range(3)) > 40 and seen["nonempty"] > 100, seen

    def test_cover_union_flag_matches_explicit(self):
        """The reference union of a flag complex, a flag complex on the edges
        inside X or inside Y, has the cliques of the union of the two
        restrictions."""
        rng = rng_for(110)
        for _ in range(20):
            k = random_flag(rng, max_vertices=7)
            cover = random_cover(rng, k)
            fast = cover_union(k, cover)
            slow = union_of(k.restrict(cover.x), k.restrict(cover.y))
            assert fast.to_explicit() == slow
