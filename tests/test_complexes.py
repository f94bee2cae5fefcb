"""Core simplicial machinery: construction, restriction, central simplices
and cross-simplex enumeration, and the star, obstruction, skeleton, join and
intersection oracles they are checked against."""

from collections import Counter
from itertools import combinations

import pytest

from ripsdecomp import (
    Complex,
    Cover,
    CoverError,
    EnumerationRefused,
    InvalidInput,
    NotASimplex,
    cover_union,
    enumerate_p_complement,
    homology,
    make_simplex,
)
from ripsdecomp.corpus import case_by_name, space_for
from ripsdecomp.metric import MetricCover, vietoris_rips

from conftest import random_complex, random_cover, random_flag, random_metric_cover, rng_for
from oracles import intersect, join, obstruction, skeleton, star


def hollow_triangle():
    return Complex.from_facets([[1, 2], [2, 3], [1, 3]])


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

    def test_from_simplices_requires_closure(self):
        with pytest.raises(InvalidInput):
            Complex.from_simplices([(1, 2)])


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
        with pytest.raises(NotASimplex):
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
            assert k.is_central(s)

    def test_hollow_triangle_vertex_not_central(self):
        assert not hollow_triangle().is_central((1,))

    def test_matches_brute_force(self):
        rng = rng_for(104)
        for _ in range(25):
            k = random_complex(rng)
            simplices = k.simplices()
            tau = simplices[rng.randrange(len(simplices))]
            expected = all(make_simplex(s + tau) in k for s in simplices)
            assert k.is_central(tau) == expected

    def test_subsets_of_central_are_central(self):
        rng = rng_for(105)
        hits = 0
        for _ in range(80):
            k = random_complex(rng, max_vertices=6)
            for tau in k.simplices():
                if len(tau) > 1 and k.is_central(tau):
                    hits += 1
                    for size in range(1, len(tau)):
                        for sub in combinations(tau, size):
                            assert k.is_central(sub)
        assert hits > 0


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
        assert join(k, Complex.empty()) == k

    def test_two_point_joins_make_circle(self):
        s0_a = Complex.discrete([0, 1])
        s0_b = Complex.discrete([2, 3])
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
        assert joined.to_explicit(full=True) == union.to_explicit(full=True)

    def test_overlap_rejected(self):
        with pytest.raises(InvalidInput, match="disjoint"):
            join(hollow_triangle(), Complex.discrete([1]))

    def test_join_distributes_over_union_and_intersection(self):
        rng = rng_for(106)
        for _ in range(15):
            k1 = random_complex(rng, max_vertices=5)
            k2 = random_complex(rng, max_vertices=5)
            offset = max(k1.vertices + k2.vertices) + 1
            l = Complex.from_facets(
                [[v + offset for v in f] for f in [[0, 1], [1, 2]]]
            )
            left = join(k1.union(k2), l)
            right = join(k1, l).union(join(k2, l))
            assert left == right
            meet_left = intersect(k1, k2)
            if not meet_left.is_empty:
                assert join(meet_left, l) == intersect(join(k1, l), join(k2, l))


class TestFlagRepresentation:
    def test_membership_matches_explicit(self):
        rng = rng_for(107)
        for _ in range(20):
            flag = random_flag(rng, max_vertices=7, dim_cap=6)
            explicit = flag.to_explicit(full=True)
            for _ in range(30):
                size = rng.randint(1, min(7, len(flag.vertices)))
                probe = tuple(sorted(rng.sample(flag.vertices, size)))
                assert (probe in flag) == (probe in explicit)

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
            left = intersect(Complex.simplex_on(x), Complex.simplex_on(y))
            assert left == Complex.simplex_on(x & y)

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


class TestSimplexOfDim:
    def test_flag_search_agrees_with_clique_levels(self):
        rng = rng_for(112)
        for _ in range(80):
            k = random_flag(rng, max_vertices=9, edge_p=rng.choice((0.3, 0.6, 0.9)), dim_cap=4)
            top = len(k._clique_levels(k.dim_cap)) - 1
            for d in range(k.dim_cap + 1):
                assert k.has_simplex_of_dim(d) == (top >= d)

    def test_flag_search_ignores_the_cap(self):
        capped = Complex.flag(range(5), Complex.simplex_on(range(5)).edges(), dim_cap=2)
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
        shared = Counter()
        checked = Counter()
        for kind, k, cover in covered_complexes():
            items = enumerate_p_complement(k, cover, 3)
            by_key = {}
            for simplex, obs in items:
                expected = obstruction(k, simplex, cover.a)
                assert obs == expected, (simplex, k.simplices())
                assert obs.labels is k.labels
                first_simplex, first = by_key.setdefault(expected.content_key(), (simplex, obs))
                assert obs is first
                shared[kind] += simplex != first_simplex
                checked[kind] += 1
        assert shared["plain"] > 20 and shared["rips"] > 20, shared
        assert checked["rips"] > 200, checked

    def test_absorbing_intersection_gives_empty(self):
        k = Complex.from_facets([[0, 1], [1, 2]])
        cover = Cover({0, 1}, {1, 2})
        assert enumerate_p_complement(k, cover, 2) == []

    def test_cover_validation(self):
        k = hollow_triangle()
        with pytest.raises(CoverError):
            enumerate_p_complement(k, Cover({1}, {2}), 1)

    def test_cover_union_flag_matches_explicit(self):
        rng = rng_for(110)
        for _ in range(20):
            k = random_flag(rng, max_vertices=7)
            cover = random_cover(rng, k)
            fast = cover_union(k, cover)
            slow = k.restrict(cover.x).to_explicit(full=True).union(
                k.restrict(cover.y).to_explicit(full=True)
            )
            assert fast.to_explicit(full=True) == slow
