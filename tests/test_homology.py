"""Boundary matrices, Smith normal form, homology profiles, the relative
homology oracle, induced maps, and contractibility certificates."""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from ripsdecomp import (
    Complex,
    ContractibilityCertificate,
    Cover,
    EmptyComplex,
    EnumerationRefused,
    InvalidInput,
    NotASubcomplex,
    analyze,
    boundary_matrix,
    contractibility_certificate,
    homology,
    induced_map,
    vietoris_rips,
)
from ripsdecomp import complexes
from ripsdecomp.linalg import smith_invariants
from ripsdecomp.complexes import enumerate_p_complement, strong_collapse
from ripsdecomp.corpus import space_for
from ripsdecomp.homology import _count_cliques, cover_square, is_subcomplex, relative_profile

from conftest import (
    PROJECTIVE_PLANE,
    boundary_oracle,
    case_by_name,
    greedy_collapse_oracle,
    random_complex,
    random_cover,
    random_flag,
    rank_oracle,
    rng_for,
)
from oracles import (
    central_vertices,
    clique_levels,
    is_central,
    obstruction,
    relative_homology,
    replay_dominations,
    skeleton,
    star,
    union_of,
)

#: A collapsible complex in which no vertex is dominated.
ELEVEN_TRIANGLES = [
    (0, 2, 4), (0, 2, 6), (0, 3, 6), (1, 3, 4), (1, 4, 5), (1, 5, 6),
    (2, 4, 5), (2, 4, 6), (2, 5, 6), (3, 4, 6), (3, 5, 6),
]


def flag_graphs_and_obstructions(rng, count):
    """Random flag graphs and random trees, alternately, each followed by
    the obstructions of a random cover of it, as (graph, vertex mask)
    pairs."""
    out = []
    for i in range(count):
        if i % 2:
            k = random_flag(rng, max_vertices=10, edge_p=rng.choice((0.3, 0.5, 0.7)))
        else:
            m = rng.randint(3, 10)
            k = Complex.flag(range(m), [(rng.randrange(j), j) for j in range(1, m)], 4)
        out.append((k, k._mask))
        items = enumerate_p_complement(k, random_cover(rng, k), 1)
        out += [(k, c.obs) for c in items.classes if c.obs]
    return out


def simplex_tree(rng, count):
    """``count`` simplices, each glued to one before it along a face and
    given one or two new vertices: collapsible, and strongly collapsible,
    as the last simplex's new vertices lie in no other."""
    facets = [tuple(range(rng.randint(2, 4)))]
    for _ in range(count - 1):
        face = rng.sample(rng.choice(facets), rng.randint(1, 2))
        top = max(map(max, facets))
        facets.append(tuple(face) + tuple(range(top + 1, top + rng.randint(2, 3))))
    return Complex.from_facets(facets)


def status_of(cert):
    """The obstruction status a certificate gives."""
    if cert is None:
        return "homology-only"
    return "cone" if cert.kind == ContractibilityCertificate.CENTRAL else "collapse"


def hollow_triangle():
    return Complex.from_facets([[1, 2], [2, 3], [1, 3]])


def sphere_boundary(n_vertices):
    """Boundary of the full simplex: a (n_vertices - 2)-sphere."""
    verts = list(range(n_vertices))
    return Complex.from_facets(combinations(verts, n_vertices - 1))


class TestBoundary:
    def test_hollow_triangle_shape(self):
        b = boundary_matrix(hollow_triangle(), 1)
        assert len(b.rows) == 3 and len(b.cols) == 3
        for j in range(3):
            col = [b.entries[i][j] for i in range(3)]
            assert sorted(abs(v) for v in col) == [0, 1, 1]

    def test_boundary_squares_to_zero(self):
        k = Complex.from_facets([[1, 2, 3]])
        b1 = boundary_matrix(k, 1)
        b2 = boundary_matrix(k, 2)
        for i in range(len(b1.rows)):
            for j in range(len(b2.cols)):
                v = sum(b1.entries[i][t] * b2.entries[t][j] for t in range(len(b2.rows)))
                assert v == 0

    def test_boundary_squares_to_zero_random(self):
        rng = rng_for(301)
        for _ in range(15):
            k = random_complex(rng)
            top = k.dim()
            for n in range(2, top + 1):
                lower = boundary_matrix(k, n - 1)
                upper = boundary_matrix(k, n)
                for i in range(len(lower.rows)):
                    for j in range(len(upper.cols)):
                        v = sum(
                            lower.entries[i][t] * upper.entries[t][j]
                            for t in range(len(upper.rows))
                        )
                        assert v == 0

    def test_column_entry_count(self):
        rng = rng_for(302)
        for _ in range(10):
            k = random_complex(rng)
            for n in range(1, k.dim() + 1):
                b = boundary_matrix(k, n)
                for j in range(len(b.cols)):
                    total = sum(abs(b.entries[i][j]) for i in range(len(b.rows)))
                    assert total == n + 1

    def test_entries_match_the_dense_oracle(self):
        """The entries are what the benchmark's traced run counts as
        ``verify.boundary_nnz``."""
        rng = rng_for(304)
        nonzero = 0
        for i in range(40):
            k = random_flag(rng, max_vertices=8, dim_cap=3) if i % 2 else random_complex(rng)
            for n in range(1, k.dim() + 1):
                b = boundary_matrix(k, n)
                assert (b.rows, b.cols) == (k.n_simplices(n - 1), k.n_simplices(n))
                assert b.entries == boundary_oracle(b.rows, b.cols)
                nonzero += sum(1 for row in b.entries for v in row if v)
        assert nonzero > 500

    def test_degree_below_one_refused(self):
        with pytest.raises(InvalidInput, match="boundary degree must be at least 1"):
            boundary_matrix(hollow_triangle(), 0)

    def test_cap_refusal(self):
        flag = Complex.flag(range(4), combinations(range(4), 2), dim_cap=1)
        with pytest.raises(EnumerationRefused):
            boundary_matrix(flag, 2)


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_invariants([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]

    def test_already_diagonal(self):
        assert smith_invariants([[2, 0], [0, 4]]) == [2, 4]

    def test_divisibility_fix(self):
        assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]

    def test_textbook_matrix(self):
        m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
        assert smith_invariants(m) == [2, 6, 12]

    def test_rank_matches_rational_elimination_oracle(self):
        rng = rng_for(303)
        for trial in range(220):
            nr = rng.randint(1, 12)
            nc = rng.randint(1, 12)
            mat = [
                [rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(nc)]
                for _ in range(nr)
            ]
            invs = smith_invariants(mat)
            assert all(b % a == 0 for a, b in zip(invs, invs[1:]))
            assert len(invs) == rank_oracle(mat), f"trial {trial}: {mat}"


class TestHomology:
    def test_sphere_boundary_profiles(self):
        s3 = sphere_boundary(5)
        assert homology(s3, "z", max_deg=3).betti_vector(0, 3) == (0, 0, 0, 1)
        s2 = sphere_boundary(4)
        assert homology(s2, "q", max_deg=2).betti_vector(0, 2) == (0, 0, 1)

    def test_nine_point_wedge(self):
        k = vietoris_rips(space_for(case_by_name("nine-pt-circle")), 3, 4)
        profile = homology(k, "z", max_deg=4)
        assert profile.betti_vector(0, 4) == (0, 0, 2, 0, 0)
        assert not profile.torsion

    def test_projective_plane_torsion(self):
        rp2 = Complex.from_facets(PROJECTIVE_PLANE)
        integral = homology(rp2, "z", max_deg=2)
        assert integral.betti_vector(0, 2) == (0, 0, 0)
        assert integral.torsion_at(1) == (2,)
        assert homology(rp2, "zp:2", max_deg=2).betti_vector(0, 2) == (0, 1, 1)
        assert homology(rp2, "q", max_deg=2).betti_vector(0, 2) == (0, 0, 0)

    def test_empty_complex_convention(self):
        profile = homology(Complex.from_facets([]), "z", max_deg=1)
        assert profile.betti.get(-1) == 1
        assert profile.betti_vector(0, 1) == (0, 0)

    def test_reduced_vs_unreduced(self):
        rng = rng_for(305)
        for _ in range(15):
            k = random_complex(rng)
            reduced = homology(k, "z", max_deg=2)
            unreduced = homology(k, "z", max_deg=2, reduced=False)
            assert unreduced.betti[0] == reduced.betti[0] + 1
            for d in (1, 2):
                assert unreduced.betti[d] == reduced.betti[d]
                assert unreduced.torsion_at(d) == reduced.torsion_at(d)

    def test_universal_coefficients(self):
        rng = rng_for(306)
        for _ in range(25):
            k = random_complex(rng, max_vertices=8)
            top = k.dim()
            integral = homology(k, "z", max_deg=top)
            rational = homology(k, "q", max_deg=top)
            for p in (2, 3):
                modular = homology(k, f"zp:{p}", max_deg=top)
                for d in range(0, top + 1):
                    t_here = sum(1 for q in integral.torsion_at(d) if q % p == 0)
                    t_below = sum(
                        1 for q in integral.torsion_at(d - 1) if q % p == 0
                    )
                    assert (
                        modular.betti[d]
                        == rational.betti[d] + t_here + t_below
                    ), f"UCT fails at degree {d} mod {p}"
                    assert rational.betti[d] == integral.betti[d]


class TestRelativeHomologyOracle:
    def test_pair_with_itself_vanishes(self):
        k = Complex.from_facets([[1, 2, 3], [3, 4]])
        profile = relative_homology(k, k, "z", max_deg=3)
        assert all(v == 0 for v in profile.betti.values())

    def test_interval_relative_to_endpoints(self):
        k = Complex.from_facets([[1, 2]])
        ends = Complex.from_facets([[1], [2]])
        profile = relative_homology(k, ends, "z", max_deg=1)
        assert profile.betti_vector(0, 1) == (0, 1)

    def test_empty_subcomplex_gives_unreduced(self):
        k = hollow_triangle()
        profile = relative_homology(k, Complex.from_facets([]), "z", max_deg=1)
        unreduced = homology(k, "z", max_deg=1, reduced=False)
        assert profile.betti_vector(0, 1) == unreduced.betti_vector(0, 1)

    def test_relative_profile_matches_the_oracle_on_fresh_pairs(self):
        """``relative_profile`` reduces a pair no chain filled, and equals
        the oracle; with no subcomplex it is the unreduced profile."""
        rng = rng_for(3501)
        torsion = 0
        for i in range(60):
            facets = [rng.sample(range(9), rng.randint(1, 4)) for _ in range(rng.randint(1, 7))]
            if i % 3 == 0:
                facets += [[v and 10 + v for v in f] for f in PROJECTIVE_PLANE]
            k = Complex.from_facets(facets)
            simplices = k.simplices()
            l = Complex.from_facets(rng.sample(simplices, rng.randint(0, min(8, len(simplices)))))
            max_deg = rng.randint(-1, 3)
            got = relative_profile(k, l, max_deg)
            assert got == relative_homology(k, l, "z", max_deg), (facets, l.simplices())
            assert relative_profile(k, None, max_deg) == homology(k, "z", max_deg, reduced=False)
            torsion += bool(got.torsion)
        assert torsion > 5, torsion

    def test_relative_profile_refuses_a_pair_that_is_not_one(self):
        with pytest.raises(NotASubcomplex):
            relative_profile(hollow_triangle(), Complex.from_facets([[0, 1, 2]]), 1)


class TestInducedMap:
    def test_identity_inclusion(self):
        k = hollow_triangle()
        rec = induced_map(k, k, 1, "q")
        assert rec.iso and rec.rank == 1

    def test_square_counterexample_kills_cycle(self):
        case = case_by_name("square-4pt")
        space = space_for(case)
        k = vietoris_rips(space, 1, 3)
        union = union_of(
            k.restrict({space.index(p) for p in case.x}),
            k.restrict({space.index(p) for p in case.y}),
        )
        rec = induced_map(union, k, 1, "q")
        assert rec.dim_source == 1 and rec.dim_target == 0
        assert rec.rank == 0 and not rec.injective and rec.surjective

    def test_five_point_surjection_not_injection(self):
        case = case_by_name("five-pt-gluing")
        space = space_for(case)
        k = vietoris_rips(space, 3, 4)
        union = union_of(
            k.restrict({space.index(p) for p in case.x}),
            k.restrict({space.index(p) for p in case.y}),
        )
        rec = induced_map(union, k, 1, "q")
        assert rec.surjective and not rec.injective

    def test_skeleton_inclusion_surjects_on_top_degree(self):
        k = vietoris_rips(space_for(case_by_name("nine-pt-circle")), 3, 4)
        sk = skeleton(k, 2)
        rec = induced_map(sk, k, 2, "q")
        assert rec.surjective
        for d in (0, 1):
            assert induced_map(sk, k, d, "q").iso

    def test_mod_p_induced_map(self):
        rp2 = Complex.from_facets(PROJECTIVE_PLANE)
        sk = skeleton(rp2, 1)
        rec = induced_map(sk, rp2, 1, "zp:2")
        assert rec.dim_target == 1 and rec.surjective


class TestDegreeRefusals:
    """``homology``, ``induced_map`` and ``cover_square`` refuse a degree
    below the floor with ``InvalidInput`` and one past ``MAX_DIM_CAP`` with
    ``EnumerationRefused``, before any level is enumerated or padded."""

    def test_homology_refuses_a_max_deg_below_minus_one(self):
        triangle = Complex.from_facets([[0, 1, 2]])
        with pytest.raises(InvalidInput, match="degree -2 below -1"):
            homology(triangle, "q", max_deg=-2)
        assert homology(triangle, "q", max_deg=-1).betti == {-1: 0}

    @pytest.mark.parametrize("reduced, floor", [(False, 0), (True, -1)])
    def test_induced_map_refuses_a_degree_below_its_floor(self, reduced, floor):
        k = hollow_triangle()
        with pytest.raises(InvalidInput, match=f"degree {floor - 1} below {floor}"):
            induced_map(k, k, floor - 1, "q", reduced=reduced)

    def test_relative_profile_refuses_a_max_deg_out_of_range(self):
        rp2 = Complex.from_facets(PROJECTIVE_PLANE)
        with pytest.raises(InvalidInput, match="degree -2 below -1"):
            relative_profile(rp2, None, -2)
        with pytest.raises(EnumerationRefused, match="past"):
            relative_profile(
                rp2, skeleton(Complex.from_facets(PROJECTIVE_PLANE), 1), complexes.MAX_DIM_CAP + 1
            )
        assert "levels" not in rp2._memo

    def test_induced_map_refuses_a_degree_past_the_cap_bound(self):
        rp2 = Complex.from_facets(PROJECTIVE_PLANE)
        # the skeleton reads the simplices of its own copy, filling its levels
        sk = skeleton(Complex.from_facets(PROJECTIVE_PLANE), 1)
        with pytest.raises(EnumerationRefused, match="past"):
            induced_map(sk, rp2, complexes.MAX_DIM_CAP + 1, "q")
        assert "levels" not in rp2._memo and "levels" not in sk._memo

    def test_cover_square_refuses_a_cap_past_the_bound(self):
        rp2 = Complex.from_facets(PROJECTIVE_PLANE)
        with pytest.raises(EnumerationRefused, match="past"):
            cover_square(rp2, Cover([0, 1, 2, 3], [2, 3, 4, 5]), complexes.MAX_DIM_CAP + 1)
        assert "levels" not in rp2._memo


class TestIsSubcomplex:
    def test_flag_pairs_match_the_edge_membership_formula(self):
        """Two flag complexes: the adjacency-set test agrees with one
        membership test per edge of the smaller complex."""
        rng = rng_for(3601)
        verdicts = set()
        for _ in range(300):
            k = random_flag(rng, max_vertices=8, edge_p=0.6, dim_cap=2)
            keep = set(rng.sample(k.vertices, rng.randint(0, len(k.vertices))))
            edges = [e for e in k.edges() if set(e) <= keep and rng.random() < 0.8]
            if rng.random() < 0.3:
                keep.add(rng.randint(0, 9))
            if rng.random() < 0.3 and len(keep) > 1:
                edges.append(tuple(sorted(rng.sample(sorted(keep), 2))))
            sub = Complex.flag(keep, edges, dim_cap=2)
            old = set(sub.vertices) <= set(k.vertices) and all(e in k for e in sub.edges())
            assert is_subcomplex(sub, k) == old
            verdicts.add(old)
        assert verdicts == {True, False}

    def test_a_flag_triangle_is_not_in_an_explicit_path(self):
        """Mixed backings compare simplex by simplex: the path 0-1-2 lacks the
        edge 02 and the triangle, and holds each of its own simplices."""
        triangle = Complex.flag([0, 1, 2], combinations(range(3), 2), 2)
        path = Complex.from_facets([[0, 1], [1, 2]])
        assert not is_subcomplex(triangle, path)
        assert is_subcomplex(Complex.flag([0, 1, 2], [(0, 1), (1, 2)], 2), path)


class TestCertificates:
    def test_star_is_cone_certified(self):
        rng = rng_for(307)
        for _ in range(15):
            k = random_complex(rng)
            simplices = k.simplices()
            sigma = simplices[rng.randrange(len(simplices))]
            st = star(k, sigma)
            assert is_central(st, sigma)
            cert = contractibility_certificate(st)
            assert cert is not None and cert.kind == ContractibilityCertificate.CENTRAL

    def test_six_point_obstruction_certificate(self):
        case = case_by_name("six-pt-entry")
        space = space_for(case)
        k = vietoris_rips(space, 1, 4)
        idx = space.index
        obs = obstruction(
            k, (idx("x"), idx("y")), {idx(f"a{i}") for i in (1, 2, 3, 4)}
        )
        cert = contractibility_certificate(obs)
        assert cert.kind == ContractibilityCertificate.CENTRAL
        assert cert.central == (idx("a3"),)

    def test_hollow_triangle_inconclusive(self):
        assert contractibility_certificate(hollow_triangle()) is None

    def test_empty_complex_rejected(self):
        with pytest.raises(EmptyComplex):
            contractibility_certificate(Complex.from_facets([]))

    def test_collapse_found_beyond_cones(self):
        # two triangles sharing an edge, then a path: no central vertex,
        # still strongly collapsible, in 5 dominations and 7 collapses
        k = Complex.from_facets([[0, 1, 2], [1, 2, 3], [3, 4], [4, 5]])
        assert not central_vertices(k)
        cert = contractibility_certificate(k)
        assert cert is not None and cert.kind == ContractibilityCertificate.COLLAPSE
        assert replay_dominations(k, cert.dominations) in k.vertices
        assert (len(cert.dominations), cert.steps) == (5, 7)

    def test_certificate_implies_trivial_reduced_homology(self):
        rng = rng_for(308)
        certified = 0
        for _ in range(30):
            k = random_complex(rng, max_vertices=6)
            cert = contractibility_certificate(k)
            if cert is None:
                continue
            certified += 1
            for coeffs in ("z", "q", "zp:2", "zp:3"):
                profile = homology(k, coeffs, max_deg=k.dim())
                assert not any(profile.betti.values()) and not profile.torsion, (
                    coeffs,
                    k.simplices(),
                )
        assert certified > 5

    def test_flag_certificates_match_explicit(self):
        rng = rng_for(309)
        for _ in range(15):
            flag = random_flag(rng, max_vertices=6)
            explicit = flag.to_explicit()
            left = contractibility_certificate(flag)
            right = contractibility_certificate(explicit)
            assert (left is None) == (right is None)

    def test_domination_certificates_replay_and_match_the_old_search(self, monkeypatch):
        """Random flag graphs, random trees, and the obstructions of random
        covers of both.  A flag complex with no central vertex is certified
        by strong collapse when one vertex is left: its stored domination
        sequence replays, its step count is (N - 1) / 2 for its N nonempty
        cliques, and it is certified again with ``to_explicit``
        unreachable.  Every status equals the greedy search's: a central
        vertex, else a greedy collapse of the materialized complex
        (``greedy_collapse_oracle``), else none."""
        seen = Counter()
        for total, mask in flag_graphs_and_obstructions(rng_for(312), 120):
            k = total.subcomplex(mask)
            if central_vertices(k):
                old = "cone"
            elif greedy_collapse_oracle(k.to_explicit().simplices()) is not None:
                old = "collapse"
            else:
                old = "homology-only"
            cert = contractibility_certificate(k)
            assert status_of(cert) == old, k.edges()
            seen[old] += 1
            if old == "collapse":
                assert replay_dominations(k, cert.dominations) in k.vertices
                cliques = clique_levels(k.vertices, set(k.edges()), len(k.vertices))
                assert cert.steps == (sum(map(len, cliques)) - 1) / 2
                with monkeypatch.context() as m:
                    m.setattr(Complex, "to_explicit", None)
                    assert contractibility_certificate(k) == cert
                seen["long"] += len(cert.dominations) >= 4
        assert min(seen[s] for s in ("cone", "collapse", "homology-only", "long")) >= 10, seen

    def test_explicit_certificates_replay_and_never_claim_more_than_the_greedy_search(self):
        """Random explicit complexes and the obstructions of random covers of
        them.  One with no central vertex is certified by the strong collapse
        of its facets when one vertex is left: its dominations replay, and
        its step count is (N - 1) / 2 for its N simplices.  A cone is
        certified exactly where there is a central vertex, and a collapse
        only where the greedy search (``greedy_collapse_oracle``) collapses
        the complex too."""
        rng = rng_for(313)
        seen = Counter()
        for i in range(100):
            if i % 2:
                total = random_complex(rng, max_vertices=8, max_facets=7, max_facet_size=5)
            else:
                total = simplex_tree(rng, rng.randint(2, 6))
            items = enumerate_p_complement(total, random_cover(rng, total), 2)
            for k in [total] + [total.subcomplex(c.obs) for c in items.classes if c.obs]:
                if central_vertices(k):
                    old = "cone"
                elif greedy_collapse_oracle(k.simplices()) is not None:
                    old = "collapse"
                else:
                    old = "homology-only"
                cert = contractibility_certificate(k)
                new = status_of(cert)
                assert new == old or (new, old) == ("homology-only", "collapse"), k.simplices()
                seen[old, new] += 1
                if new == "collapse":
                    assert replay_dominations(k, cert.dominations) in k.vertices
                    assert cert.steps == (len(k.simplices()) - 1) / 2
        assert min(seen[s, s] for s in ("cone", "collapse", "homology-only")) >= 10, seen

    def test_a_collapsible_complex_with_no_dominated_vertex_is_homology_only(self):
        """Eleven triangles on seven vertices collapse to a vertex, but no
        vertex is dominated, so the strong collapse finds no certificate.
        As the obstruction of the edge {7, 8} (facets {7, 8} + t) the record
        reads homology-only, and the report stays sound."""
        k = Complex.from_facets(ELEVEN_TRIANGLES)
        assert not central_vertices(k)
        assert greedy_collapse_oracle(k.simplices()) is not None
        assert contractibility_certificate(k) is None
        total = Complex.from_facets([t + (7, 8) for t in ELEVEN_TRIANGLES])
        a = set(range(7))
        report = analyze(total, Cover(a | {7}, a | {8}))
        assert [(item["simplex"], item["status"]) for item in report.items] == [
            (["7", "8"], "homology-only")
        ]
        assert report.soundness["ok"], report.soundness


class TestCliqueCount:
    def test_the_count_matches_the_oracle(self):
        """The graphs and obstruction masks of the domination test: the count
        is one (the empty clique) plus the cliques listed by brute force."""
        for total, mask in flag_graphs_and_obstructions(rng_for(312), 120):
            k = total.subcomplex(mask)
            cliques = clique_levels(k.vertices, set(k.edges()), len(k.vertices))
            assert _count_cliques(total._adj, mask) == 1 + sum(map(len, cliques)), k.edges()

    def test_a_long_path_is_certified(self):
        """The 2,000-vertex path collapses in 1,999 dominations and 1,999
        elementary collapses."""
        k = Complex.flag(range(2000), [(j, j + 1) for j in range(1999)], 1)
        cert = contractibility_certificate(k)
        assert cert.kind == ContractibilityCertificate.COLLAPSE
        assert (len(cert.dominations), cert.steps) == (1999, 1999)

    def test_a_clique_past_the_recursion_limit_is_counted(self):
        """A 1,100-clique with pendant vertices at 0 and at 1: no central
        vertex, strongly collapsible, and its 2^1100 + 4 cliques, the empty
        one and the pendants' vertices and edges among them, are counted
        with no recursion as deep as the clique."""
        n = 1100
        edges = list(combinations(range(n), 2)) + [(0, n), (1, n + 1)]
        cert = contractibility_certificate(Complex.flag(range(n + 2), edges, 1))
        assert cert.kind == ContractibilityCertificate.COLLAPSE
        assert cert.steps == (2**n + 4 - 2) // 2

    def test_a_count_past_the_budget_is_refused(self, monkeypatch):
        """A dense random graph on 40 vertices, plus a vertex joined to all
        of it and a pendant vertex at 0, strongly collapses to one vertex.
        Its count fills about 2,000 memo entries: it is certified under the
        budget, and refused under a budget of 1,000."""
        rng, n = rng_for(314), 40
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.7]
        edges += [(v, n) for v in range(n)] + [(0, n + 1)]
        k = Complex.flag(range(n + 2), edges, 4)
        assert all(sum(v in e for e in edges) < n + 1 for v in k.vertices)  # none central
        assert strong_collapse(k)[1].bit_count() == 1
        assert contractibility_certificate(k).kind == ContractibilityCertificate.COLLAPSE
        monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 1000)
        with pytest.raises(EnumerationRefused, match="counting the cliques"):
            contractibility_certificate(k)
