"""Boundary matrices, Smith normal form, homology profiles, relative
homology, induced maps, and contractibility certificates."""

from fractions import Fraction
from itertools import combinations

import pytest

from ripsdecomp import (
    Complex,
    ContractibilityCertificate,
    EmptyComplex,
    EnumerationRefused,
    NotASubcomplex,
    boundary_matrix,
    contractibility_certificate,
    homology,
    induced_map,
    relative_homology,
    vietoris_rips,
)
from ripsdecomp.linalg import smith_invariants
from ripsdecomp.corpus import case_by_name, space_for
from ripsdecomp.homology import (
    _greedy_collapse,
    central_vertex,
    is_subcomplex,
)

from conftest import (
    PROJECTIVE_PLANE,
    boundary_oracle,
    greedy_collapse_oracle,
    random_complex,
    random_flag,
    rank_oracle,
    rng_for,
)
from oracles import obstruction, replay_collapses, skeleton, star

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
        profile = homology(Complex.empty(), "z", max_deg=1)
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


class TestRelativeHomology:
    def test_pair_with_itself_vanishes(self):
        k = Complex.from_facets([[1, 2, 3], [3, 4]])
        profile = relative_homology(k, k, "z", max_deg=3)
        assert all(v == 0 for v in profile.betti.values())

    def test_interval_relative_to_endpoints(self):
        k = Complex.from_facets([[1, 2]])
        ends = Complex.discrete([1, 2])
        profile = relative_homology(k, ends, "z", max_deg=1)
        assert profile.betti_vector(0, 1) == (0, 1)

    def test_empty_subcomplex_gives_unreduced(self):
        k = hollow_triangle()
        profile = relative_homology(k, Complex.empty(), "z", max_deg=1)
        unreduced = homology(k, "z", max_deg=1, reduced=False)
        assert profile.betti_vector(0, 1) == unreduced.betti_vector(0, 1)

    def test_not_a_subcomplex(self):
        with pytest.raises(NotASubcomplex):
            relative_homology(hollow_triangle(), Complex.from_facets([[1, 2, 3]]))


class TestInducedMap:
    def test_identity_inclusion(self):
        k = hollow_triangle()
        rec = induced_map(k, k, 1, "q")
        assert rec.iso and rec.rank == 1

    def test_square_counterexample_kills_cycle(self):
        case = case_by_name("square-4pt")
        space = space_for(case)
        k = vietoris_rips(space, 1, 3)
        union = k.restrict({space.index(p) for p in case.x}).union(
            k.restrict({space.index(p) for p in case.y})
        )
        rec = induced_map(union, k, 1, "q")
        assert rec.dim_source == 1 and rec.dim_target == 0
        assert rec.rank == 0 and not rec.injective and rec.surjective

    def test_five_point_surjection_not_injection(self):
        case = case_by_name("five-pt-gluing")
        space = space_for(case)
        k = vietoris_rips(space, 3, 4)
        union = k.restrict({space.index(p) for p in case.x}).union(
            k.restrict({space.index(p) for p in case.y})
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


class TestCertificates:
    def test_star_is_cone_certified(self):
        rng = rng_for(307)
        for _ in range(15):
            k = random_complex(rng)
            simplices = k.simplices()
            sigma = simplices[rng.randrange(len(simplices))]
            st = star(k, sigma)
            assert st.is_central(sigma)
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
            contractibility_certificate(Complex.empty())

    def test_collapse_found_beyond_cones(self):
        # two triangles sharing an edge, one barycentrically split: no
        # central vertex, still collapsible
        k = Complex.from_facets([[0, 1, 2], [1, 2, 3], [3, 4], [4, 5]])
        assert central_vertex(k) is None
        cert = contractibility_certificate(k)
        assert cert is not None and cert.kind == ContractibilityCertificate.COLLAPSE
        survivors = replay_collapses(k, cert.collapses)
        assert len(survivors) == 1 and len(next(iter(survivors))) == 1

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
                assert profile.is_trivial(), (coeffs, k.simplices())
        assert certified > 5

    def test_greedy_collapse_matches_the_rescan_oracle(self):
        rng = rng_for(311)
        outcomes = {"collapsed": 0, "stuck": 0}
        for i in range(150):
            if i % 2:
                k = random_flag(rng, max_vertices=8, edge_p=rng.choice((0.4, 0.6, 0.8)))
            else:
                k = random_complex(rng, max_vertices=8, max_facets=7, max_facet_size=5)
            simplices = k.to_explicit(full=True).simplices()
            seq = _greedy_collapse(simplices)
            assert seq == greedy_collapse_oracle(simplices), simplices
            outcomes["stuck" if seq is None else "collapsed"] += 1
        assert min(outcomes.values()) > 20, outcomes

    def test_flag_certificates_match_explicit(self):
        rng = rng_for(309)
        for _ in range(15):
            flag = random_flag(rng, max_vertices=6)
            explicit = flag.to_explicit(full=True)
            left = contractibility_certificate(flag)
            right = contractibility_certificate(explicit)
            assert (left is None) == (right is None)
