"""The sparse integral engine: invariant factors, ranks counted per field,
induced-map ranks by the boundary formula, and the field descriptor parse."""

import pytest

from ripsdecomp import (
    Complex,
    EnumerationRefused,
    InvalidInput,
    NotASubcomplex,
    cover_union,
    homology,
    induced_map,
    relative_homology,
)
from ripsdecomp.linalg import characteristic, smith_invariants, sparse_invariants

from conftest import (
    PROJECTIVE_PLANE,
    boundary_oracle,
    fresh,
    random_complex,
    random_cover,
    random_flag,
    rank_over,
    rng_for,
)
from oracles import induced_matrix_oracle, skeleton

FIELDS = ("q", "zp:2", "zp:3")


def columns_of(mat, ncols):
    return [
        {i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(ncols)
    ]


def random_matrix(rng):
    """Small integer matrices: mostly +-1 (unit pivots), some larger
    entries (set-aside columns), some all zero, some with an empty side."""
    nr = rng.randint(0, 7)
    nc = rng.randint(0, 7)
    density = rng.choice((0.0, 0.2, 0.5, 0.9))
    values = rng.choice(((1, -1), (1, -1, 2), (-3, -2, 2, 3, 4), (1, -1, 6, -4)))
    return [
        [rng.choice(values) if rng.random() < density else 0 for _ in range(nc)]
        for _ in range(nr)
    ], nc


def betti_oracle(k, coeffs, max_deg, reduced):
    """Betti numbers from dense oracle ranks of independently built
    boundary matrices."""
    levels = {n: k.n_simplices(n) for n in range(max_deg + 2)}
    levels[-1] = [()] if reduced else []
    levels[-2] = []
    ranks = {
        n: rank_over(boundary_oracle(levels[n - 1], levels[n]), coeffs)
        for n in range(-1, max_deg + 2)
    }
    lo = -1 if reduced else 0
    return {n: len(levels[n]) - ranks[n] - ranks[n + 1] for n in range(lo, max_deg + 1)}


class TestSparseInvariants:
    def test_matches_dense_smith_on_seeded_matrices(self):
        rng = rng_for(4101)
        set_aside = 0
        for _ in range(400):
            mat, nc = random_matrix(rng)
            cols = columns_of(mat, nc)
            got = sparse_invariants(cols)
            assert got == smith_invariants(mat), mat
            set_aside += any(d > 1 for d in got)
        assert set_aside > 40

    def test_zero_and_empty_shapes(self):
        assert sparse_invariants([]) == []
        assert sparse_invariants([{}, {}, {}]) == []
        assert smith_invariants([[0, 0, 0]] * 2) == []

    def test_columns_left_untouched(self):
        cols = [{0: 1, 1: 1}, {0: 1, 1: -1}, {1: 2}]
        before = [dict(c) for c in cols]
        assert sparse_invariants(cols) == [1, 2]
        assert cols == before

    def test_boundary_matrices_match_dense_smith(self):
        rng = rng_for(4102)
        for _ in range(30):
            k = random_complex(rng, max_vertices=8, max_facets=7, max_facet_size=5)
            for n in range(1, k.dim() + 1):
                rows, cols = k.n_simplices(n - 1), k.n_simplices(n)
                mat = boundary_oracle(rows, cols)
                assert sparse_invariants(columns_of(mat, len(cols))) == smith_invariants(mat)

    def test_projective_plane_invariants(self):
        rp2 = Complex.from_facets(PROJECTIVE_PLANE)
        rows, cols = rp2.n_simplices(1), rp2.n_simplices(2)
        invs = sparse_invariants(columns_of(boundary_oracle(rows, cols), len(cols)))
        assert invs == [1] * 9 + [2]


class TestFieldHomology:
    @pytest.mark.parametrize("reduced", [True, False])
    def test_explicit_complexes_match_oracle(self, reduced):
        rng = rng_for(4201 + reduced)
        for _ in range(25):
            k = random_complex(rng, max_vertices=7, max_facets=6, max_facet_size=4)
            max_deg = k.dim() + 1
            for coeffs in FIELDS:
                profile = homology(k, coeffs, max_deg=max_deg, reduced=reduced)
                assert profile.betti == betti_oracle(k, coeffs, max_deg, reduced)

    def test_flag_complexes_at_cap_match_oracle(self):
        rng = rng_for(4203)
        for _ in range(20):
            k = random_flag(rng, max_vertices=8, edge_p=0.6, dim_cap=3)
            for coeffs in FIELDS:
                profile = homology(k, coeffs, max_deg=2, reduced=True)
                assert profile.betti == betti_oracle(k, coeffs, 2, True)

    def test_projective_plane_char_two_differs(self):
        rp2 = Complex.from_facets(PROJECTIVE_PLANE)
        for coeffs in FIELDS:
            assert homology(rp2, coeffs, max_deg=2).betti == betti_oracle(
                rp2, coeffs, 2, True
            )
        assert homology(rp2, "zp:2", max_deg=2).betti_vector(1, 2) == (1, 1)
        assert homology(rp2, "q", max_deg=2).betti_vector(1, 2) == (0, 0)
        assert homology(rp2, "zp:3", max_deg=2).betti_vector(1, 2) == (0, 0)

    def test_relative_homology_over_fields_matches_quotient_oracle(self):
        rng = rng_for(4204)
        for _ in range(15):
            k = random_complex(rng, max_vertices=7)
            sub = k.restrict(set(rng.sample(k.vertices, len(k.vertices) // 2)))
            max_deg = k.dim()
            for coeffs in FIELDS:
                levels = {
                    n: [s for s in k.n_simplices(n) if s not in sub]
                    for n in range(max_deg + 2)
                }
                levels[-1] = []
                ranks = {
                    n: rank_over(boundary_oracle(levels[n - 1], levels[n]), coeffs)
                    for n in range(0, max_deg + 2)
                }
                want = {
                    n: len(levels[n]) - ranks[n] - ranks.get(n + 1, 0)
                    for n in range(0, max_deg + 1)
                }
                assert relative_homology(k, sub, coeffs, max_deg).betti == want


def induced_pairs(rng):
    """(sub, ambient, top degree) pairs: restrictions, cover unions, the
    empty complex, the ambient itself, skeleta, and flag complexes up to
    their cap."""
    for _ in range(8):
        k = random_complex(rng, max_vertices=7, max_facets=6, max_facet_size=4)
        top = k.dim() + 1
        yield cover_union(k, random_cover(rng, k)), k, top
        yield k.restrict(set(rng.sample(k.vertices, len(k.vertices) // 2))), k, top
        yield Complex.empty(), k, top
        yield k, k, top
        yield skeleton(k, 1), k, top
    for _ in range(6):
        k = random_flag(rng, max_vertices=7, edge_p=0.6, dim_cap=3)
        yield cover_union(k, random_cover(rng, k)), k, 2
        yield k.restrict(set(rng.sample(k.vertices, len(k.vertices) // 2))), k, 2
    rp2 = Complex.from_facets(PROJECTIVE_PLANE)
    yield skeleton(rp2, 1), rp2, 3


class TestInducedRanks:
    @pytest.mark.parametrize("reduced", [True, False])
    def test_rank_and_dims_match_the_dense_matrix(self, reduced):
        rng = rng_for(4301 + reduced)
        nonzero = proper = 0
        for sub, k, top in induced_pairs(rng):
            for degree in range(-1 if reduced else 0, top + 1):
                for coeffs in FIELDS:
                    rec = induced_map(sub, k, degree, coeffs, reduced=reduced)
                    mat = induced_matrix_oracle(sub, k, degree, coeffs, reduced)
                    assert len(mat) == rec.dim_target
                    assert all(len(row) == rec.dim_source for row in mat)
                    assert rec.rank == rank_over(mat, coeffs)
                    src = betti_oracle(sub, coeffs, degree, reduced)[degree]
                    tgt = betti_oracle(k, coeffs, degree, reduced)[degree]
                    assert (rec.dim_source, rec.dim_target) == (src, tgt)
                    nonzero += rec.rank > 0
                    proper += not rec.iso
        assert nonzero > 30 and proper > 30, (nonzero, proper)


class TestMemo:
    def test_shared_complex_answers_like_fresh_copies_and_the_oracle(self):
        """One complex, asked over fields in shuffled order and for small
        degrees before large ones, answers as fresh copies and the dense
        oracles do; a flag complex still refuses past its cap afterwards."""
        rng = rng_for(4401)
        refused = 0
        for i in range(100):
            if i % 2:
                k = random_flag(rng, max_vertices=8, edge_p=0.6, dim_cap=rng.randint(1, 3))
                top = k.dim_cap - 1
            else:
                k = random_complex(rng, max_vertices=7, max_facets=6, max_facet_size=4)
                top = k.dim() + 1
            half = set(rng.sample(k.vertices, len(k.vertices) // 2))
            subs = (cover_union(k, random_cover(rng, k)), k.restrict(half))
            fields = list(FIELDS + ("z",))
            rng.shuffle(fields)
            for max_deg in range(top + 1):
                for coeffs in fields:
                    reduced = rng.random() < 0.5
                    got = homology(k, coeffs, max_deg=max_deg, reduced=reduced)
                    want = homology(fresh(k), coeffs, max_deg=max_deg, reduced=reduced)
                    assert got == want
                    if coeffs == "z":
                        continue
                    assert got.betti == betti_oracle(k, coeffs, max_deg, reduced)
                    sub = rng.choice(subs)
                    rec = induced_map(sub, k, max_deg, coeffs, reduced=reduced)
                    again = induced_map(fresh(sub), fresh(k), max_deg, coeffs, reduced=reduced)
                    dims = (rec.rank, rec.dim_source, rec.dim_target)
                    assert dims == (again.rank, again.dim_source, again.dim_target)
                    mat = induced_matrix_oracle(sub, k, max_deg, coeffs, reduced)
                    assert rec.rank == rank_over(mat, coeffs)
            if k.is_flag and k.has_simplices_above_cap():
                with pytest.raises(EnumerationRefused):
                    homology(k, fields[0], max_deg=k.dim_cap)
                with pytest.raises(EnumerationRefused):
                    induced_map(subs[0], k, k.dim_cap, "q")
                refused += 1
        assert refused > 10, refused

    def test_per_call_checks_survive_a_filled_memo(self):
        rp2 = Complex.from_facets(PROJECTIVE_PLANE)
        sub = skeleton(rp2, 1)
        for coeffs in FIELDS:
            homology(rp2, coeffs, max_deg=2)
            induced_map(sub, rp2, 1, coeffs, reduced=True)
        with pytest.raises(InvalidInput):
            homology(rp2, "zp:4", max_deg=2)
        with pytest.raises(InvalidInput):
            induced_map(sub, rp2, 1, "zp:4")
        with pytest.raises(InvalidInput):
            induced_map(sub, rp2, -2, "q", reduced=True)
        with pytest.raises(NotASubcomplex):
            induced_map(rp2, sub, 1, "q")


class TestFieldDescriptor:
    def test_characteristic_from_the_one_parse(self):
        assert characteristic("q") == 0
        assert characteristic("zp:5") == 5 and characteristic("zp:2") == 2
        assert characteristic("zp:2147483647") == 2**31 - 1

    @pytest.mark.parametrize(
        "name", ["zp:4", "zp:1", "zp:0", "zp:", "zp:x", "zp:-3", "r", "z", "zp:02", "zp:007"]
    )
    def test_bad_descriptors_raise_invalid_input(self, name):
        with pytest.raises(InvalidInput):
            characteristic(name)

    @pytest.mark.parametrize("digits", ["9" * 11, "9" * 5000])
    def test_long_digit_strings_refused_before_conversion(self, digits):
        with pytest.raises(InvalidInput, match="2\\*\\*31"):
            characteristic("zp:" + digits)

    def test_composite_prime_field_rejected(self):
        with pytest.raises(InvalidInput, match="9 is not prime"):
            characteristic("zp:9")

    @pytest.mark.parametrize("name", ["zp:4", "zp:1", "zp:0"])
    def test_engine_never_counts_mod_a_composite(self, name):
        k = Complex.from_facets(PROJECTIVE_PLANE)
        with pytest.raises(InvalidInput):
            homology(k, name, max_deg=2)
        with pytest.raises(InvalidInput):
            relative_homology(k, skeleton(k, 1), name)
        with pytest.raises(InvalidInput):
            induced_map(skeleton(k, 1), k, 1, name)
