"""The sparse integral engine: invariant factors, the one-pass read of
nested chains, the coboundary incidence, ranks counted per field,
induced-map ranks by the boundary formula, and the field descriptor parse."""

import pytest

from ripsdecomp import (
    Complex,
    EnumerationRefused,
    InvalidInput,
    NotASubcomplex,
    homology,
    induced_map,
    linalg,
)
from ripsdecomp.homology import _reduce_chain, coboundary_columns
from ripsdecomp.linalg import (
    block_invariants,
    characteristic,
    reduce_columns,
    smith_invariants,
)

from conftest import (
    PROJECTIVE_PLANE,
    boundary_oracle,
    cliques_oracle,
    fresh,
    random_complex,
    random_cover,
    random_flag,
    rank_mod_p_oracle,
    rank_oracle,
    rank_over,
    rng_for,
)
from oracles import cover_union, induced_matrix_oracle, skeleton

FIELDS = ("q", "zp:2", "zp:3")


def columns_of(mat, ncols):
    return [
        {i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(ncols)
    ]


def sparse_invariants(columns):
    """Invariant factors of the matrix with these sparse columns, which are
    left unmodified: the whole-matrix block of one reduction."""
    ((rank, factors),) = block_invariants(reduce_columns(columns), (0,), None)
    return [1] * (rank - len(factors)) + list(factors)


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


def invariants_oracle(mat):
    """(rank, invariant factors above 1) of a dense integer matrix: the rank
    by rational elimination, the factors from the dense Smith form, checked
    against the ranks mod 2 and 3."""
    rank = rank_oracle(mat)
    factors = tuple(d for d in smith_invariants(mat) if d > 1)
    for p in (2, 3):
        assert rank_mod_p_oracle(mat, p) == rank - sum(d % p == 0 for d in factors)
    return rank, factors


def nested_chains(rng):
    """Nested complexes K = L0 > L1 > ...: the cover square's chain [total,
    union, X, A] of random complexes, and restrictions to shrinking vertex
    sets, down to a few vertices or none.  Half hold an RP^2 on vertices
    0..5, which some restrictions keep whole, so blocks have non-unit
    (set-aside) columns."""
    for i in range(36):
        facets = [rng.sample(range(9), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        k = Complex.from_facets(facets + (PROJECTIVE_PLANE if i % 2 else []))
        if i % 3 == 0:
            cover = random_cover(rng, k)
            yield [k, cover_union(k, cover), k.restrict(cover.x), k.restrict(cover.a)]
            continue
        members = [k]
        vertices = list(k.vertices)
        for _ in range(rng.randint(1, 4)):
            whole = rng.random() < 0.5
            vertices = [v for v in vertices if (whole and v < 6) or rng.random() < 0.6]
            members.append(k.restrict(vertices))
        yield members


class TestOnePassRead:
    def test_every_member_and_the_relative_block_match_the_oracle(self, monkeypatch):
        """One reduction of K per degree gives every member's d_n and
        d_n(K, L1) exactly, whether a block has set-aside columns or not,
        also when a member has no simplices in the degree and when a
        proper member keeps the torsion of an RP^2."""
        blocks = smith_calls = empty = inner_torsion = 0
        read, smith = linalg.block_invariants, linalg.smith_invariants

        def counting_read(reduction, first_rows, end_col):
            nonlocal blocks
            blocks += len(first_rows) + (end_col is not None)
            return read(reduction, first_rows, end_col)

        def counting_smith(mat):
            nonlocal smith_calls
            smith_calls += 1
            return smith(mat)

        monkeypatch.setattr(linalg, "block_invariants", counting_read)
        monkeypatch.setattr(linalg, "smith_invariants", counting_smith)
        rng = rng_for(4501)
        for members in nested_chains(rng):
            k, sub = members[0], members[1]
            top = k.dim() + 1
            levels = k.levels(top)
            _reduce_chain(
                members,
                levels,
                lambda n: [sum(s in m for m in members[1:]) for s in levels[n]],
                range(1, top + 1),
            )
            for n in range(1, top + 1):
                for m in members:
                    mat = boundary_oracle(m.n_simplices(n - 1), m.n_simplices(n))
                    assert m._memo[n] == invariants_oracle(mat), (n, m)
                    empty += not m.n_simplices(n)
                    inner_torsion += m is not k and bool(m._memo[n][1])
                outside = [s for s in k.n_simplices(n - 1) if s not in sub]
                mat = boundary_oracle(outside, k.n_simplices(n))
                assert k._memo["relative", id(sub), n][1] == invariants_oracle(mat), n
        # the dense Smith step runs exactly for the blocks with set-aside columns
        assert smith_calls > 10 and blocks - smith_calls > 300, (blocks, smith_calls)
        assert empty > 100 and inner_torsion > 5, (empty, inner_torsion)


class TestCoboundaryColumns:
    @staticmethod
    def transposed_oracle(rows, cols):
        return [{j: v for j, v in enumerate(row) if v} for row in boundary_oracle(rows, cols)]

    def test_rows_with_missing_faces(self):
        """Faces absent from the rows, as in a relative complex, contribute
        nothing; every other face gets the sign (-1)^i of its vertex i."""
        rng = rng_for(4502)
        missing = 0
        for _ in range(40):
            k = random_complex(rng, max_vertices=8, max_facets=6, max_facet_size=5)
            for n in range(1, k.dim() + 1):
                faces = k.n_simplices(n - 1)
                rows = [s for s in faces if rng.random() < 0.7]
                rng.shuffle(rows)
                cols = k.n_simplices(n)
                assert coboundary_columns(rows, cols) == self.transposed_oracle(rows, cols)
                missing += len(faces) - len(rows)
        assert missing > 100, missing

    def test_skipped_rows_get_no_column(self):
        """With a skip set, every other column is the one the full build
        gives, and a skipped row's column is empty."""
        rng = rng_for(4504)
        skipped = 0
        for _ in range(40):
            k = random_complex(rng, max_vertices=8, max_facets=6, max_facet_size=5)
            for n in range(1, k.dim() + 1):
                rows, cols = k.n_simplices(n - 1), k.n_simplices(n)
                skip = {i for i in range(len(rows)) if rng.random() < 0.5}
                full = coboundary_columns(rows, cols)
                got = coboundary_columns(rows, cols, skip)
                assert got == [{} if i in skip else col for i, col in enumerate(full)]
                skipped += sum(bool(full[i]) for i in skip)
        assert skipped > 100, skipped

    def test_the_augmented_empty_row(self):
        vertices = [(v,) for v in range(5)]
        assert coboundary_columns([()], vertices) == [{j: 1 for j in range(5)}]
        assert coboundary_columns([()], vertices) == self.transposed_oracle([()], vertices)
        assert coboundary_columns([(), (0, 1)], vertices) == [{j: 1 for j in range(5)}, {}]

    def test_a_70_vertex_simplex_against_its_facets(self):
        """Signs come from the vertex position however large the simplex:
        the facet without vertex i has sign (-1)^i."""
        simplex = tuple(range(70))
        facets = [simplex[:i] + simplex[i + 1 :] for i in range(70)]
        rng_for(4503).shuffle(facets)
        got = coboundary_columns(facets, [simplex])
        dropped = [(set(simplex) - set(f)).pop() for f in facets]
        assert got == [{0: (-1) ** i} for i in dropped]
        assert got == self.transposed_oracle(facets, [simplex])


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


def induced_pairs(rng):
    """(sub, ambient, top degree) pairs: restrictions, cover unions, the
    empty complex, the ambient itself, skeleta, and flag complexes up to
    their cap."""
    for _ in range(8):
        k = random_complex(rng, max_vertices=7, max_facets=6, max_facet_size=4)
        top = k.dim() + 1
        yield cover_union(k, random_cover(rng, k)), k, top
        yield k.restrict(set(rng.sample(k.vertices, len(k.vertices) // 2))), k, top
        yield Complex.from_facets([]), k, top
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
        oracles do.  Afterwards a flag complex still refuses degree cap
        exactly when it has a clique above the cap, and pads otherwise."""
        rng = rng_for(4401)
        refused = padded = 0
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
            if not k.is_flag:
                continue
            # degree cap needs the (cap + 1)-simplices: refused exactly when
            # one exists, and read as an empty level otherwise
            if cliques_oracle(k, k.dim_cap + 2):
                with pytest.raises(EnumerationRefused):
                    homology(k, fields[0], max_deg=k.dim_cap)
                with pytest.raises(EnumerationRefused):
                    induced_map(subs[0], k, k.dim_cap, "q")
                refused += 1
            else:
                whole = k.to_explicit()
                got = homology(k, fields[0], max_deg=k.dim_cap, reduced=True)
                assert got == homology(whole, fields[0], max_deg=k.dim_cap, reduced=True)
                rec = induced_map(subs[0], k, k.dim_cap, "q")
                want = induced_map(subs[0].to_explicit(), whole, k.dim_cap, "q")
                assert (rec.rank, rec.dim_source, rec.dim_target) == (
                    want.rank, want.dim_source, want.dim_target
                )
                padded += 1
        assert refused > 10 and padded > 10, (refused, padded)

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

    def test_ten_digits_past_2_31_refused(self):
        """2**31 has ten digits, so the length check passes it to the bound."""
        with pytest.raises(InvalidInput, match=r"prime fields need p < 2\*\*31"):
            characteristic("zp:2147483648")

    def test_answers_are_cached_and_bad_names_raise_every_time(self):
        characteristic.cache_clear()
        assert [characteristic("zp:3") for _ in range(3)] == [3, 3, 3]
        assert characteristic.cache_info().hits == 2
        for _ in range(3):
            with pytest.raises(InvalidInput, match="9 is not prime"):
                characteristic("zp:9")
        assert characteristic.cache_info().currsize == 1

    def test_composite_prime_field_rejected(self):
        with pytest.raises(InvalidInput, match="9 is not prime"):
            characteristic("zp:9")

    @pytest.mark.parametrize("name", ["zp:4", "zp:1", "zp:0"])
    def test_engine_never_counts_mod_a_composite(self, name):
        k = Complex.from_facets(PROJECTIVE_PLANE)
        with pytest.raises(InvalidInput):
            homology(k, name, max_deg=2)
        with pytest.raises(InvalidInput):
            induced_map(skeleton(k, 1), k, 1, name)
