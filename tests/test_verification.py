"""The verification layer: independent theorem checks, the soundness gate,
the edge-collapsed and strong-collapsed cover squares against fresh
uncollapsed parts, and the decompose path's freedom from rational
elimination; the command line's refusal of bad fields and malformed
documents."""

import importlib
import json
import time
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

import ripsdecomp
from ripsdecomp import (
    Complex,
    Cover,
    CriterionVerdict,
    DistanceSpace,
    InvalidInput,
    MetricCover,
    analyze,
    analyzer,
    cli,
    complexes,
    homology,
    induced_map,
    linalg,
    vietoris_rips,
)
from ripsdecomp.complexes import MAX_DIM_CAP, collapse_edges, collapse_vertices, facet_masks
from ripsdecomp.corpus import space_for
from ripsdecomp.homology import HomologyProfile, cover_square, relative_profile
from ripsdecomp.io import load_cover, load_input
from ripsdecomp.reporting import render_json

from conftest import (
    PROJECTIVE_PLANE,
    assert_views_read_as_parsed,
    barycentric_flag,
    case_by_name,
    circle_cover,
    cover_shapes,
    dunce_hat,
    fresh,
    random_complex,
    random_cover,
    random_flag,
    rng_for,
)
from oracles import (
    check_cofiber_shift,
    cover_union,
    mv_check,
    relative_homology,
    replay_vertex_collapse,
    skeleton,
)


def write_metric_case(tmp_path, case):
    space = space_for(case)
    (tmp_path / "points.json").write_text(
        json.dumps(
            {
                "points": list(space.labels),
                "distances": [[str(v) for v in row] for row in space.matrix],
            }
        )
    )
    (tmp_path / "cover.json").write_text(json.dumps({"X": case.x, "Y": case.y}))
    cover = str(tmp_path / "cover.json")
    return [str(tmp_path / "points.json"), "-r", str(case.r), "--cover", cover]


def write_facet_case(tmp_path, facets, x, y):
    (tmp_path / "facets.json").write_text(json.dumps({"facets": facets}))
    (tmp_path / "cover.json").write_text(json.dumps({"X": x, "Y": y}))
    return [str(tmp_path / "facets.json"), "--cover", str(tmp_path / "cover.json")]


class TestTheoremChecks:
    def test_mayer_vietoris_exact_on_seeded_complexes(self):
        rng = rng_for(5101)
        for _ in range(12):
            k = random_complex(rng, max_vertices=7)
            cover = random_cover(rng, k)
            for coeffs in ("q", "zp:2", "zp:3"):
                result = mv_check(k, cover.x, cover.y, coeffs)
                assert result["exact"], result["failures"]

    def test_mayer_vietoris_exact_on_flag_and_torsion(self):
        rng = rng_for(5102)
        for _ in range(6):
            k = random_flag(rng, max_vertices=7, edge_p=0.5, dim_cap=4)
            cover = random_cover(rng, k)
            assert mv_check(k, cover.x, cover.y, "q", max_deg=2)["exact"]
        rp2 = Complex.from_facets(PROJECTIVE_PLANE)
        for coeffs in ("q", "zp:2"):
            assert mv_check(rp2, {0, 1, 2, 3}, {2, 3, 4, 5}, coeffs)["exact"]

    def test_cofiber_shift_consistent_on_seeded_complexes(self):
        rng = rng_for(5103)
        checked = 0
        for _ in range(12):
            k = random_complex(rng, max_vertices=7)
            simplices = k.simplices()
            for sigma in rng.sample(simplices, min(3, len(simplices))):
                for coeffs in ("z", "q", "zp:2"):
                    result = check_cofiber_shift(k, sigma, coeffs)
                    assert result["consistent"], result["mismatches"]
                    checked += 1
        assert checked > 60

    def test_cofiber_shift_with_torsion(self):
        rp2 = Complex.from_facets(PROJECTIVE_PLANE)
        for sigma in ((0,), (0, 1), (0, 1, 4)):
            assert check_cofiber_shift(rp2, sigma, "z")["consistent"]


def gate(union, total, top, claim):
    """The soundness gate's failures for one held ``no-cross-simplices``
    claim on the pair union -> total, read through degree ``top``."""
    verdict = CriterionVerdict("no-cross-simplices", analyzer.HOLDS, claim=claim)
    return analyzer._soundness([verdict], union, total, top)


#: The failure of a claim whose pair has H_n(total, union; Z) = Z.
NOT_ZERO = (
    "no-cross-simplices: expected H_{}(total, union; Z) = 0, verification reads "
    "betti 1, torsion []"
)


class TestSoundnessGate:
    def test_fires_on_a_false_isomorphism_claim(self):
        """A path of two edges in a hollow triangle: H_1 goes 0 -> Z, so
        H_1(total, union; Z) = Z and the integral profiles differ in degree
        1.  The map is injective and not onto, as its record reads too."""
        total = Complex.from_facets([[0, 1], [1, 2], [0, 2]])
        union = Complex.from_facets([[0, 1], [1, 2]])
        rec = induced_map(union, total, 1, "q")
        assert (rec.injective, rec.surjective, rec.iso) == (True, False, False)
        assert gate(union, total, 1, {"iso_upto": "all"}) == [
            NOT_ZERO.format(1),
            "no-cross-simplices: integral profiles of the union and the whole complex "
            "differ in degree 1",
        ]

    def test_fires_on_false_claims_against_real_records(self):
        """The square of a hollow triangle covered by two of its edges:
        union -> total misses H_1, as the records ``_verification`` keeps
        read, so H_1(total, union; Z) = Z.  An isomorphism claim fails there
        and on the integral profiles in degree 1, a surjection claim in
        degree 1 fails there alone, and so does one that excludes
        characteristic 3, as Z is not 3-primary; a claim of degree 0 alone
        holds."""
        k = Complex.from_facets([[0, 1], [1, 2], [0, 2]])
        parts = cover_square(k, Cover([0, 1], [0, 2]), 2)
        profiles, induced = analyzer._verification(parts, ["q", "z", "zp:3"], 1)
        assert profiles["union"]["z"].betti[1] == 0 and profiles["total"]["z"].betti[1] == 1
        assert [rec.surjective for rec in induced] == [True, False, True, False]

        def failures(claim):
            return gate(parts["union"], parts["total"], 1, claim)

        assert failures({"iso_upto": "all"}) == [
            NOT_ZERO.format(1),
            "no-cross-simplices: integral profiles of the union and the whole complex "
            "differ in degree 1",
        ]
        assert failures({"iso_upto": 0, "surj_at": 1}) == [NOT_ZERO.format(1)]
        assert failures({"iso_upto": 0, "surj_at": 1, "exclude_char": 3}) == [
            "no-cross-simplices: expected H_1(total, union; Z) to be 3-primary torsion, "
            "verification reads betti 1, torsion []",
        ]
        assert failures({"iso_upto": 0, "surj_at": None}) == []

    @staticmethod
    def moebius_failures(exclude=None):
        """The gate on an isomorphism claim of every degree, away from
        ``exclude``, for the boundary circle L (edges {i, i + 2}) of the
        5-vertex Moebius band K (facets {i, i + 1, i + 2}) as union -> total:
        H_1 L = Z -> H_1 K = Z is multiplication by 2, an isomorphism over q
        but not over zp:2, and both integral profiles read H_1 = Z, so
        H_1(K, L; Z) = Z/2."""
        k = Complex.from_facets([[i, (i + 1) % 5, (i + 2) % 5] for i in range(5)])
        l = Complex.from_facets([[i, (i + 2) % 5] for i in range(5)])
        assert homology(l, "z", max_deg=1) == homology(k, "z", max_deg=1)
        assert relative_profile(k, l, 1) == HomologyProfile(
            "z", False, (0, 1), {0: 0, 1: 0}, {1: (2,)}
        )
        claim = {"iso_upto": "all", "surj_at": None, "exclude_char": exclude}
        return gate(l, k, 1, claim)

    def test_fires_on_a_map_that_is_multiplication_by_two(self):
        assert self.moebius_failures() == [
            "no-cross-simplices: expected H_1(total, union; Z) = 0, verification reads "
            "betti 0, torsion [2]",
        ]

    @pytest.mark.parametrize(
        "exclude, want",
        [
            (2, []),
            (3, [
                "no-cross-simplices: expected H_1(total, union; Z) to be 3-primary torsion, "
                "verification reads betti 0, torsion [2]",
            ]),
        ],
    )
    def test_a_p_primary_relative_group_passes_only_away_from_p(self, exclude, want):
        """Z/2 is 2-primary: a claim away from characteristic 2 holds, and
        one away from 3 does not."""
        assert self.moebius_failures(exclude) == want

    def test_fires_on_the_top_degree_by_the_profiles_alone(self):
        """A filled triangle over its boundary circle at cap 2: the relative
        groups vanish through degree 1, but H_1 goes Z -> 0, and d_3 is not
        read, so only the profile clause sees it."""
        total = Complex.from_facets([[0, 1, 2]])
        union = Complex.from_facets([[0, 1], [1, 2], [0, 2]])
        assert relative_profile(total, union, 1).betti == {0: 0, 1: 0}
        assert gate(union, total, 1, {"iso_upto": "all", "surj_at": None}) == [
            "no-cross-simplices: integral profiles of the union and the whole complex "
            "differ in degree 1",
        ]

    @staticmethod
    def decompose_with_a_false_degree_1_claim(tmp_path, monkeypatch, capsys, field):
        """``decompose`` of the five-point gluing case over one field, with
        ``no-cross-simplices`` patched to claim an isomorphism through degree
        1, which is false: the exit code and the report's soundness block.
        H_2(total, union; Z) = Z, whatever the field."""
        argv = ["decompose", *write_metric_case(tmp_path, case_by_name("five-pt-gluing"))]
        argv += ["--field", field, "--format", "json"]
        rows = [
            rule._replace(test=lambda ctx, n: analyzer._holds(1))
            if rule.id == "no-cross-simplices"
            else rule
            for rule in analyzer._RULES
        ]
        monkeypatch.setattr(analyzer, "_RULES", rows)
        code = cli.main(argv)
        return code, json.loads(capsys.readouterr().out)["soundness"]

    @pytest.mark.parametrize("field", ["q", "zp:3"])
    def test_fires_on_a_false_degree_1_claim_over_a_field(
        self, tmp_path, monkeypatch, capsys, field
    ):
        code, soundness = self.decompose_with_a_false_degree_1_claim(
            tmp_path, monkeypatch, capsys, field
        )
        assert code == 1 and not soundness["ok"]
        assert soundness["failures"] == [NOT_ZERO.format(2)]

    def test_fires_on_a_false_degree_1_claim_over_z_alone(self, tmp_path, monkeypatch, capsys):
        code, soundness = self.decompose_with_a_false_degree_1_claim(
            tmp_path, monkeypatch, capsys, "z"
        )
        assert code == 1 and not soundness["ok"]
        assert soundness["failures"] == [NOT_ZERO.format(2)]

    def test_fires_on_a_map_that_is_multiplication_by_two_once_zp2_is_read(self):
        """The gate reads no field: its failure is the same whether or not
        the report's records hold zp:2, where the map is not onto."""
        k = Complex.from_facets([[i, (i + 1) % 5, (i + 2) % 5] for i in range(5)])
        l = Complex.from_facets([[i, (i + 2) % 5] for i in range(5)])
        assert induced_map(l, k, 1, "q").iso and not induced_map(l, k, 1, "zp:2").surjective
        assert self.moebius_failures() == gate(l, k, 1, {"iso_upto": "all"})

    def test_decompose_exits_one_on_a_false_claim(self, tmp_path, monkeypatch, capsys):
        argv = ["decompose", *write_metric_case(tmp_path, case_by_name("five-pt-gluing"))]
        argv += ["--format", "json"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        rows = [
            rule._replace(test=lambda ctx, n: analyzer._holds("all"))
            if rule.id == "no-cross-simplices"
            else rule
            for rule in analyzer._RULES
        ]
        monkeypatch.setattr(analyzer, "_RULES", rows)
        assert cli.main(argv) == 1
        failures = json.loads(capsys.readouterr().out)["soundness"]["failures"]
        assert failures and all(f.startswith("no-cross-simplices:") for f in failures)


DENSE_FIELD_NAMES = (
    "QQ", "GF", "Span", "kernel_basis", "solve_in_span", "matmul", "rank", "_rref",
    "_convert", "field_of",
)


class TestNoRationalElimination:
    @pytest.fixture
    def no_dense_field_work(self):
        """The package has no field elimination left to call."""
        assert not [name for name in DENSE_FIELD_NAMES if hasattr(linalg, name)]

    def test_dense_field_path_is_gone(self):
        # the package's ``homology`` attribute is the function of that name
        homology_mod = importlib.import_module("ripsdecomp.homology")
        gone = {
            ripsdecomp: ("mv_check", "check_cofiber_shift"),
            analyzer: ("mv_check", "check_cofiber_shift"),
            linalg: DENSE_FIELD_NAMES,
            homology_mod: ("_homology_reps", "_induced_matrix"),
            homology_mod.InducedMap: ("matrix", "_build", "_matrix"),
        }
        assert not [
            (getattr(owner, "__name__", owner), name)
            for owner, names in gone.items()
            for name in names
            if hasattr(owner, name)
        ]
        assert linalg.characteristic("q") == 0 and linalg.characteristic("zp:3") == 3

    def test_metric_decompose(self, tmp_path, capsys, no_dense_field_work):
        argv = write_metric_case(tmp_path, case_by_name("nine-pt-circle"))
        fields = ["--field", "q", "--field", "z", "--field", "zp:2", "--field", "zp:3"]
        assert cli.main(["decompose", *argv, *fields, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["soundness"]["ok"] and len(report["induced"]) == 12

    def test_explicit_decompose_with_torsion(self, tmp_path, capsys, no_dense_field_work):
        facets = [[v and 10 + v for v in f] for f in PROJECTIVE_PLANE] + [[0, 1, 2], [2, 3]]
        argv = write_facet_case(tmp_path, facets, [0, 1, 2, 11, 12], [0, 2, 3, 13, 14, 15])
        fields = ["--field", "q", "--field", "z", "--field", "zp:2", "--field", "zp:3"]
        assert cli.main(["decompose", *argv, *fields, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["profiles"]["total"]["z"]["torsion"] == {"1": [2]}


def rp2_wedge(rng):
    """A projective plane on shuffled vertex labels, wedged with random
    facets and coned off over some of its triangles: its set-aside columns
    sit inside the blocks of the reduction."""
    labels = rng.sample(range(1, 12), 7)
    rp2 = [[labels[v] for v in f] for f in PROJECTIVE_PLANE]
    coned = rng.sample(rp2, rng.randint(0, 10))
    extra = [rng.sample(range(12), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
    return Complex.from_facets(rp2 + [f + [labels[6]] for f in coned] + extra)


def rp2_cone(rng):
    """The cone over a projective plane on shuffled labels, from an apex
    below them all.  It is acyclic, but a set-aside column's lowest row has
    cofaces: clearing that row as well gives it a false Z/2."""
    labels = rng.sample(range(1, 12), 6)
    return Complex.from_facets([[labels[v] for v in f] + [0] for f in PROJECTIVE_PLANE])


def square_cases(rng):
    """(complex, cover, dim_cap) triples: flag and explicit complexes, RP^2
    wedges and cones, each under a random cover, an empty A, and X or Y
    holding every vertex (no cross simplex)."""
    for i in range(240):
        kind = i % 4
        if kind == 0:
            k = random_flag(rng, max_vertices=9, edge_p=0.55, dim_cap=rng.randint(1, 3))
            dim_cap = k.dim_cap
        elif kind == 1:
            k = random_complex(rng, max_vertices=8, max_facets=7, max_facet_size=5)
            dim_cap = rng.randint(1, 4)
        else:
            k = rp2_wedge(rng) if kind == 2 else rp2_cone(rng)
            dim_cap = rng.randint(3, 4)
        vertices = list(k.vertices)
        some = rng.sample(vertices, rng.randint(0, len(vertices)))
        shape = i // 4 % 4
        if shape == 0:
            cover = random_cover(rng, k)
        elif shape == 1:        # A empty
            cover = Cover(some, set(vertices) - set(some))
        elif shape == 2:
            cover = Cover(vertices, some)
        else:
            cover = Cover(some, vertices)
        yield k, cover, dim_cap


class TestCoverSquare:
    FIELDS = ("q", "z", "zp:2", "zp:3")

    def test_matches_each_part_on_its_own(self):
        """The five profiles and the induced records of one shared reduction
        equal those of fresh parts with no memo in common."""
        rng = rng_for(5301)
        torsion = cases = no_cross = 0
        for k, cover, dim_cap in square_cases(rng):
            profiles, induced = analyzer._verification(
                cover_square(k, cover, dim_cap), self.FIELDS, dim_cap - 1
            )
            total = fresh(k)
            parts = {
                "x": total.restrict(cover.x),
                "y": total.restrict(cover.y),
                "a": total.restrict(cover.a),
                "union": cover_union(total, cover),
                "total": total,
            }
            max_deg = dim_cap - 1
            for name, part in parts.items():
                for coeffs in self.FIELDS:
                    want = homology(part, coeffs, max_deg=max_deg, reduced=True)
                    assert profiles[name][coeffs] == want, (k, cover, name)
                    assert profiles[name][coeffs].to_dict() == want.to_dict(), (k, cover, name)
            want = []
            for coeffs in self.FIELDS[:1] + self.FIELDS[2:]:
                for degree in range(max_deg + 1):
                    rec = induced_map(parts["union"], total, degree, coeffs)
                    want.append(
                        (coeffs, degree, rec.rank, rec.dim_source, rec.dim_target)
                    )
            got = [(r.field, r.degree, r.rank, r.dim_source, r.dim_target) for r in induced]
            assert got == want, (k, cover)
            cases += 1
            torsion += any(profiles[n]["z"].torsion for n in parts)
            no_cross += all(not (set(s) - cover.x and set(s) - cover.y)
                            for s in k.simplices(max_dim=dim_cap))
        assert cases >= 200 and torsion > 10 and no_cross > 100, (cases, torsion, no_cross)


    def test_relative_profile_matches_the_oracle(self):
        """H(total, union; Z), read off the square's memos through degree
        dim_cap - 1, equals the dense oracle's on the uncollapsed pair, on
        flag and explicit complexes, RP^2 wedges and cones, and RP^2 wedged
        with a suspended one, under random covers and covers with A empty,
        one vertex, or X or Y whole."""
        rng = rng_for(5302)
        seen = Counter()
        for k, cover, dim_cap in chain(square_cases(rng), strong_collapse_cases(rng)):
            parts = cover_square(k, cover, dim_cap)
            got = relative_profile(parts["total"], parts["union"], dim_cap - 1)
            total = fresh(k)
            want = relative_homology(total, cover_union(total, cover), "z", dim_cap - 1)
            assert got == want, (k, cover, dim_cap)
            seen["flag"] += k.is_flag
            seen["nonzero"] += any(got.betti.values()) or bool(got.torsion)
            seen["torsion"] += bool(got.torsion)
        assert seen["flag"] == 60 and seen["nonzero"] > 200 and seen["torsion"] > 20, seen


def rp2_and_suspension():
    """A projective plane wedged at vertex 0 with the suspension of another:
    integral torsion Z/2 in degrees 1 and 2."""
    suspended = [[v + 6 for v in f] for f in PROJECTIVE_PLANE]
    return Complex.from_facets(
        PROJECTIVE_PLANE + [f + [0] for f in suspended] + [f + [12] for f in suspended]
    )


def records_cases(rng, cap):
    """(complex, cover) pairs for one cap: random explicit and flag
    complexes, RP^2 wedges, and RP^2 wedged with a suspended RP^2, each
    under a random cover or with an empty intersection."""
    several = rp2_and_suspension()
    for i in range(16):
        kind = i % 4
        if kind == 0:
            k = random_complex(rng, max_vertices=8, max_facets=7, max_facet_size=5)
        elif kind == 1:
            k = random_flag(rng, max_vertices=8, edge_p=0.6, dim_cap=cap)
        else:
            k = rp2_wedge(rng) if kind == 2 else several
        vertices = list(k.vertices)
        if i // 4 % 2 and len(vertices) > 1:
            some = rng.sample(vertices, rng.randint(1, len(vertices) - 1))
            cover = Cover(some, set(vertices) - set(some))
        else:
            cover = random_cover(rng, k)
        yield k, cover


#: caps 1, 2 and 4, and 12, whose degrees 10 and 11 sort as text between 1 and 2
RECORD_CAPS = [1, 2, 4, 12]


class TestRecordsPath:
    """A verified report keeps a ``HomologyProfile`` per part and field and
    an ``InducedMap`` per field and degree, and builds their dicts only when
    read."""

    FIELDS = ("q", "z", "zp:2", "zp:3")
    #: the keys of the induced-map dicts reports have always carried
    INDUCED_KEYS = (
        "field", "degree", "rank", "dim_source", "dim_target", "injective", "surjective", "iso"
    )

    @pytest.mark.parametrize("cap", RECORD_CAPS)
    def test_reports_render_from_records_as_plain_json(self, cap):
        """The writer writes the profiles and induced maps from the records,
        and the text is plain json.dumps of the report's dicts."""
        rng = rng_for(5501 + cap)
        seen = Counter()
        for k, cover in records_cases(rng, cap):
            report = analyze(k, cover, dim_cap=cap, fields=self.FIELDS)
            assert set(report.records) == {"items", "profiles", "induced"}
            profiles = report.records["profiles"]
            text = render_json(report)
            assert set(report.records) == {"items", "profiles", "induced"}
            assert text == json.dumps(report.to_dict(), indent=2, sort_keys=True), (k, cover)
            seen["torsion"] += any(p["z"].torsion for p in profiles.values())
            seen["torsion in several degrees"] += any(
                len(p["z"].torsion) > 1 for p in profiles.values()
            )
            seen["empty intersection"] += profiles["a"]["q"].betti[-1] == 1
            seen["zp:2 differs from q"] += any(
                p["zp:2"].betti != p["q"].betti for p in profiles.values()
            )
            seen["degrees"] = len(profiles["x"]["q"].degrees)
        assert seen["empty intersection"] >= 4 and seen["degrees"] == cap + 1, seen
        if cap > 1:
            assert seen["torsion"] >= 4 and seen["zp:2 differs from q"] >= 4, seen
        if cap > 2:
            assert seen["torsion in several degrees"] >= 2, seen

    @pytest.mark.parametrize("cap", RECORD_CAPS)
    def test_lazy_dicts_match_the_records(self, cap):
        """The first read builds the dicts of ``homology(...).to_dict()`` and
        the eight-key induced dicts, caches them and drops the records."""
        rng = rng_for(5502 + cap)
        for k, cover in records_cases(rng, cap):
            report = analyze(k, cover, dim_cap=cap, fields=self.FIELDS)
            total = fresh(k)
            parts = {
                "x": total.restrict(cover.x),
                "y": total.restrict(cover.y),
                "a": total.restrict(cover.a),
                "union": cover_union(total, cover),
                "total": total,
            }
            profiles = report.profiles
            assert "profiles" not in report.records and report.profiles is profiles
            assert profiles == {
                name: {
                    coeffs: homology(part, coeffs, max_deg=cap - 1, reduced=True).to_dict()
                    for coeffs in self.FIELDS
                }
                for name, part in parts.items()
            }, (k, cover)
            induced = report.induced
            assert "induced" not in report.records and report.induced is induced
            assert induced == [
                {key: getattr(rec, key) for key in self.INDUCED_KEYS}
                for coeffs in self.FIELDS
                if coeffs != "z"
                for rec in (
                    induced_map(parts["union"], total, degree, coeffs) for degree in range(cap)
                )
            ], (k, cover)

    @pytest.mark.parametrize("cap", RECORD_CAPS)
    def test_kept_fields_read_as_their_parsed_text(self, cap):
        """On the cases of the render test, each kept field reads as the
        same field of the report its JSON parses to, key order included."""
        for k, cover in records_cases(rng_for(5501 + cap), cap):
            assert_views_read_as_parsed(analyze(k, cover, dim_cap=cap, fields=self.FIELDS))

    @pytest.mark.parametrize("field", ["profiles", "induced"])
    def test_assigning_a_field_drops_its_records(self, field):
        """Assigning ``profiles`` or ``induced`` drops that field's records
        alone, and the writer follows the new value."""
        k = rp2_and_suspension()
        cover = Cover(range(9), [0, *range(6, 13)])
        assert analyze(k, cover, dim_cap=4, verify=False).records.keys() == {"items"}
        report = analyze(k, cover, dim_cap=4, fields=self.FIELDS)
        other, value = {
            "profiles": ("induced", {"x": {"q": {"betti": {"-1": 0}}}}),
            "induced": ("profiles", [{"field": "q"}]),
        }[field]
        assert report.records[field] is not None
        setattr(report, field, value)
        assert getattr(report, field) is value and field not in report.records
        assert report.records.keys() == {"items", other}
        text = render_json(report)
        assert json.loads(text)[field] == value
        assert text == json.dumps(report.to_dict(), indent=2, sort_keys=True)


def with_apex(k):
    """A flag complex with one more vertex, joined to the closed star of the
    first vertex: the cone is glued along a cone, so the homotopy type is
    kept, and every new edge but one is dominated by the first vertex."""
    first, apex = k.vertices[0], k.vertices[-1] + 1
    star = {first} | {v for e in k.edges() if first in e for v in e}
    return Complex.flag([*k.vertices, apex], k.edges() + [(v, apex) for v in star], k.dim_cap)


def collapse_cases(rng):
    """(flag complex, cover, dim_cap) triples: the barycentric subdivisions
    of RP^2 (H_1 = Z/2) and of the dunce hat, which have no dominated edge,
    and each with an apex, whose edges collapse; the circles n = 12 to 60 at
    r = n/4; and random flag graphs.  Each subdivision and graph is taken
    under every cover shape."""
    for facets in (PROJECTIVE_PLANE, dunce_hat()):
        for dim_cap in (2, 3):
            sd = barycentric_flag(facets, dim_cap)
            for k in (sd, with_apex(sd)):
                for cover in cover_shapes(rng, k):
                    yield k, cover, dim_cap
    for n in range(12, 61, 6):
        mc = circle_cover(n)
        yield vietoris_rips(mc.space, mc.r, 3), Cover(mc.x, mc.y), 3
    for _ in range(30):
        k = random_flag(rng, max_vertices=11, edge_p=rng.choice((0.5, 0.7, 0.9)),
                        dim_cap=rng.randint(1, 4))
        for cover in cover_shapes(rng, k):
            yield k, cover, k.dim_cap


class TestCollapsedSquare:
    FIELDS = ("q", "z", "zp:2", "zp:3")

    def test_matches_fresh_uncollapsed_parts(self):
        """The profiles over q, z, zp:2 and zp:3 and the induced records that
        verification reads off the edge-collapsed square equal those of the
        uncollapsed parts, each built fresh and read on its own."""
        rng = rng_for(5401)
        seen = Counter()
        for k, cover, dim_cap in collapse_cases(rng):
            profiles, induced = analyzer._verification(
                cover_square(k, cover, dim_cap), self.FIELDS, dim_cap - 1
            )
            total = fresh(k)
            parts = {
                "x": total.restrict(cover.x),
                "y": total.restrict(cover.y),
                "a": total.restrict(cover.a),
                "union": cover_union(total, cover),
                "total": total,
            }
            max_deg = dim_cap - 1
            want = {
                name: {
                    coeffs: homology(part, coeffs, max_deg=max_deg, reduced=True)
                    for coeffs in self.FIELDS
                }
                for name, part in parts.items()
            }
            assert profiles == want, (k, cover)
            want = [
                induced_map(parts["union"], total, degree, coeffs)
                for coeffs in self.FIELDS
                if coeffs != "z"
                for degree in range(max_deg + 1)
            ]
            assert induced == want, (k, cover)
            removed = collapse_edges(k, cover)[1]
            seen["cases"] += 1
            seen["collapsed"] += bool(removed)
            seen["z/2 collapsed"] += bool(removed) and any(
                2 in t for p in profiles.values() for t in p["z"].torsion.values()
            )
        assert seen["cases"] == 161 and seen["collapsed"] > 100, seen
        assert seen["z/2 collapsed"] >= 8, seen

    def test_parts_are_explicit_cap_skeletons_of_the_collapsed_parts(self):
        """Every part of a flag square, in the order x, y, a, union, total, is
        an explicit complex holding its levels 0..d, for each square cap d up
        to the complex's: the d-skeleton of the edge-collapsed total's
        restriction to its side, of the oracle's cover union of it, or of the
        collapsed total."""
        rng = rng_for(5402)
        seen = Counter()
        for k, cover, dim_cap in collapse_cases(rng):
            collapsed = collapse_edges(k, cover)[0]
            want = {name: collapsed.restrict(getattr(cover, name)) for name in "xya"}
            want["union"] = cover_union(collapsed, cover)
            want["total"] = collapsed
            for d in range(1, dim_cap + 1):
                parts = cover_square(k, cover, d)
                assert list(parts) == list(want)
                for name, part in parts.items():
                    assert not part.is_flag, name
                    levels, complete = part._memo["levels"]
                    assert complete and len(levels) == d + 1, (name, len(levels))
                    assert [s for level in levels for s in level] == part.simplices()
                    assert part == skeleton(want[name], d), (k, cover, d, name)
                seen["squares"] += 1
                seen["cut"] += collapsed.has_simplex_of_dim(d + 1)
        assert seen["squares"] == 403 and seen["cut"] > 30, seen

    def test_the_60_point_circle_verifies_as_a_circle(self):
        """VR(C_60; 15) is a circle (r/n < 1/3, Adamaszek-Adams); verified at
        cap 3 on its collapse, the total reads b_1 = 1 and nothing else."""
        report = analyzer.analyze_metric(circle_cover(60), dim_cap=3, fields=["q"])
        betti = report.profiles["total"]["q"]["betti"]
        assert betti == {"-1": 0, "0": 0, "1": 1, "2": 0}
        assert report.soundness["ok"]


def strong_collapse_cases(rng):
    """(explicit complex, cover, dim_cap) triples: random facet complexes,
    RP^2 wedges and RP^2 wedged with a suspended RP^2, each under a cover
    with an empty A, one with a single vertex in A, and a random one."""
    several = rp2_and_suspension()
    for i in range(90):
        kind = i % 3
        if kind == 0:
            k = random_complex(rng, max_vertices=12, max_facets=10, max_facet_size=5)
        else:
            k = rp2_wedge(rng) if kind == 1 else several
        vertices = list(k.vertices)
        if len(vertices) < 3:
            continue
        hinge = rng.choice(vertices)
        rest = [v for v in vertices if v != hinge]
        some = set(rng.sample(rest, rng.randint(1, len(rest) - 1)))
        covers = [Cover(some, set(vertices) - some), Cover(some | {hinge}, set(rest) - some | {hinge})]
        covers.append(random_cover(rng, k))
        for cover in covers:
            yield k, cover, rng.randint(2, 4)


class TestStrongCollapsedSquare:
    FIELDS = ("q", "z", "zp:2", "zp:3")

    def test_matches_fresh_uncollapsed_parts(self):
        """The profiles over q, z, zp:2 and zp:3 and the induced records that
        verification reads off the strong-collapsed explicit square equal
        those of the uncollapsed parts, each built fresh and read on its
        own, under covers whose A has no vertex, one, or more."""
        rng = rng_for(5501)
        seen = Counter()
        for k, cover, dim_cap in strong_collapse_cases(rng):
            profiles, induced = analyzer._verification(
                cover_square(k, cover, dim_cap), self.FIELDS, dim_cap - 1
            )
            total = fresh(k)
            parts = {
                "x": total.restrict(cover.x),
                "y": total.restrict(cover.y),
                "a": total.restrict(cover.a),
                "union": cover_union(total, cover),
                "total": total,
            }
            max_deg = dim_cap - 1
            want = {
                name: {
                    coeffs: homology(part, coeffs, max_deg=max_deg, reduced=True)
                    for coeffs in self.FIELDS
                }
                for name, part in parts.items()
            }
            assert profiles == want, (k, cover)
            want = [
                induced_map(parts["union"], total, degree, coeffs)
                for coeffs in self.FIELDS
                if coeffs != "z"
                for degree in range(max_deg + 1)
            ]
            assert induced == want, (k, cover)
            removed = collapse_vertices(k, cover)[1]
            seen["cases"] += 1
            seen[f"|A| {min(len(cover.a), 2)}"] += bool(removed)
            seen["z/2 collapsed"] += bool(removed) and any(
                2 in t for p in profiles.values() for t in p["z"].torsion.values()
            )
        assert seen["cases"] > 250, seen
        assert min(seen[f"|A| {n}"] for n in range(3)) > 20, seen
        assert seen["z/2 collapsed"] > 10, seen

    def test_each_deletion_is_a_strong_collapse_in_every_part(self):
        """Each (v, w) of the collapse has w dominate v in every part that
        holds v at its turn; the parts of the collapsed square are the
        restrictions of what is left, and none loses its last vertex."""
        rng = rng_for(5502)
        deleted = 0
        for k, cover, dim_cap in strong_collapse_cases(rng):
            collapsed, dominations = collapse_vertices(k, cover)
            left = replay_vertex_collapse(k, cover.x, cover.y, dominations)
            assert set(collapsed.simplices()) == left
            # and none is left: no vertex has a w in every facet through it
            facets = [set(s) for s in left if not any(set(s) < set(t) for t in left)]
            for v in collapsed.vertices:
                side = cover.a if v in cover.a else cover.x if v in cover.x else cover.y
                common = set.intersection(*(f for f in facets if v in f))
                assert not (common - {v}) & side, (v, k, cover)
            parts = cover_square(k, cover, dim_cap)
            for name, side in (("x", cover.x), ("y", cover.y), ("a", cover.a)):
                assert parts[name] == collapsed.restrict(side)
                assert parts[name].is_empty == (not side), (name, k, cover)
            assert parts["union"] == cover_union(collapsed, cover)
            assert parts["total"] == collapsed
            deleted += len(dominations)
        assert deleted > 400, deleted

    def test_complexes_not_built_from_facets_collapse_too(self):
        """A complex from ``to_explicit``, ``restrict`` or ``subcomplex`` has no
        facets kept from its input: it finds them on first use and collapses
        as the facet-built complex with the same simplices does."""
        rng = rng_for(5503)
        collapsed = 0
        for k, cover, _ in strong_collapse_cases(rng):
            copies = [k.restrict(k.vertices), k.subcomplex(k.content_key())]
            flag = Complex.flag(k.vertices, k.edges(), 3)
            copies.append(flag.to_explicit())
            for copy in copies:
                assert "facets" not in copy._memo
                built = Complex.from_facets(copy.simplices())
                assert collapse_vertices(copy, cover) == collapse_vertices(built, cover)
                assert facet_masks(copy) == built._memo["facets"]
                collapsed += bool(collapse_vertices(copy, cover)[1])
        assert collapsed > 300, collapsed

    def test_a_spent_budget_returns_an_exact_prefix(self, monkeypatch):
        """Budgets of 0 to 40 facets read: the collapse stops at a prefix of
        the unbounded one, and each deletion made still replays."""
        rng = rng_for(5504)
        stopped = 0
        for k, cover, _ in strong_collapse_cases(rng):
            dominations = collapse_vertices(k, cover)[1]
            monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", rng.randint(0, 40))
            partial, prefix = collapse_vertices(k, cover)
            monkeypatch.undo()
            assert prefix == dominations[: len(prefix)]
            assert set(partial.simplices()) == replay_vertex_collapse(k, cover.x, cover.y, prefix)
            stopped += 0 < len(prefix) < len(dominations)
        assert stopped > 20, stopped

    def test_a_cone_collapses_to_its_apex_in_every_part(self):
        """The cone on RP^2 with its apex in A and everything else split
        between the sides: it collapses to the apex, the first three
        vertices onto the apex itself, as RP^2 has no dominated vertex."""
        cone = Complex.from_facets([f + [9] for f in PROJECTIVE_PLANE])
        cover = Cover({0, 1, 2, 9}, {3, 4, 5, 9})
        collapsed, dominations = collapse_vertices(cone, cover)
        assert [v for v, _ in dominations] == list(range(6))
        assert dominations[:3] == [(0, 9), (1, 9), (2, 9)]
        assert collapsed.vertices == (9,)
        assert replay_vertex_collapse(cone, cover.x, cover.y, dominations) == {(9,)}


class TestReductionCount:
    FIELDS = ("q", "z", "zp:2", "zp:3")

    @staticmethod
    def rp2_wedge():
        """Ten random facets on 12 vertices with an RP^2 wedged on at
        vertex 0, and a random cover of them."""
        rng = rng_for(5201)
        facets = [rng.sample(range(12), rng.randint(2, 5)) for _ in range(10)]
        facets += [[v and 20 + v for v in f] for f in PROJECTIVE_PLANE]
        return facets, random_cover(rng, Complex.from_facets(facets))

    def test_each_boundary_matrix_is_reduced_once_per_report(self, monkeypatch):
        """Four fields of verification read every boundary matrix of the five
        cover-square complexes, and d(total, union), off one reduction of the
        total and one of Y per degree: at most 2 * dim_cap reductions over
        the run without verification."""
        facets, cover = self.rp2_wedge()
        fields = self.FIELDS
        dim_cap = 4
        calls = self.counted_reductions(monkeypatch)
        counts = {}
        for verify in (False, True):
            calls.clear()
            k = Complex.from_facets(facets)
            report = analyzer.analyze(k, cover, dim_cap, fields, verify=verify)
            counts[verify] = len(calls)
        assert report.soundness["ok"] and len(report.induced) == 3 * dim_cap
        assert report.profiles["total"]["z"]["torsion"] == {"1": [2]}
        assert 0 < counts[True] - counts[False] <= 2 * dim_cap, counts

    def test_the_square_comes_back_reduced(self, monkeypatch):
        """``cover_square`` returns every part with d_1..d_dim_cap in its
        memo, and the total also with d(total, union), so the ``homology``
        and ``induced_map`` calls of verification, and the soundness gate's
        reads, reduce nothing more."""
        facets, cover = self.rp2_wedge()
        dim_cap = 4
        calls = self.counted_reductions(monkeypatch)
        parts = cover_square(Complex.from_facets(facets), cover, dim_cap)
        assert len(calls) == 2 * dim_cap
        calls.clear()
        profiles, induced = analyzer._verification(parts, self.FIELDS, dim_cap - 1)
        assert analyzer._soundness([], parts["union"], parts["total"], dim_cap - 1) == []
        assert calls == []
        degrees = range(1, dim_cap + 1)
        for name, part in parts.items():
            assert all(n in part._memo for n in degrees), name
        union = parts["union"]
        assert all(("relative", id(union), n) in parts["total"]._memo for n in degrees)
        assert profiles["total"]["z"].torsion == {1: (2,)} and len(induced) == 3 * dim_cap

    @staticmethod
    def counted_reductions(monkeypatch):
        calls = []
        real = linalg.reduce_columns
        monkeypatch.setattr(
            linalg, "reduce_columns", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )
        return calls

    @staticmethod
    def fresh_pair():
        rp2 = Complex.from_facets(PROJECTIVE_PLANE)
        return rp2, skeleton(rp2, 1)

    @pytest.mark.parametrize("degree, reductions", [(0, 1), (1, 2), (2, 2)])
    def test_a_standalone_induced_map_reduces_only_the_degrees_it_reads(
        self, monkeypatch, degree, reductions
    ):
        """d_degree and d_(degree+1) of both complexes, and d(K, L), come
        off one reduction of the pair per degree; the augmentation d_0 is
        not reduced."""
        calls = self.counted_reductions(monkeypatch)
        rp2, edges = self.fresh_pair()
        rec = induced_map(edges, rp2, degree, "q")
        assert len(calls) == reductions
        expected = {0: (1, 1, 1), 1: (0, 10, 0), 2: (0, 0, 0)}[degree]
        assert (rec.rank, rec.dim_source, rec.dim_target) == expected

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_an_induced_map_after_both_profiles_reduces_only_the_pair(
        self, monkeypatch, degree
    ):
        """Once both complexes hold d_1..d_3, the map of a degree needs only
        d_(degree+1)(K, L): one reduction."""
        rp2, edges = self.fresh_pair()
        for complex_ in (rp2, edges):
            homology(complex_, "q", max_deg=2)
        calls = self.counted_reductions(monkeypatch)
        rec = induced_map(edges, rp2, degree, "q")
        assert len(calls) == 1
        expected = {0: (1, 1, 1), 1: (0, 10, 0), 2: (0, 0, 0)}[degree]
        assert (rec.rank, rec.dim_source, rec.dim_target) == expected

    def test_each_degree_is_reduced_once_per_call(self, monkeypatch):
        """d_1..d_3 once each: no degree is reduced again for the next, nor
        for a second field."""
        calls = self.counted_reductions(monkeypatch)
        rp2, _ = self.fresh_pair()
        profiles = []
        for coeffs in ("z", "q"):
            profiles.append(homology(rp2, coeffs, max_deg=2))
            assert len(calls) == 3
        assert profiles[0].torsion == {1: (2,)}

    def test_simplex_levels_are_padded_once_per_complex(self, monkeypatch):
        """A report reads every degree up to its cap, each induced map on its
        own: the bucket lists it is handed stay linear in the cap (one list
        per complex of the cover square), not one fresh list per call.  The
        highest cap not refused has 19 induced maps over q."""
        real = Complex.levels
        dim_cap = MAX_DIM_CAP
        bound = 6 * (dim_cap + 1)
        handed = {}  # id -> list, held so that no id is reused

        def check():
            total = sum(map(len, handed.values()))
            assert total <= bound, f"{len(handed)} bucket lists, {total} levels"

        def counted(complex_, need):
            levels = real(complex_, need)
            if id(levels) not in handed:
                handed[id(levels)] = levels
                check()
            return levels

        monkeypatch.setattr(Complex, "levels", counted)
        space = DistanceSpace(["a", "b"], [[0, 1], [1, 0]])
        mc = MetricCover(space, ["a"], ["b"], Fraction(1))
        report = analyzer.analyze_metric(mc, dim_cap=dim_cap, fields=["q", "z"], verify=True)
        check()
        assert report.soundness["ok"] and len(report.induced) == dim_cap
        assert len(handed) == 5


class TestFieldOption:
    @pytest.mark.parametrize("field", ["zp:4", "zp:1", "zp:0", "zp:x", "w", "zp:02"])
    @pytest.mark.parametrize("command", ["homology", "decompose"])
    def test_bad_field_is_a_usage_error(self, tmp_path, capsys, command, field):
        argv = write_facet_case(tmp_path, [[1, 2], [2, 3], [1, 3]], [1, 2], [2, 3])
        if command == "homology":
            argv = argv[:1]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *argv, "--field", field])
        assert exc.value.code == 2
        assert "bad field" in capsys.readouterr().err

    def test_prime_field_accepted(self, tmp_path, capsys):
        argv = write_facet_case(tmp_path, [[1, 2], [2, 3], [1, 3]], [1, 2], [2, 3])
        assert cli.main(["homology", argv[0], "--field", "zp:7", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["zp:7"]["betti"]["1"] == 1

    @pytest.mark.parametrize(
        "field",
        ["zp:" + "7" * 402, "zp:1000000000000000003", "zp:" + "9" * 5000],
        ids=["402-digits", "19-digits", "5000-digits"],
    )
    def test_huge_prime_refused_quickly(self, tmp_path, capsys, field):
        argv = write_facet_case(tmp_path, [[1, 2], [2, 3], [1, 3]], [1, 2], [2, 3])
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["homology", argv[0], "--field", field])
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bad field" in err and "2**31" in err

    def test_largest_prime_below_the_limit_accepted(self, tmp_path, capsys):
        argv = write_facet_case(tmp_path, [[1, 2], [2, 3], [1, 3]], [1, 2], [2, 3])
        argv = ["homology", argv[0], "--field", "zp:2147483647", "--format", "json"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["zp:2147483647"]["betti"]["1"] == 1


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "document,cover",
        [
            ({"points": ["a", "b"], "distances": 5}, {"X": ["a"], "Y": ["b"]}),
            ({"points": ["a", "b"], "distances": [[0, 1], 5]}, {"X": ["a"], "Y": ["b"]}),
            ({"facets": [5]}, {"X": [1], "Y": [1]}),
            ({"facets": [[1, 2], [2, [3]]]}, {"X": [1, 2], "Y": [2]}),
            ({"facets": [[1, 2], [2, 3], [1, 3]]}, {"X": 5, "Y": [2, 3]}),
            ({"points": ["a", "b"], "distances": [[0, 1], [1, 0]]}, {"X": "ab", "Y": ["b"]}),
            ({"points": "ab", "distances": [[0, 1], [1, 0]]}, {"X": ["a"], "Y": ["b"]}),
            ({"points": ["a", "b"], "distances": ["01", "10"]}, {"X": ["a"], "Y": ["b"]}),
            ({"facets": [{"1": 0, "2": 0}]}, {"X": ["1"], "Y": ["2"]}),
            (
                {"points": ["a", "b"], "distances": [[False, True], [True, False]]},
                {"X": ["a"], "Y": ["b"]},
            ),
        ],
        ids=[
            "distances-a-number",
            "row-a-number",
            "facet-a-number",
            "vertex-a-list",
            "cover-set-a-number",
            "cover-set-a-string",
            "points-a-string",
            "rows-strings",
            "facet-a-dict",
            "booleans-as-distances",
        ],
    )
    def test_invalid_input_exits_two(self, tmp_path, capsys, document, cover):
        (tmp_path / "input.json").write_text(json.dumps(document))
        (tmp_path / "cover.json").write_text(json.dumps(cover))
        paths = [str(tmp_path / "input.json"), "--cover", str(tmp_path / "cover.json")]
        with pytest.raises(InvalidInput):
            load_input(paths[0])
            load_cover(paths[2])
        assert cli.main(["decompose", *paths, "-r", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
