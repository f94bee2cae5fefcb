"""The verification layer: independent theorem checks, the soundness gate,
and the decompose path's freedom from rational elimination; the command
line's refusal of bad fields and malformed documents."""

import json
import time

import pytest

from ripsdecomp import (
    Complex,
    CriterionVerdict,
    InvalidInput,
    analyzer,
    check_cofiber_shift,
    cli,
    linalg,
    mv_check,
)
from ripsdecomp.corpus import case_by_name, space_for
from ripsdecomp.io import load_cover, load_input

from conftest import (
    PROJECTIVE_PLANE,
    random_complex,
    random_cover,
    random_flag,
    rng_for,
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


class TestSoundnessGate:
    def test_fires_on_a_false_isomorphism_claim(self):
        verdict = CriterionVerdict(
            "no-cross-simplices", analyzer.HOLDS, claim={"iso_upto": "all"}
        )
        induced = [
            {
                "field": "q",
                "degree": 1,
                "rank": 0,
                "dim_source": 1,
                "dim_target": 0,
                "injective": False,
                "surjective": True,
                "iso": False,
            }
        ]
        failures = analyzer._soundness([verdict], None, induced, ["q"], 3)
        assert failures and "degree 1 over q" in failures[0]

    def test_decompose_exits_one_on_a_false_claim(self, tmp_path, monkeypatch, capsys):
        argv = ["decompose", *write_metric_case(tmp_path, case_by_name("five-pt-gluing"))]
        argv += ["--format", "json"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        monkeypatch.setitem(
            analyzer._CRITERION_FUNCS,
            "no-cross-simplices",
            lambda ctx: CriterionVerdict(
                "no-cross-simplices", analyzer.HOLDS, claim={"iso_upto": "all"}
            ),
        )
        assert cli.main(argv) == 1
        failures = json.loads(capsys.readouterr().out)["soundness"]["failures"]
        assert failures and all(f.startswith("no-cross-simplices:") for f in failures)


class TestNoRationalElimination:
    @pytest.fixture
    def no_dense_field_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense rational elimination on the decompose path")

        for name in ("rank", "Span", "kernel_basis", "solve_in_span", "_rref"):
            monkeypatch.setattr(linalg, name, refuse)

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


class TestFieldOption:
    @pytest.mark.parametrize("field", ["zp:4", "zp:1", "zp:0", "zp:x", "w"])
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
