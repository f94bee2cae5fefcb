"""The command line: every subcommand's exit code and output shape, one
parser for the whole process, and the JSON round trip of reports."""

import copy
import json
import math
import os
import subprocess
import sys
from collections import Counter

import pytest

from ripsdecomp import (
    Cover,
    InvalidInput,
    analyze,
    analyze_metric,
    analyzer,
    cli,
    complexes,
    corpus,
    homology,
    metric,
    vietoris_rips,
)
from ripsdecomp.complexes import MAX_DIM_CAP, SIMPLEX_BUDGET
from ripsdecomp.corpus import CASES, compare, run_case, space_for
from ripsdecomp.io import InputDocument, _read_text, load_cover, load_input
from ripsdecomp.reporting import parse_report, render_json

from conftest import (
    PROJECTIVE_PLANE,
    case_by_name,
    circle_cover,
    cliques_oracle,
    random_complex,
    random_cover,
    random_metric_cover,
    rng_for,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def write_json(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def write_circle(tmp_path, n):
    """Point and cover files of ``circle_cover(n)``, and its radius."""
    mc = circle_cover(n)
    points = write_json(
        tmp_path,
        "points.json",
        {
            "points": list(mc.space.labels),
            "distances": [[str(v) for v in row] for row in mc.space.matrix],
        },
    )
    cover = write_json(
        tmp_path,
        "cover.json",
        {"X": mc.labels_of(sorted(mc.x)), "Y": mc.labels_of(sorted(mc.y))},
    )
    return points, cover, str(mc.r)


@pytest.fixture
def circle_files(tmp_path):
    return write_circle(tmp_path, 12)


@pytest.fixture
def facet_file(tmp_path):
    return write_json(tmp_path, "facets.json", {"facets": [[1, 2, 3], [3, 4], [4, 5], [5, 3]]})


class TestVr:
    @pytest.mark.parametrize("max_dim", [0, 1, 3])
    def test_counts_match_the_complex(self, capsys, circle_files, max_dim):
        points, _, r = circle_files
        argv = ["vr", points, "-r", r, "--max-dim", str(max_dim), "--format", "json"]
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["counts_by_dim"]
        k = vietoris_rips(load_input(points).space, r, max_dim)
        expected = Counter(str(len(s) - 1) for s in k.simplices())
        assert out["counts_by_dim"] == dict(expected)
        assert list(out["counts_by_dim"]) == [str(d) for d in range(max_dim + 1)]

    def test_text_output(self, capsys, circle_files):
        points, _, r = circle_files
        assert cli.main(["vr", points, "-r", r, "--max-dim", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"Vietoris-Rips complex at radius {r}:"
        assert [line.split(":")[0].strip() for line in lines[1:]] == ["dim 0", "dim 1", "dim 2"]

    def test_an_empty_space_has_no_simplices(self, capsys, tmp_path):
        points = write_json(tmp_path, "empty.json", {"points": [], "distances": []})
        assert cli.main(["vr", points, "-r", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "Vietoris-Rips complex at radius 1:",
            "  (empty)",
        ]
        assert cli.main(["vr", points, "-r", "1", "--format", "json"]) == 0
        assert capsys.readouterr().out == '{"counts_by_dim": {}}\n'

    def test_needs_a_distance_input_and_a_radius(self, capsys, circle_files, facet_file):
        assert cli.main(["vr", facet_file]) == 2
        assert cli.main(["vr", circle_files[0]]) == 2
        err = capsys.readouterr().err
        assert "vr needs a distance input" in err and "needs --radius" in err


class TestFacetLabels:
    @pytest.mark.parametrize(
        "facets, named",
        [([[1, True, 2]], "1 and true"), ([[1, 1.0]], "1 and 1.0"), ([[1, "1"], ["1", 2]], '1 and "1"')],
        ids=["true-equals-1", "float-equals-int", "int-prints-as-str"],
    )
    def test_labels_that_cannot_be_told_apart_are_refused(self, capsys, tmp_path, facets, named):
        path = write_json(tmp_path, "facets.json", {"facets": facets})
        cover = write_json(tmp_path, "cover.json", {"X": [1], "Y": [2]})
        assert cli.main(["decompose", path, "--cover", cover]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: facet labels {named} cannot be told apart\n"


class TestNonScalarLabels:
    """A point label or cover entry that is not a JSON string or number is
    refused, as a facet's vertex label is: exit 2, nothing on stdout.  A
    cover entry ``[1]`` would otherwise match a point named "[1]"."""

    @staticmethod
    def refused(capsys, argv, message):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "points",
        [["a", [1]], ["a", {"a": 1}], ["a", None], [[1], {"a": 1}, None]],
        ids=["list", "object", "null", "all-three"],
    )
    def test_a_point_label_that_is_not_a_string_or_number(self, capsys, tmp_path, points):
        n = len(points)
        document = {"points": points, "distances": [[int(i != j) for j in range(n)] for i in range(n)]}
        path = write_json(tmp_path, "points.json", document)
        cover = write_json(tmp_path, "cover.json", {"X": ["a"], "Y": ["a"]})
        message = "'points' must be a list of labels and 'distances' a list of lists"
        for argv in (
            ["vr", path, "-r", "1"],
            ["homology", path, "-r", "1"],
            ["decompose", path, "--cover", cover, "-r", "1"],
        ):
            self.refused(capsys, argv, message)

    @pytest.mark.parametrize("entry", [[1], {"a": 1}, None])
    def test_a_cover_entry_that_is_not_a_string_or_number(self, capsys, tmp_path, entry):
        path = write_json(tmp_path, "points.json", {"points": ["[1]", "b"], "distances": [[0, 1], [1, 0]]})
        facets = write_json(tmp_path, "facets.json", {"facets": [["[1]", "b"]]})
        cover = write_json(tmp_path, "cover.json", {"X": [entry], "Y": ["b"]})
        message = "cover JSON needs lists 'X' and 'Y' of point labels"
        for source in (path, facets):
            self.refused(capsys, ["decompose", source, "--cover", cover, "-r", "1"], message)

    def test_scalar_labels_still_load(self, capsys, tmp_path):
        distances = [[int(i != j) for j in range(4)] for i in range(4)]
        path = write_json(tmp_path, "points.json", {"points": ["[1]", 2, 2.5, True], "distances": distances})
        assert load_input(path).space.labels == ("[1]", "2", "2.5", "True")
        cover = write_json(tmp_path, "cover.json", {"X": ["[1]", 2, 2.5], "Y": [2.5, True]})
        assert cli.main(["decompose", path, "--cover", cover, "-r", "1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["soundness"]["ok"]


class TestInputDocument:
    def test_neither_distances_nor_facets_refused(self):
        with pytest.raises(InvalidInput, match="exactly one of distances / facets must be present"):
            InputDocument()


class TestDecomposeInputErrors:
    """``decompose`` refuses these inputs: exit 2, nothing on stdout, and one
    error line on stderr."""

    @pytest.mark.parametrize(
        "case, message",
        [
            ("no radius", "error: distance input needs --radius"),
            ("missing file", "error: cannot read "),
            ("cap 0", "error: the dimension cap must be at least 1"),
        ],
    )
    def test_exits_2(self, capsys, tmp_path, circle_files, case, message):
        points, cover, r = circle_files
        argv = {
            "no radius": ["decompose", points, "--cover", cover],
            "missing file": ["decompose", str(tmp_path / "missing.json"), "--cover", cover, "-r", r],
            "cap 0": ["decompose", points, "--cover", cover, "-r", r, "--max-dim", "0"],
        }[case]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1


class TestCoverErrors:
    """A cover that a facet file cannot take exits 2 with one message and
    nothing on stdout."""

    @staticmethod
    def run(tmp_path, cover):
        facets = write_json(tmp_path, "facets.json", {"facets": [[0, 1, 2, 3]]})
        path = write_json(tmp_path, "cover.json", cover)
        return cli.main(["decompose", facets, "--cover", path, "--format", "json"])

    def refused(self, capsys, tmp_path, cover):
        assert self.run(tmp_path, cover) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_each_missing_label_is_named_once_in_first_seen_order(self, capsys, tmp_path):
        err = self.refused(capsys, tmp_path, {"X": ["a", "b"], "Y": ["b", "c"]})
        assert err == "error: cover labels not in the input: ['a', 'b', 'c']\n"

    def test_a_cover_that_misses_a_vertex_is_refused(self, capsys, tmp_path):
        err = self.refused(capsys, tmp_path, {"X": ["0", "1"], "Y": ["1", "2"]})
        assert err == "error: cover must use every vertex of the complex\n"

    def test_a_report_validates_its_cover_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        validate = Cover.validate

        def counted(cover, complex_):
            calls.append(cover)
            return validate(cover, complex_)

        monkeypatch.setattr(Cover, "validate", counted)
        assert self.run(tmp_path, {"X": ["0", "1", "3"], "Y": ["1", "2", "3"]}) == 0
        assert json.loads(capsys.readouterr().out)["soundness"]["ok"]
        assert len(calls) == 1


class TestUndecodableFiles:
    """A file that is not UTF-8 text is an input error (exit 2), not a
    traceback with the exit code of a soundness failure."""

    BAD = b"\xff\xfe\x00bad"

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("bad.json", ["homology", "{bad}"]),
            ("bad.csv", ["homology", "{bad}", "-r", "1"]),
            ("bad.json", ["decompose", "{facets}", "--cover", "{bad}", "-r", "1"]),
        ],
        ids=["json-input", "csv-input", "cover-file"],
    )
    def test_exits_with_an_input_error(self, capsys, tmp_path, facet_file, name, argv):
        bad = tmp_path / name
        bad.write_bytes(self.BAD)
        argv = [a.format(bad=bad, facets=facet_file) for a in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: not UTF-8 text")


class TestUnreadableJson:
    """JSON that Python's decoder refuses, an integer literal past its digit
    limit or arrays nested past its recursion limit, is an input error that
    names the file (exit 2), not a traceback."""

    DOCUMENTS = {
        "long-integer": '{"points": ["a", "b"], "distances": [[0, %s], [1, 0]]}' % ("1" * 5000),
        "deep-arrays": '{"points": ["a", "b"], "distances": %s}' % ("[" * 100000 + "]" * 100000),
    }

    @pytest.mark.parametrize("document", list(DOCUMENTS))
    @pytest.mark.parametrize(
        "argv",
        [["vr", "{bad}", "-r", "1"], ["decompose", "{facets}", "--cover", "{bad}", "-r", "1"]],
        ids=["input-file", "cover-file"],
    )
    def test_exits_with_an_input_error(self, capsys, tmp_path, facet_file, document, argv):
        bad = tmp_path / "bad.json"
        bad.write_text(self.DOCUMENTS[document])
        argv = [a.format(bad=bad, facets=facet_file) for a in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ")


class TestOutOfRangeDistances:
    def test_negative_infinity_exits_2(self, capsys, tmp_path):
        inf = -math.inf
        points = write_json(
            tmp_path, "points.json",
            {"points": ["a", "b", "c"], "distances": [[0, inf, 1], [inf, 0, 1], [1, 1, 0]]},
        )
        assert "-Infinity" in (tmp_path / "points.json").read_text()
        assert cli.main(["vr", points, "-r", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: negative distance -inf\n"

    def test_a_radius_with_a_huge_exponent_exits_2(self, capsys, circle_files):
        assert cli.main(["vr", circle_files[0], "-r", "1e999999999"]) == 2
        assert "exponent" in capsys.readouterr().err


class TestSimplexBudget:
    @pytest.mark.parametrize("command", ["vr", "decompose"])
    def test_a_dense_distance_file_past_the_budget_exits_2(self, capsys, tmp_path, command):
        """200 points at mutual distance 1, radius 1, cap 4, split into two
        disjoint halves: the clique walk is refused after the edges, with
        nothing on stdout."""
        n = 200
        labels = [f"p{i}" for i in range(n)]
        points = write_json(
            tmp_path, "dense.json",
            {"points": labels, "distances": [[int(i != j) for j in range(n)] for i in range(n)]},
        )
        cover = write_json(tmp_path, "cover.json", {"X": labels[:100], "Y": labels[100:]})
        argv = ["vr", points] if command == "vr" else ["decompose", points, "--cover", cover]
        assert cli.main([*argv, "-r", "1", "--max-dim", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the cliques through dimension 2 pass the budget of 1000000 simplices\n"
        )


    @staticmethod
    def dense_file(tmp_path, n):
        """n points at mutual distance 1, and their labels."""
        labels = [f"p{i}" for i in range(n)]
        points = write_json(
            tmp_path, "dense.json",
            {"points": labels, "distances": [[int(i != j) for j in range(n)] for i in range(n)]},
        )
        return points, labels

    def test_a_refused_walk_builds_no_metric_fact(self, capsys, monkeypatch, tmp_path):
        """X the first 120 and Y the last 120 of 200 points at mutual
        distance 1: the cross-clique walk is refused before the strong
        simplex assumption is checked."""
        calls = []
        real = metric.check_strong_simplex_assumption
        monkeypatch.setattr(
            metric, "check_strong_simplex_assumption",
            lambda *a, **kw: calls.append(1) or real(*a, **kw),
        )
        points, labels = self.dense_file(tmp_path, 200)
        cover = write_json(tmp_path, "cover.json", {"X": labels[:120], "Y": labels[80:]})
        argv = ["decompose", points, "--cover", cover, "-r", "1", "--max-dim", "4"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "budget" in captured.err
        assert calls == []

    def test_an_all_shared_dense_file_verifies_on_its_collapse(self, capsys, tmp_path):
        """60 points at mutual distance 1 with X = Y = every point: the total
        has 5,985,197 cliques through dimension 4, past the budget, but its
        edge collapse is a tree, and every reduced profile is trivial."""
        points, labels = self.dense_file(tmp_path, 60)
        cover = write_json(tmp_path, "cover.json", {"X": labels, "Y": labels})
        argv = ["decompose", points, "--cover", cover, "-r", "1", "--max-dim", "4"]
        assert cli.main([*argv, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["soundness"]["ok"]
        profiles = [p for part in report["profiles"].values() for p in part.values()]
        assert len(profiles) == 10
        assert not any(any(p["betti"].values()) or p["torsion"] for p in profiles)

    @staticmethod
    def facet_file(tmp_path, *sizes):
        """Disjoint facets of the given numbers of labels."""
        facets = [[f"v{i}.{j}" for j in range(n)] for i, n in enumerate(sizes)]
        return write_json(tmp_path, "facets.json", {"facets": facets})

    def test_a_facet_past_the_budget_exits_2_at_once(self, capsys, monkeypatch, tmp_path):
        """One facet of 21 labels has 2^21 - 1 faces: refused before any face
        is made."""
        calls = []
        real = complexes.combinations
        monkeypatch.setattr(complexes, "combinations", lambda *a: calls.append(1) or real(*a))
        assert cli.main(["homology", self.facet_file(tmp_path, 21)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a facet of 21 vertices has 2^21 - 1 faces, past the budget of "
            f"{SIMPLEX_BUDGET} simplices\n"
        )
        assert calls == []

    def test_a_facet_within_the_budget_reports(self, capsys, tmp_path):
        assert cli.main(["homology", self.facet_file(tmp_path, 16), "--format", "json"]) == 0
        profiles = json.loads(capsys.readouterr().out).values()
        assert not any(any(p["betti"].values()) or p["torsion"] for p in profiles)

    def test_facets_whose_faces_pass_the_budget_exit_2(self, capsys, monkeypatch, tmp_path):
        """Under a budget of 100 simplices, three 5-label facets (93 faces)
        report and four (124 faces) are refused."""
        monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 100)
        assert cli.main(["homology", self.facet_file(tmp_path, 5, 5, 5)]) == 0
        capsys.readouterr()
        assert cli.main(["homology", self.facet_file(tmp_path, 5, 5, 5, 5)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the facets have more than 100 faces, past the budget\n"


class TestDimensionCapBound:
    """Within the simplex budget no simplex has dimension ``MAX_DIM_CAP``, so
    a higher cap is refused."""

    def test_the_bound_follows_the_budget(self):
        assert 2**MAX_DIM_CAP - 1 <= SIMPLEX_BUDGET < 2 ** (MAX_DIM_CAP + 1) - 1

    @pytest.mark.parametrize("command", ["decompose", "homology", "homology of distances", "vr"])
    def test_the_bound_runs_and_one_past_it_exits_2(self, capsys, tmp_path, command):
        """``decompose``, ``vr`` and ``homology`` on the 3-point path at
        radius 1, and ``homology`` on RP^2.  ``homology`` of distances at
        the bound builds its Vietoris-Rips complex one past it."""
        points = write_json(
            tmp_path, "path.json",
            {"points": ["a", "b", "c"], "distances": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        )
        cover = write_json(tmp_path, "cover.json", {"X": ["a", "b"], "Y": ["b", "c"]})
        rp2 = write_json(tmp_path, "rp2.json", {"facets": PROJECTIVE_PLANE})
        argv = {
            "decompose": ["decompose", points, "--cover", cover, "-r", "1"],
            "homology": ["homology", rp2],
            "homology of distances": ["homology", points, "-r", "1"],
            "vr": ["vr", points, "-r", "1"],
        }[command]
        assert cli.main([*argv, "--max-dim", str(MAX_DIM_CAP), "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        if command == "vr":
            assert out == {"counts_by_dim": {"0": 3, "1": 2}}
        else:
            degrees = out["profiles"]["total"]["z"] if command == "decompose" else out["z"]
            assert degrees["degrees"][-1] == MAX_DIM_CAP - (command == "decompose")
        assert cli.main([*argv, "--max-dim", str(MAX_DIM_CAP + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: the dimension cap {MAX_DIM_CAP + 1} is past")


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark reads as the same
    file without it."""

    FILES = {
        "points.csv": "a,b,c\n1\n2,1\n",
        "points.json": '{"points": ["a", "b", "c"], "distances": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}',
        "cover.json": '{"X": ["a", "b"], "Y": ["b", "c"]}',
    }

    @pytest.mark.parametrize("marked", list(FILES))
    def test_marked_file_gives_the_unmarked_report(self, capsys, tmp_path, marked):
        outputs = []
        for mark in ("", "\ufeff"):
            for name, text in self.FILES.items():
                prefix = mark if name == marked else ""
                (tmp_path / name).write_text(prefix + text, encoding="utf-8")
            points = tmp_path / ("points.csv" if marked == "points.csv" else "points.json")
            cover = tmp_path / "cover.json"
            argv = ["decompose", str(points), "--cover", str(cover), "-r", "1", "--format", "json"]
            assert cli.main(argv) == 0, capsys.readouterr().err
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestLineEndings:
    r"""Files are read raw: "\r\n" and a lone "\r" read as "\n", as universal
    newlines would, behind a byte-order mark or not."""

    FACETS = '{"facets": [\n[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],\n' \
        '[1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]}\n'
    CSV = "a,b,c\n1.00000000000000001\n1.5,0.5\n"

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    @pytest.mark.parametrize("mark", ["", "\ufeff"])
    def test_every_ending_gives_the_plain_output(self, capsys, tmp_path, ending, mark):
        outputs = []
        for text, name, argv in (
            (self.FACETS, "rp2.json", ["homology", "{}", "--format", "json", "--max-dim", "2"]),
            (self.CSV, "space.csv", ["vr", "{}", "--format", "json", "-r", "1"]),
        ):
            for variant in (text, mark + text.replace("\n", ending)):
                (tmp_path / name).write_bytes(variant.encode())
                assert _read_text(tmp_path / name) == text
                assert cli.main([a.format(tmp_path / name) for a in argv]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[2] == outputs[3]
        assert json.loads(outputs[0])["z"]["torsion"] == {"1": [2]}


class TestExactNumberLiterals:
    """A JSON number literal is the distance it spells, as its string
    spelling is; labels written as numbers keep their float values."""

    @pytest.mark.parametrize(
        "literal, radius, edges",
        [
            ("1e400", "1e401", 1),
            ("0.30000000000000001", "0.3", 0),
            ("1e-400", "0", 0),
            ("0.5", "0.5", 1),
        ],
    )
    def test_number_and_string_spellings_agree(self, capsys, tmp_path, literal, radius, edges):
        counts = []
        for spelled in (literal, f'"{literal}"'):
            path = tmp_path / "points.json"
            path.write_text(
                f'{{"points": ["a", "b"], "distances": [[0, {spelled}], [{spelled}, 0]]}}'
            )
            assert cli.main(["vr", str(path), "-r", radius, "--format", "json"]) == 0
            counts.append(json.loads(capsys.readouterr().out)["counts_by_dim"])
        assert counts[0] == counts[1] == ({"0": 2, "1": 1} if edges else {"0": 2})

    def test_number_labels_keep_their_float_values(self, tmp_path):
        path = tmp_path / "facets.json"
        path.write_text('{"facets": [[1.5, 1e2], [1e2, 0.30000000000000001, 1e400]]}')
        labels = load_input(path).facet_labels
        assert labels == [0.3, 1.5, 100.0, math.inf]
        assert all(type(v) is float for v in labels)
        path = tmp_path / "points.json"
        path.write_text('{"points": [1.5, 1e2], "distances": [[0, 1], [1, 0]]}')
        assert load_input(path).space.labels == ("1.5", "100.0")

    def test_cover_labels_are_the_ones_json_loads_gives(self, tmp_path):
        """A cover is read by the exact decoder, as every input file is, and
        its number labels map back to the floats ``json.loads`` gives."""
        text = '[1e2, 1.50, -0.0, 1E400, 1.0000000000000001, true, 7, "a", NaN]'
        path = tmp_path / "cover.json"
        path.write_text(f'{{"X": {text}, "Y": {text}}}')
        want = [str(v) for v in json.loads(text)]
        assert want == ["100.0", "1.5", "-0.0", "inf", "1.0", "True", "7", "a", "nan"]
        assert load_cover(path) == (want, want)

    @pytest.mark.parametrize(
        "name, document",
        [
            ("input.json", '{"points": ["a", "b"], "distances": [[0, @], [@, 0]]}'),
            ("input.json", '{"points": [@, "b"], "distances": [[0, 1], [1, 0]]}'),
            ("input.json", '{"facets": [["a", @]]}'),
            ("cover.json", '{"X": [@], "Y": ["b"]}'),
        ],
        ids=["distance", "point-label", "facet-label", "cover-label"],
    )
    def test_an_exponent_past_decimal_is_an_input_error(self, capsys, tmp_path, name, document):
        """A number literal whose exponent ``Decimal`` cannot hold, in an
        input file or a cover file, exits 2 with no traceback."""
        write_json(tmp_path, "input.json", {"points": ["a", "b"], "distances": [[0, 1], [1, 0]]})
        write_json(tmp_path, "cover.json", {"X": ["a"], "Y": ["b"]})
        (tmp_path / name).write_text(document.replace("@", "1e99999999999999999999"))
        argv = ["decompose", str(tmp_path / "input.json"), "--cover", str(tmp_path / "cover.json")]
        assert cli.main([*argv, "-r", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot decode JSON" in captured.err
        assert "Traceback" not in captured.err


class TestHomology:
    def test_json_profiles_per_field(self, capsys, facet_file):
        argv = ["homology", facet_file, "--field", "q", "--field", "zp:2", "--format", "json"]
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["q", "zp:2"]
        k = load_input(facet_file).facet_complex
        for coeffs, profile in out.items():
            assert set(profile) == {"coeffs", "reduced", "degrees", "betti", "torsion"}
            expected = homology(k, coeffs, max_deg=4, reduced=True).to_dict()
            assert profile == json.loads(json.dumps(expected))
        assert out["q"]["betti"]["1"] == 1

    def test_default_fields_and_unreduced(self, capsys, facet_file):
        assert cli.main(["homology", facet_file, "--unreduced", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out) == ["q", "z"]
        assert all(not p["reduced"] and p["betti"]["0"] == 1 for p in out.values())

    @pytest.mark.parametrize("command", ["homology", "vr"])
    def test_negative_cap_is_an_input_error(self, capsys, circle_files, facet_file, command):
        argv = [command, facet_file] if command == "homology" else ["vr", circle_files[0], "-r", "1"]
        assert cli.main([*argv, "--max-dim", "-5", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-dim must be nonnegative\n"

    def test_distance_input_needs_a_radius(self, capsys, circle_files):
        assert cli.main(["homology", circle_files[0]]) == 2
        assert "needs --radius" in capsys.readouterr().err

    @pytest.mark.parametrize("points, max_dim", [(2, 0), (3, 1)])
    def test_distance_input_with_a_simplex_at_the_cap(self, capsys, tmp_path, points, max_dim):
        # pairwise distance 1 at radius 1: one simplex, of dimension max_dim + 1
        labels = [f"p{i}" for i in range(points)]
        distances = [[int(i != j) for j in range(points)] for i in range(points)]
        path = write_json(tmp_path, "points.json", {"points": labels, "distances": distances})
        argv = ["homology", path, "-r", "1", "--max-dim", str(max_dim), "--format", "json"]
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        k = vietoris_rips(load_input(path).space, 1, max_dim + 1)
        assert k.dim() == max_dim + 1
        for coeffs in ("q", "z"):
            expected = homology(k, coeffs, max_deg=max_dim, reduced=True).to_dict()
            assert out[coeffs] == json.loads(json.dumps(expected))
            assert set(out[coeffs]["betti"].values()) == {0}

    def test_circle_output_is_the_capped_complex_homology(self, capsys, circle_files):
        points, _, r = circle_files
        assert cli.main(["homology", points, "-r", r, "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        k = vietoris_rips(load_input(points).space, r, 4)
        assert not cliques_oracle(k, 6)
        for coeffs in ("q", "z"):
            expected = homology(k, coeffs, max_deg=4, reduced=True).to_dict()
            assert out[coeffs] == json.loads(json.dumps(expected))
        assert out["z"]["betti"]["1"] == 1


class TestCorpus:
    def test_list(self, capsys):
        assert cli.main(["corpus", "list"]) == 0
        assert capsys.readouterr().out.splitlines() == [case.name for case in CASES]

    def test_run(self, capsys):
        assert cli.main(["corpus", "run"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [f"{case.name}: ok" for case in CASES]
        assert lines[-1] == f"{len(CASES)}/{len(CASES)} cases pass"

    @staticmethod
    def perturbed_square():
        """square-4pt with one expectation of each kind that ``compare`` reads
        made false: a Betti tuple, a verdict, a witness, an induced rank and
        degree, the census, and an item's fields and key."""
        case = case_by_name("square-4pt")
        expect = copy.deepcopy(case.expect)
        expect["reduced_betti"]["union"]["q"] = (0, 2, 0, 0)
        expect["verdicts"]["shared-witness"] = "fails"
        expect["witness"]["edge-intersection-nonempty"] = "b"
        expect["induced"][1]["rank"] = 1
        expect["induced"].append({"field": "q", "degree": 4})
        expect["census"] = {"total": 2, "by_status": {"homology-only": 1, "cone": 1}}
        expect["items"] = {
            "x,y": {"status": "cone", "obstruction": ["a"], "certificate": ["a"]},
            "y,x": {},
        }
        return case._replace(expect=expect)

    def test_compare_reports_every_mismatch(self):
        report, mismatches = run_case(case_by_name("square-4pt"))
        assert mismatches == []
        assert compare(report, self.perturbed_square().expect) == [
            "betti[union,q]: expected (0, 2, 0, 0), got (0, 1, 0, 0)",
            "verdict[shared-witness]: expected fails, got holds",
            "witness[edge-intersection-nonempty]: expected b, got a",
            "induced[q,1].rank: expected 1, got 0",
            "induced[q,4]: missing",
            "census.total: expected 2, got 1",
            "census[cone]: expected 1, got 0",
            "item[x,y].status: expected cone, got homology-only",
            "item[x,y].obstruction: expected ['a'], got ['a', 'b']",
            "item[x,y].certificate: expected ['a'], got None",
            "item[y,x]: missing",
        ]

    def test_run_prints_the_mismatches_and_exits_one(self, capsys, monkeypatch):
        case = self.perturbed_square()
        monkeypatch.setattr(corpus, "CASES", [case])
        assert cli.main(["corpus", "run"]) == 1
        lines = capsys.readouterr().out.splitlines()
        mismatches = compare(run_case(case)[0], case.expect)
        assert lines == ["square-4pt: FAIL", *(f"  {m}" for m in mismatches), "0/1 cases pass"]

    def test_a_report_that_fails_soundness_is_a_mismatch(self, capsys, monkeypatch):
        """five-pt-gluing with ``no-cross-simplices`` patched to claim an
        isomorphism through degree 1, which is false, as H_2(total, union; Z)
        = Z: ``compare`` names the gate's failures, and ``corpus run`` prints
        them and exits 1."""
        case = case_by_name("five-pt-gluing")
        rows = [
            rule._replace(test=lambda ctx, n: analyzer._holds(1))
            if rule.id == "no-cross-simplices"
            else rule
            for rule in analyzer._RULES
        ]
        monkeypatch.setattr(analyzer, "_RULES", rows)
        report, mismatches = run_case(case)
        assert report.soundness["failures"] == [
            "no-cross-simplices: expected H_2(total, union; Z) = 0, verification reads "
            "betti 1, torsion []"
        ]
        assert mismatches == [f"soundness failed: {report.soundness['failures']}"]
        monkeypatch.setattr(corpus, "CASES", [case])
        assert cli.main(["corpus", "run"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["five-pt-gluing: FAIL", f"  {mismatches[0]}", "0/1 cases pass"]


class TestOneParser:
    def test_not_built_at_import(self):
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        code = "import ripsdecomp.cli as c; assert c._PARSER is None"
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_built_once_and_reused(self, capsys):
        cli.main(["corpus", "list"])
        parser = cli._PARSER
        assert parser is not None
        cli.main(["corpus", "list"])
        assert cli._PARSER is parser

    def test_options_do_not_leak_between_calls(self, capsys, circle_files):
        points, cover, r = circle_files
        base = ["decompose", points, "--cover", cover, "-r", r, "--max-dim", "2", "--format", "json"]

        def run(*extra):
            assert cli.main([*base, *extra]) == 0
            return json.loads(capsys.readouterr().out)

        first = run("--field", "zp:2", "--field", "zp:3", "--no-verify")
        assert first["fields"] == ["zp:2", "zp:3"] and first["profiles"] is None
        plain = run()
        assert plain["fields"] == ["q", "z"] and set(plain["profiles"]["x"]) == {"q", "z"}
        again = run("--field", "zp:3")
        assert again["fields"] == ["zp:3"] and set(again["profiles"]["x"]) == {"zp:3"}
        assert run() == plain


class TestClosedStdout:
    """A reader that is gone before the output is written, or that stops
    reading part way: exit 141 and nothing on stderr, neither a traceback
    nor an error in the flush at exit."""

    @staticmethod
    def command(argv):
        """The command line of ``ripsdecomp argv`` and its environment."""
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return [sys.executable, "-m", "ripsdecomp.cli", *argv], dict(env, PYTHONPATH=src)

    def run(self, argv):
        cmd, env = self.command(argv)
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run(cmd, env=env, stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)

    def test_a_reader_that_stops_after_300_bytes(self, tmp_path):
        points, cover, r = write_circle(tmp_path, 40)  # a report of about 400 KB
        argv = ["decompose", points, "--cover", cover, "-r", r, "--no-verify", "--format", "json"]
        cmd, env = self.command(argv)
        with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            try:
                head = proc.stdout.read(300)
                proc.stdout.close()
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert head.startswith(b"{") and len(head) == 300
        assert (proc.returncode, err) == (141, b"")

    def test_a_report_past_the_buffer_fails_in_its_write(self, tmp_path):
        points, cover, r = write_circle(tmp_path, 40)  # a report of about 400 KB
        argv = ["decompose", points, "--cover", cover, "-r", r, "--max-dim", "3", "--no-verify"]
        done = self.run([*argv, "--format", "json"])
        assert (done.returncode, done.stderr) == (141, b"")

    def test_a_short_output_fails_in_the_flush(self):
        done = self.run(["corpus", "list"])
        assert (done.returncode, done.stderr) == (141, b"")


class TestRepeatedFields:
    def test_a_field_given_twice_is_reported_once(self, capsys, circle_files):
        points, cover, r = circle_files
        base = ["decompose", points, "--cover", cover, "-r", r, "--max-dim", "3"]
        assert cli.main([*base, "--field", "q", "--field", "z", "--field", "q", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [rec["field"] for rec in report["induced"]] == ["q"] * 3
        assert report["fields"] == ["q", "z"]
        assert all(list(p) == ["q", "z"] for p in report["profiles"].values())
        assert cli.main([*base, "--field", "q", "--field", "q"]) == 0
        assert capsys.readouterr().out.count("coefficients q:") == 1

    def test_a_leading_zero_is_a_usage_error(self, capsys, circle_files):
        points, cover, r = circle_files
        argv = ["decompose", points, "--cover", cover, "-r", r, "--field", "zp:2", "--field", "zp:02"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "bad field 'zp:02'" in capsys.readouterr().err


def corpus_argv(tmp_path, case):
    space = space_for(case)
    points = write_json(
        tmp_path,
        f"{case.name}.json",
        {"points": list(case.labels), "distances": [[str(v) for v in row] for row in space.matrix]},
    )
    cover = write_json(tmp_path, f"{case.name}-cover.json", {"X": case.x, "Y": case.y})
    argv = ["decompose", points, "--cover", cover, "-r", str(case.r), "--max-dim", str(case.dim_cap)]
    return argv + [arg for coeffs in case.fields for arg in ("--field", coeffs)]


class TestRenderText:
    @pytest.mark.parametrize("verify", [True, False], ids=["verify", "no-verify"])
    @pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
    def test_same_verdicts_as_the_json_report(self, tmp_path, capsys, case, verify):
        argv = corpus_argv(tmp_path, case) + ([] if verify else ["--no-verify"])
        assert cli.main([*argv, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        heads = {line.split("  witness=")[0] for line in lines}
        for v in report["verdicts"]:
            assert f"    [{v['status'].upper():<14}] {v['criterion']}" in heads, v["criterion"]
        induced = [line for line in lines if " H_" in line and ": rank " in line]
        assert len(induced) == len(report["induced"] or [])
        for line, rec in zip(induced, report["induced"] or []):
            assert line.split()[:4] == [rec["field"], f"H_{rec['degree']}:", "rank", str(rec["rank"])]
        assert lines.count("  soundness: ok") == 1
        assert ("  verification (reduced Betti, torsion as t<q>):" in lines) == verify


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", sorted(f[:-5] for f in os.listdir(GOLDEN_DIR) if f.endswith(".json"))
    )
    def test_golden_reports(self, name):
        with open(os.path.join(GOLDEN_DIR, name + ".json")) as fh:
            text = fh.read()
        report = parse_report(text)
        assert render_json(report) == text
        assert parse_report(render_json(report)) == report

    def test_fresh_reports(self):
        rng = rng_for(601)
        for i in range(30):
            if i % 2:
                report = analyze_metric(
                    random_metric_cover(rng), dim_cap=2, fields=["q", "z", "zp:2"], verify=i % 4 == 1
                )
            else:
                k = random_complex(rng, max_vertices=7)
                report = analyze(k, random_cover(rng, k), dim_cap=3, verify=i % 4 == 0)
            assert parse_report(render_json(report)) == report

    def test_a_verdict_without_its_optional_keys(self):
        with open(os.path.join(GOLDEN_DIR, "corpus-square-4pt.json")) as fh:
            data = json.load(fh)
        optional = ("witness", "conclusion", "claim", "detail", "verified_up_to")
        bare, partial = data["verdicts"][:2]
        for key in optional:
            del bare[key]
        del partial["claim"], partial["verified_up_to"]
        verdicts = parse_report(json.dumps(data)).verdicts
        assert verdicts[0].to_dict() == {**bare, **dict.fromkeys(optional)}
        assert verdicts[1].to_dict() == {**partial, "claim": None, "verified_up_to": None}
        for required in ("criterion", "status"):
            data["verdicts"][2] = verdicts[2].to_dict()
            del data["verdicts"][2][required]
            with pytest.raises(KeyError, match=required):
                parse_report(json.dumps(data))


class TestMutationFuzz:
    """Seeded mutations of valid distance, facet, cover and CSV files:
    wrong types, nesting, huge numbers, infinities, a byte-order mark,
    truncation and duplicate labels.  ``decompose`` on each exits 0, or 2
    with nothing on stdout, and never raises."""

    DISTANCES = {
        "points": ["a", "b", "c", "d"],
        "distances": [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
    }
    FACETS = {"facets": [["a", "b", "c"], ["c", "d"], ["d", "a"], ["b", "d"]]}
    COVER = {"X": ["a", "b", "c"], "Y": ["c", "d", "a"]}
    CSV = [["a", "b", "c", "d"], ["1"], ["2", "1"], ["1", "2", "1"]]
    VALUES = (
        None, True, False, "", "x", "a", "d", 0, -1, 2.5, 10**30, "1/3", "1/0", "-2/3",
        "inf", "-inf", "nan", "1e999999999", "1e-5000", [], {}, [[]], {"a": 1}, ["a"], [1, 2],
    )
    # spliced into the JSON text as written: past the exponent bound, past
    # Python's integer-string limit, nested past its recursion limit, and
    # the constants JSON itself lacks
    RAW = (
        "1e999999999", "-1e400", "1e-400", "1" * 5000, "9" * 400, "Infinity", "-Infinity",
        "NaN", "1e308", "-0", "[" * 3000 + "]" * 3000,
    )
    CELLS = ("", "x", "a", "-1", "0", "inf", "-inf", "nan", "1e999999999", "1/0", "1/3", "9" * 5000, '"')
    SPLICE = '"@splice@"'

    def slots(self, node):
        """Every (container, key) below a JSON value."""
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in list(keys):
            yield node, key
            if isinstance(node[key], (dict, list)):
                yield from self.slots(node[key])

    def mutate_json(self, rng, document):
        doc = json.loads(json.dumps(document))
        raw = []
        for _ in range(rng.choice((1, 1, 2, 3))):
            slots = list(self.slots(doc))
            if not slots:
                break
            node, key = rng.choice(slots)
            op = rng.choice(("value", "value", "raw", "nest", "duplicate", "delete"))
            if op == "value":
                node[key] = rng.choice(self.VALUES)
            elif op == "raw":
                node[key] = self.SPLICE[1:-1]
                raw.append(rng.choice(self.RAW))
            elif op == "nest":
                node[key] = [node[key]] * rng.randint(1, 2)
            elif op == "duplicate" and isinstance(node, list) and len(node) > 1:
                node[key] = node[rng.randrange(len(node))]
            elif op == "delete":
                del node[key]
        text = json.dumps(doc)
        for literal in raw:
            text = text.replace(self.SPLICE, literal, 1)
        return text

    def mutate_csv(self, rng):
        rows = [list(row) for row in self.CSV]
        for _ in range(rng.choice((1, 1, 2, 3))):
            i = rng.randrange(len(rows))
            row = rows[i]
            op = rng.choice(("cell", "cell", "duplicate", "add", "drop", "row"))
            if op == "cell" and row:
                row[rng.randrange(len(row))] = rng.choice(self.CELLS)
            elif op == "duplicate" and row:
                row[rng.randrange(len(row))] = rng.choice(rows[0] or ["a"])
            elif op == "add":
                row.append(rng.choice(self.CELLS))
            elif op == "drop" and row:
                row.pop(rng.randrange(len(row)))
            elif op == "row":
                rows.insert(i, [rng.choice(self.CELLS) for _ in range(rng.randint(0, 4))])
        return "\n".join(",".join(row) for row in rows) + "\n"

    def test_every_mutation_exits_0_or_2(self, capsys, tmp_path):
        rng = rng_for(701)
        valid = {
            "points.json": json.dumps(self.DISTANCES),
            "facets.json": json.dumps(self.FACETS),
            "points.csv": "\n".join(",".join(row) for row in self.CSV) + "\n",
            "cover.json": json.dumps(self.COVER),
        }
        for name, text in valid.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        exits = Counter()
        for i in range(2000):
            target = rng.choice(list(valid))
            if target == "points.csv":
                text = self.mutate_csv(rng)
            else:
                base = {"points.json": self.DISTANCES, "facets.json": self.FACETS}
                text = self.mutate_json(rng, base.get(target, self.COVER))
            if rng.random() < 0.1:
                text = "\ufeff" + text
            if rng.random() < 0.1:
                text = text[: rng.randrange(len(text) + 1)]
            mutated = tmp_path / ("mutated-" + target)
            mutated.write_text(text, encoding="utf-8")
            files = {name: tmp_path / name for name in valid}
            files[target] = mutated
            source = target if target != "cover.json" else rng.choice(list(valid)[:3])
            argv = [
                "decompose", str(files[source]), "--cover", str(files["cover.json"]),
                "-r", "1", "--max-dim", "2", "--format", "json",
            ]
            try:
                code = cli.main(argv)
            except Exception as exc:
                pytest.fail(f"mutation {i} of {target} raised {exc!r}:\n{text[:500]}")
            captured = capsys.readouterr()
            assert code in (0, 2), (i, target, text[:500], captured.err)
            if code == 2:
                assert captured.out == "" and captured.err.startswith("error: "), (i, text[:500])
            else:
                assert captured.out
            exits[target, code] += 1
        # every file kind is read both ways
        assert all(exits[name, code] > 10 for name in valid for code in (0, 2)), exits
