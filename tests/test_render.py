"""``render_json`` against plain ``json.dumps(report.to_dict(), indent=2,
sort_keys=True)`` on seeded hand-built reports: the templates of the verdicts,
the encoder shifted to each depth for every other field, and the errors of
values neither can encode."""

import ast
import copy
import json
import math

import pytest

from ripsdecomp import Complex, Cover, analyze, analyzer, reporting
from ripsdecomp.reporting import CriterionVerdict, DecompositionReport, render_json, render_text

from conftest import PROJECTIVE_PLANE, rng_for

# quotes, backslashes, control characters, a template's "%s", non-ASCII and
# astral characters
PIECES = [
    '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "%s", "%", "é", "中", "\U0001f600", "a", "x1",
]
# values equal as Python numbers but not as JSON text, and non-finite floats
SCALARS = [
    True, False, 1, 1.0, 0, 0.0, -0.0, None, 2, 10**20, 1e16, 0.1,
    math.nan, math.inf, -math.inf,
]
# dicts that sort their keys differently, or not at all as text
DICTS = [{1: 2}, {"1": 2}, {10: 1, 9: 2}, {"10": 1, "9": 2}, {True: 1}, {1.5: None}, {}]


class Bare(str):
    """A string that shows without quotes: ``repr`` tells [Bare("1")] from
    [1] no better than ``str`` does, although their JSON differs."""

    __repr__ = str.__str__


LOOKALIKES = [1, "1", Bare("1"), True, Bare("True"), None, Bare("None"), 1.0]


class Loud(int):
    """An int that shows otherwise: json writes it through ``int.__repr__``."""

    __repr__ = __str__ = lambda self: "loud"


SUBCLASSED = [Bare("1"), Bare("a\nb"), Loud(1), Loud(-5)]


def plain(report):
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def label(rng):
    return "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 4)))


def value(rng, depth=0):
    """One field value: scalars, strings, string lists, dicts and lists,
    nested record lists among them."""
    roll = rng.random()
    if roll < 0.2:
        return label(rng)
    if roll < 0.45:
        return rng.choice(SCALARS)
    if roll < 0.55:
        return [label(rng) for _ in range(rng.randint(0, 3))]
    if roll < 0.6:
        return [rng.choice(LOOKALIKES) for _ in range(rng.randint(1, 2))]
    if roll < 0.7:
        return dict(rng.choice(DICTS))
    if depth > 1:
        return None
    if roll < 0.85:
        return records(rng, depth + 1)
    return {label(rng): value(rng, depth + 1) for _ in range(rng.randint(0, 3))}


def records(rng, depth=0):
    """A record list: the same keys in every record, values drawn from a
    small pool so that records share them; sometimes one field runs
    through true, 1 and 1.0, and sometimes a key set differs."""
    keys = list({label(rng) or "k" for _ in range(rng.randint(1, 4))})
    pool = [value(rng, depth) for _ in range(3)]
    out = [
        {k: rng.choice(pool) if rng.random() < 0.6 else value(rng, depth) for k in keys}
        for _ in range(rng.randint(0, 6))
    ]
    if rng.random() < 0.2:
        for i, record in enumerate(out):
            record[keys[0]] = (True, 1, 1.0)[i % 3]
    if out and rng.random() < 0.2:
        rng.choice(out)[label(rng) + "extra"] = 1
    return out


def random_report(seed):
    rng = rng_for(70000 + seed)
    verdicts = [
        CriterionVerdict(
            label(rng), rng.choice(["holds", "fails"]), value(rng), value(rng),
            rng.choice([None, {"iso_upto": rng.choice(["all", 1, 1.0, True])}]),
            value(rng), rng.choice([None, 0, 1, True]),
        )
        for _ in range(rng.randint(0, 5))
    ]
    return DecompositionReport(
        kind=rng.choice(["metric", "explicit", label(rng)]),
        cover={"X": [label(rng)], "Y": [], "A": value(rng)},
        radius=rng.choice([None, "1/2", label(rng), 0.5, math.inf]),
        dim_cap=rng.choice(SCALARS),
        fields=[label(rng) for _ in range(rng.randint(0, 3))],
        census={"total": rng.randint(0, 9), "by_dim": dict(rng.choice(DICTS))},
        items=records(rng),
        verdicts=verdicts,
        profiles=rng.choice([None, {"x": {"q": {"betti": {"-1": 0, "0": 1}}}}, value(rng)]),
        induced=records(rng),
        soundness={"ok": rng.random() < 0.5, "failures": [label(rng)]},
        notes=[label(rng) for _ in range(rng.randint(0, 2))],
    )


def test_seeded_reports_render_as_plain_json():
    for seed in range(400):
        report = random_report(seed)
        assert render_json(report) == plain(report), f"seed {seed}"


def circular():
    out = [1]
    out.append({"back": out})
    return out


@pytest.mark.parametrize(
    "bad",
    [object(), {1, 2}, {(1, 2): 3}, {1: 2, "1": 3}, circular()],
    ids=["object", "set", "tuple key", "unsortable keys", "circular"],
)
def test_unencodable_values_raise_as_plain_json(bad):
    """Alone in the items, and beside a field that sorts after them and
    holds another: the error json.dumps meets first."""
    report = random_report(0)
    report.items = [{"dim": 1, "certificate": None}, {"dim": 2, "certificate": bad}]
    for kind in (report.kind, b"kind"):
        report.kind = kind
        with pytest.raises(Exception) as expected:
            plain(report)
        with pytest.raises(expected.type) as got:
            render_json(report)
        assert str(got.value) == str(expected.value)


def test_unencodable_values_in_two_verdicts_raise_as_plain_json():
    """The verdicts are written column by column, the claims first, but
    json.dumps walks them verdict by verdict: of a witness and a later
    claim that neither can encode, the witness raises."""
    report = random_report(0)
    report.verdicts = [
        CriterionVerdict("first", "holds", witness=b"w"),
        CriterionVerdict("second", "holds", claim=object()),
    ]
    with pytest.raises(TypeError, match="bytes") as expected:
        plain(report)
    with pytest.raises(TypeError) as got:
        render_json(report)
    assert str(got.value) == str(expected.value)


def test_records_that_share_objects_render_as_plain_json():
    """Records share one certificate dict and one vertex list per
    obstruction; shared objects, lookalikes among them, and equal objects
    that are not shared render as plain json.dumps does."""
    rng = rng_for(71000)
    for _ in range(100):
        pool = [value(rng) for _ in range(2)] + [
            [rng.choice(LOOKALIKES)],
            {"kind": rng.choice(LOOKALIKES), "simplex": [rng.choice(LOOKALIKES)]},
            [label(rng) for _ in range(2)],
            {"kind": "central", "simplex": ["1"]},
        ]
        shared = [rng.choice(pool) for _ in range(3)]
        report = random_report(rng.randrange(400))
        report.items = [
            {"certificate": rng.choice(shared), "obstruction_vertices": rng.choice(shared),
             "copy": json.loads(json.dumps(rng.choice(shared))), "dim": rng.choice(LOOKALIKES)}
            for _ in range(rng.randint(1, 8))
        ]
        assert render_json(report) == plain(report)


def test_objects_at_two_depths_render_as_plain_json():
    """One list or dict object written at two depths is indented for each."""
    rng = rng_for(72000)
    for _ in range(100):
        shared = rng.choice([[label(rng)], {"kind": label(rng)}, records(rng, 1), {}])
        shared = shared or [rng.choice(SCALARS)]
        report = random_report(rng.randrange(400))
        report.cover["A"] = shared
        report.items = [{"certificate": shared, "nested": {"deeper": [shared]}}]
        report.profiles = {"x": {"q": shared}}
        assert render_json(report) == plain(report)


def test_nesting_deeper_than_the_newline_table_renders_as_plain_json():
    """Values nested past the newline table, shifted by one replace, render
    as plain json.dumps."""
    table = len(reporting._NEWLINE)
    rng = rng_for(73000)
    for _ in range(40):
        depth = rng.randint(table - 4, table + 4)
        value = rng.choice(SCALARS + [label(rng)])
        for _ in range(depth):
            value = rng.choice([[value], {label(rng) or "k": value}, [{"a": value, "b": 1}]])
        report = random_report(rng.randrange(400))
        report.items = [{"dim": 1, "certificate": value}]
        assert render_json(report) == plain(report)


def test_subclasses_in_a_column_render_as_plain_json():
    """``str`` and ``int`` subclasses among the values of a field, the items
    of a list and the strings of a field's lists."""
    rng = rng_for(74000)
    for _ in range(100):
        def mixed():
            return rng.choice(SUBCLASSED + LOOKALIKES + [label(rng)])

        report = random_report(rng.randrange(400))
        report.items = [
            {"simplex": [mixed() for _ in range(rng.randint(0, 3))], "dim": mixed(),
             "status": rng.choice([Bare("cone"), "cone"]), "loud": Loud(rng.randint(0, 3))}
            for _ in range(rng.randint(1, 6))
        ]
        report.notes = [mixed() for _ in range(rng.randint(1, 4))]
        report.census = {"total": mixed(), "by_dim": {Bare("1"): Loud(2), "0": 1}}
        assert render_json(report) == plain(report)


def test_shared_objects_and_equal_copies_render_as_plain_json():
    """A column that holds one object several times and equal copies of it
    that are distinct objects."""
    rng = rng_for(75000)
    for _ in range(100):
        shared = rng.choice([
            [label(rng) for _ in range(rng.randint(0, 3))],
            {"kind": rng.choice(LOOKALIKES), "simplex": [label(rng)]},
            value(rng),
        ])

        def pick():
            return shared if rng.random() < 0.5 else copy.deepcopy(shared)

        report = random_report(rng.randrange(400))
        report.items = [
            {"certificate": pick(), "obstruction_vertices": pick()}
            for _ in range(rng.randint(1, 8))
        ]
        report.notes = [pick() for _ in range(rng.randint(1, 5))]
        assert render_json(report) == plain(report)


def rp2_report():
    """The verified report of RP^2 under the cover X = {0,1,2,3}, Y = {2,3,4,5}."""
    return analyze(Complex.from_facets(PROJECTIVE_PLANE), Cover({0, 1, 2, 3}, {2, 3, 4, 5}), 3)


def test_text_report_shows_torsion_in_its_field():
    lines = render_text(rp2_report()).splitlines()
    z = lines.index("   coefficients z:")
    assert lines[lines.index("   coefficients q:") + 5] == "    total   -1:0 0:0 1:0 2:0"
    assert lines[z + 5] == "    total   -1:0 0:0 1:0+t2 2:0"
    assert lines[-1] == "  soundness: ok"


def test_an_unknown_criterion_raises_and_a_report_equals_only_a_report():
    report = rp2_report()
    with pytest.raises(KeyError, match="no-such-criterion"):
        report.verdict("no-such-criterion")
    assert report.__eq__(object()) is NotImplemented
    assert (report == object()) is False


def test_a_parsed_report_keeps_no_records_whatever_its_keys():
    """``from_dict`` reads the report's fields alone: a ``records`` key in
    the data is not taken for the analyzer's records."""
    report = rp2_report()
    data = json.loads(render_json(report))
    parsed = DecompositionReport.from_dict({**data, "records": {"items": None}})
    assert parsed.records == {} and parsed == report


def test_text_report_with_no_cross_simplices_has_no_census_tail():
    """A path 0-1-2 covered by its two edges: no simplex meets both 0 and 2."""
    report = analyze(Complex.from_facets([[0, 1], [1, 2]]), Cover({0, 1}, {1, 2}), 2)
    assert report.census["total"] == 0
    assert "  cross simplices: 0" in render_text(report).splitlines()


def test_text_report_lists_each_soundness_failure():
    report = rp2_report()
    report.soundness = {"ok": False, "failures": ["union H_1 over q: claimed iso, got rank 0"]}
    lines = render_text(report).splitlines()
    assert lines[-2:] == [
        "  soundness: FAILED",
        "    !! union H_1 over q: claimed iso, got rank 0",
    ]


def _syntax(module):
    with open(module.__file__, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _imported(node):
    """The modules an import statement names, its relative ones resolved
    in ``ripsdecomp``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = ".".join(filter(None, ["ripsdecomp" * bool(node.level), node.module]))
    return [base, *(f"{base}.{alias.name}" for alias in node.names)]


def test_the_report_model_has_one_owner_and_no_import_cycle():
    """``reporting`` owns the report model and its writers and imports
    nothing from ``analyzer``, so ``analyzer`` defers no import to break a
    cycle: none of its functions imports."""
    imports = (ast.Import, ast.ImportFrom)
    reporting_imports = [
        name for node in ast.walk(_syntax(reporting)) if isinstance(node, imports)
        for name in _imported(node)
    ]
    assert "ripsdecomp.analyzer" not in reporting_imports
    deferred = [
        (function.name, node.lineno)
        for function in ast.walk(_syntax(analyzer))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function) if isinstance(node, imports)
    ]
    assert deferred == []
