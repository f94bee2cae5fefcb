"""``render_json`` against plain ``json.dumps(report.to_dict(), indent=2,
sort_keys=True)`` on seeded hand-built reports: the writer, and its
``json.dumps`` fallback for reports it cannot encode or that are nested past
its newline table."""

import copy
import json
import math

import pytest

from ripsdecomp import Complex, Cover, analyze, reporting
from ripsdecomp.analyzer import CriterionVerdict, DecompositionReport
from ripsdecomp.reporting import render_json, render_text

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


def record_keys(value):
    """The sorted keys of a record list: a nonempty list of dicts that share
    one nonempty set of ``str`` keys; else None."""
    if type(value) is list and value and set(map(type, value)) == {dict}:
        keys = value[0].keys()
        if set(map(type, keys)) == {str} and all(r.keys() == keys for r in value):
            return sorted(keys)
    return None


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


def test_templates_render_as_plain_json():
    """The writer itself, without the error fallback; the seeds reach each
    kind of record list."""
    reached = set()
    for seed in range(400):
        report = random_report(seed)
        data = report.to_dict()
        assert reporting._write(data, 0) == plain(report), f"seed {seed}"
        for name in ("items", "induced"):
            keys = record_keys(data[name])
            reached.add("empty" if not data[name] else "mixed" if keys is None else "records")
            for k in keys or ():
                column = {repr(r[k]) for r in data[name]}
                if {"True", "1", "1.0"} <= column:
                    reached.add("true, 1 and 1.0 in one field")
            nested = [v for r in data[name] if isinstance(r, dict) for v in r.values()]
            reached.update("nested" for v in nested if record_keys(v))
            reached.update("shared" for v in nested if isinstance(v, list) and nested.count(v) > 1)
    assert reached == {
        "empty", "mixed", "records", "nested", "shared", "true, 1 and 1.0 in one field"
    }


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
    report = random_report(0)
    report.items = [{"dim": 1, "certificate": None}, {"dim": 2, "certificate": bad}]
    with pytest.raises(Exception) as expected:
        plain(report)
    with pytest.raises(expected.type) as got:
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
    """Past the newline table the writer gives up and json.dumps writes the
    report."""
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
    with pytest.raises(IndexError):
        reporting._write([[]] * 2, table - 1)


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


def test_text_report_lists_each_soundness_failure():
    report = rp2_report()
    report.soundness = {"ok": False, "failures": ["union H_1 over q: claimed iso, got rank 0"]}
    lines = render_text(report).splitlines()
    assert lines[-2:] == [
        "  soundness: FAILED",
        "    !! union H_1 over q: claimed iso, got rank 0",
    ]
