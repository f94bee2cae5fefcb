r"""Text and JSON renderings of decomposition reports.

The JSON form round-trips: ``parse_report(render_json(report)) == report``.
Both renderings carry exactly the same verdict set.

``render_json`` is ``json.dumps(report.to_dict(), indent=2, sort_keys=True)``
byte for byte.  Before CPython 3.13, ``indent`` sends ``json.dumps`` to the
pure-Python encoder, and most of a large report is its record lists: one
record per cross simplex, per verdict, per induced map.  So there a list of
dicts that share one nonempty set of ``str`` keys is written through one
template, the key heads and separators of its depth built once, and values
go in as follows:

* a string, an ``int``, ``None`` or a column of lists of strings directly,
  through ``encode_basestring_ascii``, ``int.__repr__`` and ``str.join``;
* any other value is rendered once per report, keyed by its ``id``, then
  by its compact text from the C encoder with ``sort_keys``: the records
  that share an obstruction's certificate object cost a dict lookup each;
* everything that is not a record list is ``json.dumps`` with ``indent``,
  re-indented to its depth.

This is exact because

* with ``indent`` set a raw newline appears only between tokens, as strings
  escape control characters, so a subtree rendered at depth 0 is at depth d
  after ``.replace("\n", "\n" + "  " * d)``;
* the C encoder writes every scalar as the Python encoder does:
  ``int.__repr__``, ``float.__repr__``, ``NaN``/``Infinity``,
  ``true``/``false``/``null`` and ``encode_basestring_ascii``;
* the indented text is the compact token sequence with whitespace put in, so
  equal compact text with ``sort_keys`` means equal indented text.  (``1``,
  ``1.0`` and ``true`` have different texts and never share an entry.)

A report that cannot be encoded goes to plain ``json.dumps``, which raises
its own error.

From CPython 3.13 on, ``json.dumps`` with ``indent`` runs in C and is faster
than the template: 0.39 against 0.70 ms per ``verify-rips`` report and 3.8
against 5.7 ms per ``criteria-rips`` report (the benchmark's seed 1, CPython
3.13.0 on a shared 2-vCPU host).  Without the ``_json`` accelerator there
is no C encoder to key the memo with.  Both render through plain
``json.dumps``, which is also the reference the tests compare against.
"""

import json
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter

from .analyzer import DecompositionReport

__all__ = ["parse_report", "render_json", "render_text"]

#: Render record lists through templates (see the module docstring).
_TEMPLATED = c_make_encoder is not None and sys.version_info < (3, 13)

# the line breaks of a report key, a record, a record field and a string in
# a field's list: record lists are values of the report's own keys
_KEY, _RECORD, _FIELD, _ITEM = ("\n" + "  " * depth for depth in range(1, 5))


def render_json(report):
    data = report.to_dict()
    if _TEMPLATED:
        try:
            return _templated(data)
        except (TypeError, ValueError, RecursionError):
            pass  # not encodable: json.dumps raises its own error
    return json.dumps(data, indent=2, sort_keys=True)


def _templated(data):
    """``json.dumps(data, indent=2, sort_keys=True)`` for a report's dict,
    its record lists written through templates."""
    # a fresh markers dict per report, as json.dumps makes one per call
    compact = c_make_encoder(
        {}, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",",
        True, False, True,
    )
    memo = {}
    parts = []
    for name in sorted(data):
        value = data[name]
        keys = _record_keys(value)
        if keys is None:
            text = _indented(value, _KEY)
        else:
            heads = [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
            template = "{" + _FIELD + ("," + _FIELD).join(heads) + _RECORD + "}"
            columns = [_column(list(map(itemgetter(k), value)), compact, memo) for k in keys]
            records = ("," + _RECORD).join([template % row for row in zip(*columns)])
            text = "[" + _RECORD + records + _KEY + "]"
        parts.append(encode_basestring_ascii(name) + ": " + text)
    return "{" + _KEY + ("," + _KEY).join(parts) + "\n}"


def _column(values, compact, memo):
    """The texts of one field of a record list, record by record."""
    if set(map(type, values)) == {list}:
        try:
            return [
                "[" + _ITEM + ("," + _ITEM).join(map(encode_basestring_ascii, v)) + _FIELD + "]"
                if v
                else "[]"
                for v in values
            ]
        except TypeError:
            pass  # not only strings
    texts = []
    for value in values:
        kind = type(value)
        if kind is str:
            text = encode_basestring_ascii(value)
        elif kind is int:
            text = int.__repr__(value)
        elif value is None:
            text = "null"
        else:
            # by id first: the report keeps every value alive while written
            text = memo.get(id(value))
            if text is None:
                key = "".join(compact(value, 0))
                if key not in memo:
                    memo[key] = _indented(value, _FIELD)
                text = memo[id(value)] = memo[key]
        texts.append(text)
    return texts


def _indented(value, newline):
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _record_keys(value):
    """The sorted keys of a list of dicts that share one nonempty set of
    ``str`` keys, else None."""
    if type(value) is not list or set(map(type, value)) != {dict}:
        return None
    keys = value[0].keys()
    if set(map(type, keys)) != {str} or not all(map(keys.__eq__, map(dict.keys, value))):
        return None
    return sorted(keys)


def parse_report(text):
    return DecompositionReport.from_dict(json.loads(text))


def _profile_line(name, profile):
    degrees = profile["degrees"]
    cells = []
    for d in degrees:
        b = profile["betti"].get(str(d), 0)
        tor = profile["torsion"].get(str(d), [])
        cell = str(b)
        if tor:
            cell += "+" + "*".join(f"t{q}" for q in tor)
        cells.append(f"{d}:{cell}")
    return f"    {name:<7} {' '.join(cells)}"


def render_text(report):
    lines = []
    lines.append(f"decomposition report ({report.kind})")
    lines.append(
        f"  cover: X={report.cover['X']} Y={report.cover['Y']} A={report.cover['A']}"
    )
    if report.radius is not None:
        lines.append(f"  radius: {report.radius}")
    lines.append(f"  dimension cap: {report.dim_cap}")
    census = report.census
    lines.append(
        f"  cross simplices: {census['total']}"
        + (
            f"  by dim {census['by_dim']}  by status {census['by_status']}"
            if census["total"]
            else ""
        )
    )
    for note in report.notes:
        lines.append(f"  note: {note}")
    lines.append("  verdicts:")
    for v in report.verdicts:
        head = f"    [{v.status.upper():<14}] {v.criterion}"
        if v.witness:
            head += f"  witness={v.witness}"
        lines.append(head)
        if v.conclusion:
            lines.append(f"        => {v.conclusion}")
        if v.detail:
            lines.append(f"        .. {v.detail}")
        if v.verified_up_to is not None:
            lines.append(f"        .. verified up to dimension {v.verified_up_to}")
    if report.profiles:
        lines.append("  verification (reduced Betti, torsion as t<q>):")
        for coeffs in report.fields:
            lines.append(f"   coefficients {coeffs}:")
            for name in ("x", "y", "a", "union", "total"):
                lines.append(_profile_line(name, report.profiles[name][coeffs]))
        lines.append("  induced maps of the union inclusion:")
        for rec in report.induced:
            flags = []
            if rec["iso"]:
                flags.append("iso")
            else:
                if rec["injective"]:
                    flags.append("inj")
                if rec["surjective"]:
                    flags.append("surj")
            lines.append(
                f"    {rec['field']:<5} H_{rec['degree']}: rank {rec['rank']} "
                f"({rec['dim_source']} -> {rec['dim_target']}) {','.join(flags) or '-'}"
            )
    ok = report.soundness["ok"]
    lines.append(f"  soundness: {'ok' if ok else 'FAILED'}")
    for f in report.soundness["failures"]:
        lines.append(f"    !! {f}")
    return "\n".join(lines)
