r"""Text and JSON renderings of decomposition reports.

The JSON form round-trips: ``parse_report(render_json(report)) == report``.
Both renderings carry exactly the same verdict set.

``render_json`` is ``json.dumps(report.to_dict(), indent=2, sort_keys=True)``
byte for byte.  Before CPython 3.13, ``indent`` sends ``json.dumps`` to a
pure-Python encoder that yields token by token; there one recursive writer,
``_write(value, depth)``, returns that text for a value nested ``depth``
deep.  The items of a list, the values of a dict (by sorted key) and one
field of a record list are each written as one column:

* only ``str``, only ``int``, or only ``True``, ``False`` and ``None``: mapped
  at C level, through the functions the encoder itself calls;
* lists of such scalars: joined line by line;
* dicts that share one nonempty set of ``str`` keys (verdicts, induced maps,
  profiles by field): one ``%`` template, each key a column;
* anything else (a float, a ``str`` or ``int`` subclass, a tuple, a dict
  with other keys): ``json.dumps`` of that value, re-indented to its depth.

The items of a report that keeps the analyzer's item table are written
from the table, not from item dicts (``_write_items``): each vertex label
is encoded once, each obstruction record's fields are written once, each
class of cross simplices (one record, one dimension) gets the text before
and after its simplex's labels joined from those once, and each cross
simplex is one join of its class's texts and its labels.

That is exact because strings escape control characters: with ``indent``
set, a raw newline occurs only between tokens, so a subtree written at depth
0 is at depth d after ``.replace("\n", "\n" + "  " * d)``.  A report the
writer cannot encode, or nested past its newline table, goes to plain
``json.dumps``, which raises its own error or writes it.

From CPython 3.13 on, ``json.dumps`` with ``indent`` runs in C, and there it
renders every report, though it is not the faster path for every report.
Per report on CPython 3.13.13, the writer against ``json.dumps``:
``verify-rips`` 0.45 against 0.29 ms and ``explicit-torsion`` 0.36 against
0.19 ms, but ``criteria-rips``, whose items the writer takes from the item
table while ``json.dumps`` needs the item dicts built, 0.99 against 1.81 ms.
"""

import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .analyzer import DecompositionReport

__all__ = ["parse_report", "render_json", "render_text"]

#: Render through ``_write`` (see the module docstring).
_WRITER = sys.version_info < (3, 13)

#: the line break before a token at each depth
_NEWLINE = ["\n" + "  " * depth for depth in range(32)]

#: the encoder of a column by the exact types of its values; the empty
#: column, the items of lists that are all empty, is never encoded
_NAMED = {True: "true", False: "false", None: "null"}.__getitem__
_ENCODE = {
    frozenset({str}): encode_basestring_ascii,
    frozenset({int}): int.__repr__,
    frozenset({bool}): _NAMED,
    frozenset({type(None)}): _NAMED,
    frozenset({bool, type(None)}): _NAMED,
    frozenset(): None,
}


def render_json(report):
    if _WRITER:
        try:
            return _write_report(report)
        except (TypeError, ValueError, RecursionError, IndexError):
            pass  # json.dumps raises its own error, or writes a deep report
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def _write_report(report):
    """``_write(report.to_dict(), 0)``, the items written from the report's
    item table while it keeps one."""
    table = report.item_table
    if table is None:
        return _write(report.to_dict(), 0)
    texts = {k: _write(v, 1) for k, v in report.to_dict_without_items().items()}
    texts["items"] = _write_items(table)
    keys = sorted(texts)
    return _braced("{}", [encode_basestring_ascii(k) + ": " + texts[k] for k in keys], 0)


def _write_items(table):
    """The items of an item table at depth 1.  Each label is encoded once,
    and each field of the records is written as one column, so each
    record's value once; a class's text before and after the labels of its
    simplex is joined from those texts once, and each item is one join.  A
    cross simplex is never empty, so its labels always open a line of their
    own."""
    if not table.rows:
        return "[]"
    line, inner = "," + _NEWLINE[3], _NEWLINE[4]
    label = {v: encode_basestring_ascii(name) for v, name in table.labels.items()}
    records = list(table.records.values())
    members = [{} for _ in records]  # per record: key -> '"key": text'
    for k in records[0]:
        key = encode_basestring_ascii(k) + ": "
        for member, text in zip(members, _column([r[k] for r in records], 3)):
            member[k] = key + text
    # an item's sorted keys, cut at "dim" and at "simplex" ("dim" < "simplex")
    keys = sorted([*records[0], "dim", "simplex"])
    dim, simplex = keys.index("dim"), keys.index("simplex")
    parts = {}
    for obs, member in zip(table.records, members):
        before = "".join(member[k] + line for k in keys[:dim])
        between = "".join(line + member[k] for k in keys[dim + 1 : simplex])
        after = "".join(line + member[k] for k in keys[simplex + 1 :])
        parts[obs] = (
            "{" + _NEWLINE[3] + before + '"dim": ',
            between + line + '"simplex": [' + inner,
            _NEWLINE[3] + "]" + after + _NEWLINE[2] + "}",
        )
    heads, tails = {}, {}
    for c in table.classes:
        to_dim, to_simplex, tails[c] = parts[c.obs]
        heads[c] = to_dim + int.__repr__(c.dim) + to_simplex
    join = ("," + inner).join
    return _braced(
        "[]", [heads[c] + join(map(label.__getitem__, s)) + tails[c] for s, c in table.rows], 1
    )


def _braced(brackets, texts, depth):
    """A list or dict at nesting ``depth`` from the texts of its entries."""
    inner = _NEWLINE[depth + 1]
    return brackets[0] + inner + ("," + inner).join(texts) + _NEWLINE[depth] + brackets[1]


def _write(value, depth):
    """``json.dumps(value, indent=2, sort_keys=True)`` at nesting ``depth``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _NAMED(value)
    if kind is list or kind is dict and set(map(type, value)) <= {str}:
        brackets = "[]" if kind is list else "{}"
        if not value:
            return brackets
        if kind is list:
            items = _column(value, depth + 1)
        else:
            keys = sorted(value)
            texts = _column(list(map(value.__getitem__, keys)), depth + 1)
            items = [k + ": " + t for k, t in zip(map(encode_basestring_ascii, keys), texts)]
        return _braced(brackets, items, depth)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", _NEWLINE[depth])


def _column(values, depth):
    """The texts of ``values``, each at nesting ``depth``."""
    kinds = frozenset(map(type, values))
    if kinds in _ENCODE:
        return list(map(_ENCODE[kinds], values))
    if kinds == {list}:
        items = frozenset(map(type, chain.from_iterable(values)))
        if items in _ENCODE:
            encode, inner, close = _ENCODE[items], _NEWLINE[depth + 1], _NEWLINE[depth] + "]"
            join = ("," + inner).join
            return ["[" + inner + join(map(encode, v)) + close if v else "[]" for v in values]
    elif kinds == {dict}:
        keys = _record_keys(values)
        if keys is not None:
            inner = _NEWLINE[depth + 1]
            heads = [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
            template = "{" + inner + ("," + inner).join(heads) + _NEWLINE[depth] + "}"
            columns = [_column(list(map(itemgetter(k), values)), depth + 1) for k in keys]
            return [template % row for row in zip(*columns)]
    return [_write(v, depth) for v in values]


def _record_keys(dicts):
    """The sorted keys that all ``dicts`` share, if nonempty and ``str``."""
    keys = dicts[0].keys()
    if set(map(type, keys)) != {str} or not all(map(keys.__eq__, map(dict.keys, dicts))):
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
