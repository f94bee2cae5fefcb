r"""The decomposition report: its model, and its text and JSON renderings.

A report (``DecompositionReport``) holds every field as plain data, but the
analyzer leaves three as records, in ``report.records`` by field name:

* ``items``: the id -> label map, the obstruction records the cross
  simplices share with the profiles their items carry, and the (simplex,
  class) rows (``_ItemTable``);
* ``profiles``: a ``HomologyProfile`` per part and field;
* ``induced``: an ``InducedMap`` per field and degree.

The JSON form round-trips: ``parse_report(render_json(report)) == report``.
Both renderings carry exactly the same verdict set.

``render_json`` is ``json.dumps(report.to_dict(), indent=2, sort_keys=True)``
byte for byte.  The verdicts, and each field the report still keeps as
records, are written from their records by the field's writer
(``_WRITERS``), with no dict built:

* the verdicts and the induced maps, from their ``CriterionVerdict`` and
  ``InducedMap`` records (``_write_records``): each field one column, each
  record one fill of a template of its keys, and a claim with the keys of a
  connectivity claim through a template of its own;
* the items, from the item table's obstruction records (``_write_items``):
  each vertex label is encoded once, each record fills the item template
  once, each class of cross simplices (one record, one dimension) joins the
  texts around its simplex's labels once, and each cross simplex is one
  join of its class's texts and its labels;
* the profiles, from their ``HomologyProfile`` records (``_write_profiles``):
  one ``%`` template per degree list, filled with the Betti numbers, the
  field and ``reduced``.

A kept field's plain view (``report.items``, ``.profiles``, ``.induced``)
is this text, parsed on the first read (``_Kept``).

Every other value (``_write``) is a scalar, mapped through the functions
the encoder itself calls, or is written by the one encoder ``json.dumps``
would build, which raises its own error on a value it cannot encode.  Its
text is written at depth 0 and shifted to its depth d by
``.replace("\n", "\n" + "  " * d)``: that is exact because strings escape
control characters, so with ``indent`` set a raw newline occurs only
between tokens.
"""

import json
from collections import namedtuple
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from .complexes import _bits

__all__ = ["CriterionVerdict", "DecompositionReport", "parse_report", "render_json", "render_text"]


class CriterionVerdict(
    namedtuple(
        "CriterionVerdict",
        "criterion status witness conclusion claim detail verified_up_to",
        defaults=(None,) * 5,
    )
):
    """Outcome of one criterion: hypothesis status, witness, conclusion.

    ``claim`` is the machine-checkable consequence for the inclusion of the
    cover union into the whole complex: which homology degrees must be
    isomorphisms ("all" or an upper bound), where a surjection is promised,
    and which coefficient characteristic is excluded, if any.
    """

    __slots__ = ()

    def to_dict(self):
        return self._asdict()

    @classmethod
    def from_dict(cls, data):
        optional = {name: data.get(name) for name in cls._fields[2:]}
        return cls(data["criterion"], data["status"], **optional)


#: the fields of a report, as ``to_dict`` gives them
_REPORT_FIELDS = (
    "kind", "cover", "radius", "dim_cap", "fields", "census",
    "items", "verdicts", "profiles", "induced", "soundness", "notes",
)


#: A report's items as one table: ``labels`` maps vertex ids to labels,
#: ``records`` lists the distinct obstruction records in the order of their
#: first classes, ``profiles`` maps the records whose items carry a profile
#: (homology-only, in a verified report) to it, and ``classes`` and ``rows``
#: are those of the context: the (simplex, class) pairs in report order.
_ItemTable = namedtuple("_ItemTable", "labels records profiles classes rows")


#: the line break before a token at each depth
_NEWLINE = ["\n" + "  " * depth for depth in range(32)]

#: the encoder of a scalar by its exact type
_NAMED = {True: "true", False: "false", None: "null"}.__getitem__
_SCALAR = {
    str: encode_basestring_ascii, int: int.__repr__, bool: _NAMED, type(None): _NAMED
}

#: the encoder ``json.dumps(value, indent=2, sort_keys=True)`` builds
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True).encode


def _braced(brackets, texts, depth):
    """A list or dict at nesting ``depth`` from the texts of its entries."""
    if not texts:
        return brackets
    inner = _NEWLINE[depth + 1]
    return brackets[0] + inner + ("," + inner).join(texts) + _NEWLINE[depth] + brackets[1]


def _template(keys, depth):
    """The ``%`` template of a dict at nesting ``depth`` with these keys, in
    this order, each value one ``%s``."""
    return _braced("{}", [f'"{key}": %s' for key in keys], depth)


#: the fields of an induced map and of a verdict, in key order
_INDUCED_KEYS = (
    "degree", "dim_source", "dim_target", "field", "injective", "iso", "rank", "surjective"
)
_VERDICT_KEYS = sorted(CriterionVerdict._fields)

#: a connectivity claim at depth 3, its keys in order
_CLAIM_KEYS = ("exclude_char", "iso_upto", "surj_at")
_CLAIM = _template(_CLAIM_KEYS, 3)

#: an item at depth 2; its record fills it with a NUL, which no encoded text
#: holds, where its dimension and its simplex's labels go
_ITEM = _template(("certificate", "dim", "obstruction_vertices", "profile", "simplex", "status"), 2)
_SIMPLEX = "[" + _NEWLINE[4] + "\0" + _NEWLINE[3] + "]"

#: a certificate at depth 3: its central simplex, or its step count
_CENTRAL = _template(("kind", "simplex"), 3) % ('"central"', "%s")
_COLLAPSE = _template(("kind", "steps"), 3) % ('"collapse"', "%s")


def _write_profiles(records):
    """The profiles at depth 1 from their ``HomologyProfile`` records, by
    part, then field."""
    templates = {}
    parts = []
    for name in sorted(records):
        texts = [
            encode_basestring_ascii(coeffs) + ": " + _write_profile(p, templates)
            for coeffs, p in sorted(records[name].items())
        ]
        parts.append(encode_basestring_ascii(name) + ": " + _braced("{}", texts, 2))
    return _braced("{}", parts, 1)


def _write_profile(p, templates):
    """One ``HomologyProfile`` at depth 3, through the template of its
    degree list, made once into ``templates``."""
    key = p.degrees, tuple(p.betti)
    if key not in templates:
        templates[key] = _profile_template(p.degrees, p.betti)
    template, order = templates[key]
    torsion = "{}"
    if p.torsion:
        torsion = _write({str(d): list(t) for d, t in sorted(p.torsion.items())}, 4)
    return template % (
        *map(int.__repr__, map(p.betti.__getitem__, order)),
        encode_basestring_ascii(p.coeffs),
        _NAMED(p.reduced),
        torsion,
    )


def _profile_template(degrees, betti):
    """The ``%`` template of a profile at depth 3 with these degrees and
    Betti keys, and the Betti keys in the order it takes their values: by
    the text of the degree, then coeffs, reduced and the torsion's text."""
    order = sorted(betti, key=str)
    fields = [
        '"betti": ' + _braced("{}", [encode_basestring_ascii(str(d)) + ": %s" for d in order], 4),
        '"coeffs": %s',
        '"degrees": ' + _braced("[]", list(map(int.__repr__, degrees)), 4),
        '"reduced": %s',
        '"torsion": %s',
    ]
    return _braced("{}", fields, 3), order


def _write_records(records, keys):
    """Records at depth 1 from their fields, the attributes named by
    ``keys``: each field one column at depth 3, a claim through ``_CLAIM``
    when it has the keys of a connectivity claim, and each record one fill
    of the template of ``keys``.  When a value cannot be encoded, the
    records are encoded again one by one, as ``json.dumps`` walks them, so
    that its error is the one raised."""
    template = _template(keys, 2)
    try:
        columns = [
            (_claims if key == "claim" else _column)(list(map(attrgetter(key), records)), 3)
            for key in keys
        ]
    except (TypeError, ValueError):
        for record in records:
            _ENCODER({key: getattr(record, key) for key in keys})
        raise
    return _braced("[]", [template % row for row in zip(*columns)], 1)


def _claims(claims, depth):
    """A column of verdict claims at ``depth``, 3, the depth of ``_CLAIM``."""
    return [
        _CLAIM % tuple(_write(c[k], 4) for k in _CLAIM_KEYS)
        if type(c) is dict and c.keys() == set(_CLAIM_KEYS) else _write(c, depth)
        for c in claims
    ]


def _write_items(table):
    """The items of an item table at depth 1.  Each label is encoded once,
    and each obstruction record fills ``_ITEM`` once, cut into the text
    before its dimension, between that and its simplex's labels, and after
    them; a class joins its record's first two with its dimension once, and
    each item is one join.  A cross simplex is never empty, so its labels
    always open a line of their own."""
    labels = {v: encode_basestring_ascii(name) for v, name in table.labels.items()}.__getitem__
    templates = {}
    parts = {}
    for obs in table.records:
        cert, profile = obs.certificate, table.profiles.get(obs)
        if cert is None:
            certificate = "null"
        elif cert.kind == "central":
            certificate = _CENTRAL % _braced("[]", list(map(labels, cert.central)), 4)
        else:
            certificate = _COLLAPSE % int.__repr__(cert.steps)
        parts[obs] = (_ITEM % (
            certificate,
            "\0",
            _braced("[]", list(map(labels, _bits(obs.mask))), 3),
            "null" if profile is None else _write_profile(profile, templates),
            _SIMPLEX,
            encode_basestring_ascii(obs.status),
        )).split("\0")
    heads, tails = {}, {}
    for c in table.classes:
        to_dim, to_simplex, tails[c] = parts[c.obs]
        heads[c] = to_dim + int.__repr__(c.dim) + to_simplex
    join = ("," + _NEWLINE[4]).join
    return _braced("[]", [heads[c] + join(map(labels, s)) + tails[c] for s, c in table.rows], 1)


def _write(value, depth):
    """``json.dumps(value, indent=2, sort_keys=True)`` at nesting ``depth``."""
    encode = _SCALAR.get(type(value))
    if encode is not None:
        return encode(value)
    return _ENCODER(value).replace("\n", _NEWLINE[depth])


def _column(values, depth):
    """The texts of ``values``, each at nesting ``depth``: a column of one
    scalar type mapped at C level, any other value by ``_write``."""
    kinds = set(map(type, values))
    if len(kinds) == 1 and (kind := kinds.pop()) in _SCALAR:
        return list(map(_SCALAR[kind], values))
    return [_write(v, depth) for v in values]


#: the writer of the verdicts and of each field a report may keep as records
_WRITERS = {
    "items": _write_items,
    "profiles": _write_profiles,
    "induced": lambda records: _write_records(records, _INDUCED_KEYS),
    "verdicts": lambda records: _write_records(records, _VERDICT_KEYS),
}


class _Kept:
    """A report field that the analyzer may leave as records, in
    ``report.records``.  The first read parses the text the field's writer
    writes from them, caches it and drops the records; assigning the field
    drops them too."""

    def __set_name__(self, owner, name):
        self.name, self.slot = name, "_" + name

    def __get__(self, report, owner=None):
        if report is None:
            return self
        if self.name in report.records:
            self.__set__(report, json.loads(_WRITERS[self.name](report.records[self.name])))
        return getattr(report, self.slot)

    def __set__(self, report, value):
        setattr(report, self.slot, value)
        report.records.pop(self.name, None)


class DecompositionReport:
    """Everything the analyzer decided, as JSON-ready plain data.

    ``records`` maps each field still kept as records to them.  The first
    read of ``items``, ``profiles`` or ``induced`` parses its writer's text
    (``_Kept``), so its value is what ``parse_report`` reads back, key order
    included, with no object shared between items.
    """

    __slots__ = (
        "kind", "cover", "radius", "dim_cap", "fields", "census", "verdicts", "soundness",
        "notes", "records", "_items", "_profiles", "_induced",
    )

    items = _Kept()
    profiles = _Kept()
    induced = _Kept()

    def __init__(self, records=(), **kw):
        self.records = {}
        for name in _REPORT_FIELDS:
            setattr(self, name, kw.get(name))
        self.notes = self.notes or []
        self.records.update(records)

    def verdict(self, criterion):
        for v in self.verdicts:
            if v.criterion == criterion:
                return v
        raise KeyError(criterion)

    def to_dict(self):
        out = {name: getattr(self, name) for name in _REPORT_FIELDS}
        out["verdicts"] = [v.to_dict() for v in self.verdicts]
        return out

    @classmethod
    def from_dict(cls, data):
        kw = {name: data.get(name) for name in _REPORT_FIELDS}
        kw["verdicts"] = [CriterionVerdict.from_dict(v) for v in data["verdicts"]]
        return cls(**kw)

    def __eq__(self, other):
        if not isinstance(other, DecompositionReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def render_json(report):
    """``json.dumps(report.to_dict(), indent=2, sort_keys=True)``, the
    verdicts and each field the report keeps as records written straight
    from their records.  The fields are written in key order, so of values
    in two fields that cannot be encoded, the one ``json.dumps`` meets
    first raises."""
    records = {**report.records, "verdicts": report.verdicts}
    texts = [
        f'"{name}": '
        + (_WRITERS[name](records[name]) if name in records else _write(getattr(report, name), 1))
        for name in sorted(_REPORT_FIELDS)
    ]
    return _braced("{}", texts, 0)


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
