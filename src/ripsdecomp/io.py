"""Input documents: distance matrices, facet lists, covers.

Formats:

* JSON distance file: ``{"points": [...], "distances": [[...], ...]}`` with a
  full symmetric matrix; entries may be numbers, rational strings "p/q",
  decimal strings, or "inf".  A number literal is read exactly as written
  (``1e400`` is finite, ``0.30000000000000001`` is not 3/10), as its string
  spelling would be; an exponent past 4,300 either way is refused.
* Triangular CSV: a header row with all point labels, then one row per point
  from the second on, holding its distances to the points before it.
* JSON facet file: ``{"facets": [[...], ...]}``.
* JSON cover file: ``{"X": [...], "Y": [...]}``.

Every file is UTF-8 text; a leading byte-order mark is skipped.  Labels
that are JSON numbers keep the float values ``json.loads`` gives them.
"""

import csv
import io as io_mod
import json
from decimal import Decimal
from pathlib import Path

from .complexes import Complex, Cover
from .errors import InvalidInput
from .metric import DistanceSpace

__all__ = [
    "InputDocument",
    "cover_for_labels",
    "intern_facets",
    "load_cover",
    "load_input",
    "parse_distance_csv",
    "parse_distance_json",
    "parse_facets_json",
]


class InputDocument:
    """Either a distance space or a facet-built complex, never both."""

    __slots__ = ("space", "facet_complex", "facet_labels")

    def __init__(self, space=None, facet_complex=None, facet_labels=None):
        if (space is None) == (facet_complex is None):
            raise InvalidInput("exactly one of distances / facets must be present")
        self.space = space
        self.facet_complex = facet_complex
        self.facet_labels = facet_labels


_JSON = json.JSONDecoder()
#: number literals as Decimal, so a distance keeps every digit of its text
_EXACT_JSON = json.JSONDecoder(parse_float=Decimal)


def _float(value):
    """A label read by ``_EXACT_JSON`` as the value ``json.loads`` gives it."""
    return float(value) if isinstance(value, Decimal) else value


def _label_key(label):
    if isinstance(label, bool):
        return (2, str(label))
    if isinstance(label, (int, float)):
        return (0, label)
    return (1, str(label))


def _list_of(kinds, value):
    return isinstance(value, list) and all(isinstance(v, kinds) for v in value)


def intern_facets(facets):
    """Dense integer ids for facet labels, in sorted label order.  Distinct
    labels that compare equal (1, 1.0, true) or print alike (1, "1") would
    be one vertex, or two that no cover or report tells apart: refused."""
    labels = [lab for _, lab in dict.fromkeys((type(v), v) for f in facets for v in f)]
    seen = {}
    for lab in labels:
        for key in (("value", lab), ("text", str(lab))):
            if key in seen:
                a, b = json.dumps(seen[key]), json.dumps(lab)
                raise InvalidInput(f"facet labels {a} and {b} cannot be told apart")
            seen[key] = lab
    labels.sort(key=_label_key)
    index = {lab: i for i, lab in enumerate(labels)}
    interned = [[index[v] for v in f] for f in facets]
    complex_ = Complex.from_facets(interned, labels=dict(enumerate(labels)))
    return complex_, labels


def parse_distance_json(obj):
    try:
        points = obj["points"]
        rows = obj["distances"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput("distance JSON needs 'points' and 'distances'") from exc
    if not isinstance(points, list) or not _list_of(list, rows):
        raise InvalidInput("'points' must be a list and 'distances' a list of lists")
    return DistanceSpace([str(_float(p)) for p in points], rows)


def parse_facets_json(obj):
    try:
        facets = obj["facets"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput("facet JSON needs 'facets'") from exc
    if not isinstance(facets, list) or not facets:
        raise InvalidInput("'facets' must be a nonempty list")
    facets = [list(map(_float, f)) if isinstance(f, list) else f for f in facets]
    if not all(_list_of((str, int, float), f) for f in facets):
        raise InvalidInput("each facet must be a list of vertex labels")
    return facets


def parse_distance_csv(text):
    """Lower-triangular CSV: header of labels, then row i with i cells."""
    rows = [r for r in csv.reader(io_mod.StringIO(text)) if any(c.strip() for c in r)]
    if not rows:
        raise InvalidInput("empty CSV")
    labels = [c.strip() for c in rows[0]]
    n = len(labels)
    if len(rows) != n:
        raise InvalidInput(
            f"expected {n - 1} triangular rows after the header, got {len(rows) - 1}"
        )
    matrix = [[0] * n for _ in range(n)]
    for i in range(1, n):
        cells = [c.strip() for c in rows[i]]
        if len(cells) != i:
            raise InvalidInput(f"row {i + 1} must have {i} cells, has {len(cells)}")
        for j, cell in enumerate(cells):
            matrix[i][j] = cell
            matrix[j][i] = cell
    return DistanceSpace(labels, matrix)


def _read_text(path):
    try:
        return path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: not UTF-8 text: {exc}") from exc


def _read_json(path, decoder):
    try:
        return decoder.decode(_read_text(path))
    except (ValueError, RecursionError) as exc:
        # bad JSON, an integer literal past Python's digit limit, or arrays
        # nested past its recursion limit
        raise InvalidInput(f"{path}: cannot decode JSON: {exc}") from exc


def load_input(path):
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return InputDocument(space=parse_distance_csv(_read_text(path)))
    obj = _read_json(path, _EXACT_JSON)
    if isinstance(obj, dict) and "facets" in obj:
        complex_, labels = intern_facets(parse_facets_json(obj))
        return InputDocument(facet_complex=complex_, facet_labels=labels)
    if isinstance(obj, dict) and "distances" in obj:
        return InputDocument(space=parse_distance_json(obj))
    raise InvalidInput(f"{path}: neither a distance file nor a facet file")


def load_cover(path):
    path = Path(path)
    obj = _read_json(path, _JSON)
    if not isinstance(obj, dict) or not all(isinstance(obj.get(s), list) for s in "XY"):
        raise InvalidInput("cover JSON needs lists 'X' and 'Y'")
    return [str(p) for p in obj["X"]], [str(p) for p in obj["Y"]]


def cover_for_labels(document, x_labels, y_labels):
    """Interned cover of a facet document; labels missing from it are
    refused.  (A distance document takes its cover through ``MetricCover``.)"""
    index = {str(lab): i for i, lab in enumerate(document.facet_labels)}
    missing = [p for p in list(x_labels) + list(y_labels) if str(p) not in index]
    if missing:
        raise InvalidInput(f"cover labels not in the input: {missing}")
    return Cover(
        (index[str(p)] for p in x_labels), (index[str(p)] for p in y_labels)
    )
