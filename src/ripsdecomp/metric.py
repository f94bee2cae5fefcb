"""Finite distance spaces, Vietoris-Rips complexes, and the metric hypotheses
of the decomposition criteria as decidable predicates.

Distances are exact rationals (``fractions.Fraction``), with ``math.inf``
representing an infinite distance, and every predicate compares them exactly.

A space keeps one table, which every predicate compares: the integer
scaling (``DistanceSpace.scaled``), the finite entries times their least
common denominator and ``inf`` as the sentinel S = 2 * max + 1, larger than
any sum of two finite entries, which is exact as distances are never
negative.  Entries are keyed by value in a one-type matrix and by (type,
value) in a mixed one, since equal values of different types can parse
apart: ``2**60 == float(2**60)``, but the float reads as
``Fraction("1.152921504606847e+18")``.
Each distinct key is parsed once, in row order of first appearance, so the
first bad entry is the one refused, and each row is mapped through one dict
at C level.  Exact values are made on read (``DistanceSpace.exact``): the
``decompose`` path renders only a diameter, and the exact matrix
(``DistanceSpace.matrix``) is built when it is first read.

Threshold tests ``d <= r`` read one neighbour bitmask per point, built once
per space and radius (``DistanceSpace.closeness``): bit j of the mask of
point i is set when the scaled entry (i, j) is at most one bound,
min(floor(r * scale), S - 1), so ``inf`` is never close to a finite radius;
when r is infinite the bound is S and every entry is close.  Every test
reads mask i at bit j, so an asymmetric space answers as its table reads.
The Vietoris-Rips graph is the masks without their own bits, and the
witness checks intersect the masks with the cover's masks.

The triangle inequality is screened with packed ints.  Each scaled row is
one int P_i, packed at C level, with a w-bit field per point: w is 8, 16, 32
or 64 (one ``struct.Struct``), or whole bytes past that (``int.to_bytes``),
the least that holds bitlen(2 T) + 2 bits for the largest scaled entry T (at
most S).  G has the top (guard) bit of every field set.  For a pair (i, j), field k of
G - P_i + P_j + d_ij * ONES holds 2^(w-1) - d_ik + d_jk + d_ij, which lies
in [0, 2^w) because every entry is in [0, T]; so no field borrows from or
carries into its neighbour, and the guard bit of field k is clear exactly
when d_ik > d_ij + d_jk.  The lifts d * ONES are read from one table of
the distinct values while there are at most n of them, and made pair by
pair past that, so the screen never holds more lifts than packed rows.
Only a pair whose screen fires is scanned point by point, so the first
witness in label order is unchanged.

All predicates are pure functions of immutable inputs.  Failed predicates
report the first counterexample in the order the points were listed.
"""

import math
import struct
from collections import namedtuple
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, compress
from operator import add, and_

from .complexes import Complex, _bits, _mask_of
from .errors import CoverError, InvalidInput

__all__ = [
    "CheckResult",
    "DistanceSpace",
    "MetricCover",
    "check_cross_domination",
    "check_shared_witness",
    "check_simplex_assumption",
    "check_strong_simplex_assumption",
    "diam",
    "is_metric_gluing",
    "is_pseudometric",
    "parse_distance",
    "shared_witnesses",
    "validate",
    "vietoris_rips",
]

INF = math.inf

#: the largest decimal exponent a distance may have, either way: Python's
#: default limit on the digits of an integer string, which ``json`` applies
MAX_DIGITS = 4300


def parse_distance(value):
    """Exact distance from a number, a ``Decimal`` or a string ("p/q",
    decimal, or "inf").  A float or a decimal string reads as the ``Decimal``
    it spells, as ``io`` reads a JSON number literal.  An exponent past
    ``MAX_DIGITS`` either way is refused before any ``Fraction`` is built:
    "1e999999999" is a short text for a number too long to write out."""
    if value is None:
        raise InvalidInput("missing distance value")
    if isinstance(value, str) and "/" in value:
        try:
            out = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"cannot parse distance {value!r}") from exc
    elif isinstance(value, (str, float, Decimal)):
        shown = repr(value) if isinstance(value, str) else str(value)
        try:
            decimal = value if isinstance(value, Decimal) else Decimal(str(value))
        except InvalidOperation as exc:
            raise InvalidInput(f"cannot parse distance {shown}") from exc
        if decimal.is_nan():
            raise InvalidInput("NaN is not a distance")
        if decimal < 0:
            raise InvalidInput(f"negative distance {shown}")
        if decimal.is_infinite():
            return INF
        if abs(decimal.as_tuple().exponent) > MAX_DIGITS:
            raise InvalidInput(f"distance {shown} has an exponent beyond {MAX_DIGITS} digits")
        return Fraction(decimal)
    elif isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        out = Fraction(value)
    else:
        raise InvalidInput(f"cannot parse distance {value!r}")
    if out < 0:
        raise InvalidInput(f"negative distance {value!r}")
    return out


class DistanceSpace:
    """Finite labeled point set with a square matrix of extended distances.

    The integer scaling is built on construction from one parse of each
    distinct entry; the exact matrix is made from it on first read, and the
    closeness masks of a radius on their first use (module docstring).
    """

    __slots__ = ("labels", "_index", "_ints", "_close", "_matrix")

    def __init__(self, labels, matrix):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInput("duplicate point labels")
        n = len(self.labels)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise InvalidInput("distance matrix must be square and match the labels")
        entries = list(chain.from_iterable(matrix))
        mixed = len(set(map(type, entries))) > 1
        if mixed:
            # equal values of different types can parse apart: 2**60 == float(2**60)
            matrix = [list(zip(map(type, row), row)) for row in matrix]
            entries = list(chain.from_iterable(matrix))
        try:
            distinct = dict.fromkeys(entries)
        except TypeError:
            # parse_distance refuses every unhashable value, so this names
            # the first bad entry in row order
            for key in entries:
                parse_distance(key[1] if mixed else key)
            raise
        values = [k[1] for k in distinct] if mixed else distinct
        exact = dict(zip(distinct, map(parse_distance, values)))
        finite = {k: v for k, v in exact.items() if v is not INF}
        scale = math.lcm(*{v.denominator for v in finite.values()})
        ints = {k: v.numerator * (scale // v.denominator) for k, v in finite.items()}
        top = max(ints.values(), default=0)
        ints.update(dict.fromkeys(exact.keys() - finite.keys(), 2 * top + 1))
        rows = tuple(tuple(map(ints.__getitem__, row)) for row in matrix)
        self._ints = (scale, 2 * top + 1, rows)
        self._matrix = None
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._close = {}        # radius -> closeness masks, on demand

    @property
    def matrix(self):
        """The exact distances, made from the scaled table on first read."""
        if self._matrix is None:
            exact = {v: self.exact(v) for v in set(chain.from_iterable(self._ints[2]))}
            self._matrix = tuple(tuple(map(exact.__getitem__, row)) for row in self._ints[2])
        return self._matrix

    def exact(self, value):
        """The exact distance of a scaled entry: ``inf`` for the sentinel."""
        scale, sentinel, _ = self._ints
        return INF if value == sentinel else Fraction(value, scale)

    def __len__(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise InvalidInput(f"unknown point {label!r}") from None

    def scaled(self):
        """(scale, sentinel, rows): the matrix as ints (module docstring).
        Callers must not modify the rows."""
        return self._ints

    def closeness(self, r):
        """One int per point, with bit j of entry i set when
        ``matrix[i][j] <= r``; built once per radius from the scaled rows,
        against one bound (module docstring).  ``r`` is a parsed distance."""
        masks = self._close.get(r)
        if masks is None:
            scale, sentinel, rows = self._ints
            bound = sentinel if r == INF else min(math.floor(r * scale), sentinel - 1)
            bits = [1 << j for j in range(len(rows))]
            masks = tuple(sum(compress(bits, map(bound.__ge__, row))) for row in rows)
            self._close[r] = masks
        return masks

    def require_valid(self):
        bad = validate(self)
        if bad:
            raise InvalidInput(f"not a distance space: first violation {bad[0]}")
        return self


def validate(space):
    """Every (i, j) violating symmetry, plus every (i, i) violating reflexivity."""
    rows = space.scaled()[2]
    n = len(rows)
    if rows == tuple(zip(*rows)) and not any(map(tuple.__getitem__, rows, range(n))):
        return []
    return [
        (i, j) for i in range(n) for j in range(i, n) if rows[i][j] != (rows[j][i] if i != j else 0)
    ]


def _triangle_screen(rows):
    """The ordered pairs (i, j), in order, with some k where
    rows[i][k] > rows[i][j] + rows[j][k], by the packed test of the module
    docstring; every entry must be a nonnegative int."""
    n = len(rows)
    need = ((2 * max(map(max, rows), default=0)).bit_length() + 9) // 8   # bytes a field needs
    size = next((s for s in (1, 2, 4, 8) if s >= need), need)
    if size <= 8:
        pack = struct.Struct(f"<{n}{'BHIQ'[size.bit_length() - 1]}").pack
    else:
        def pack(*row):
            return b"".join([v.to_bytes(size, "little") for v in row])
    packed = [int.from_bytes(pack(*row), "little") for row in rows]
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * n, "little")
    guard = ones << (8 * size - 1)
    values = set(chain.from_iterable(rows))
    lift = {v: v * ones for v in values}.__getitem__ if len(values) <= n else ones.__mul__
    for i, row_i in enumerate(rows):
        lifted = guard - packed[i]
        for j, p_j in enumerate(map(add, packed, map(lift, row_i))):
            if (lifted + p_j) & guard != guard:
                yield i, j


def is_pseudometric(space):
    """None when the triangle inequality holds; else the first witness triple
    of labels (x, y, z), in label order, with d(x, z) > d(x, y) + d(y, z).

    Runs on the scaled ints, where each comparison agrees with the extended
    rationals: S exceeds every sum of two finite entries and no sum
    containing S is below a finite entry or S.  Only the pairs (x, y) that
    the packed screen reports are scanned over z, in order.
    """
    rows = space.scaled()[2]
    for i, j in _triangle_screen(rows):
        row_i, row_j, d_ij = rows[i], rows[j], rows[i][j]
        for k, d_ik in enumerate(row_i):
            if d_ik > d_ij + row_j[k]:
                return (space.labels[i], space.labels[j], space.labels[k])
    return None


def diam(space, points):
    """Largest pairwise distance within a nonempty point set (0 for singletons)."""
    idx = [space.index(p) for p in points]
    if not idx:
        raise InvalidInput("diameter of an empty set")
    rows = space.scaled()[2]
    return space.exact(max((rows[i][j] for i, j in combinations(idx, 2)), default=0))


def vietoris_rips(space, r, dim_cap):
    """Flag complex with an edge between every pair at distance <= r: the
    neighbour bitmask of a point is its closeness mask without its own bit.

    Vertex ids are positions in the space's label order; the complex carries
    the id-to-label table.
    """
    if dim_cap < 0:
        raise InvalidInput("dim_cap must be nonnegative")
    space.require_valid()
    close = space.closeness(parse_distance(r))
    adj = {i: row & ~(1 << i) for i, row in enumerate(close)}
    return Complex(adj=adj, dim_cap=dim_cap, labels=dict(enumerate(space.labels)))


class MetricCover:
    """A distance space with a two-set cover of its points and a radius."""

    __slots__ = ("space", "x", "y", "r", "_cross_pairs", "_near_pairs")

    def __init__(self, space, x, y, r):
        self.space = space
        self.x = frozenset(space.index(p) for p in x)
        self.y = frozenset(space.index(p) for p in y)
        if self.x | self.y != set(range(len(space))):
            raise CoverError("cover must use every point of the space")
        self.r = parse_distance(r)
        self._cross_pairs = self._near_pairs = None

    @property
    def a(self):
        return self.x & self.y

    def cross_pairs_within(self):
        """Cross pairs (x outside Y, y outside X) at distance <= r, in order.

        Computed on the first call; every call returns that same list, which
        callers must not modify.
        """
        if self._cross_pairs is None:
            close = self.space.closeness(self.r)
            ys = _mask_of(self.y - self.x)
            self._cross_pairs = [
                (i, j) for i in sorted(self.x - self.y) for j in _bits(close[i] & ys)
            ]
        return self._cross_pairs

    def labels_of(self, idx):
        return tuple(self.space.labels[i] for i in idx)


#: Outcome of a decidable hypothesis: ok flag, witness labels, note.  The
#: witness is the certifying object on success for existential checks (e.g.
#: the shared witness point) and the first counterexample on failure for
#: universal checks.
CheckResult = namedtuple("CheckResult", "ok witness note", defaults=(None, ""))


def is_metric_gluing(space, x, y):
    """None when every cross distance is realized through the intersection;
    else the first witness pair of labels.

    Runs on the scaled ints.  A sum of two entries is infinite exactly when
    it is at least S, so a cross distance d with shortest route b through
    the intersection is realized when min(b, S) == d.
    """
    xi = [space.index(p) for p in x]
    yi = [space.index(p) for p in y]
    a = sorted(set(xi) & set(yi))
    sentinel, rows = space.scaled()[1:]
    legs = {j: [rows[k][j] for k in a] for j in sorted(set(yi).difference(a))}
    for i in sorted(set(xi).difference(a)):
        row = rows[i]
        out = [row[k] for k in a]
        for j, back in legs.items():
            # no route through an empty intersection: the sentinel stands in
            best = min(map(add, out, back), default=sentinel)
            if min(best, sentinel) != row[j]:
                return (space.labels[i], space.labels[j])
    return None


def shared_witnesses(mc):
    """Every shared point that certifies the shared-witness hypothesis: the
    points of the intersection within r of both ends of every close cross
    pair, in point order."""
    close = mc.space.closeness(mc.r)
    return _bits(reduce(and_, map(close.__getitem__, _cross_edge_vertices(mc)), _mask_of(mc.a)))


def check_shared_witness(mc):
    """Is some shared point within r of both ends of every close cross pair?

    Success carries the first such witness in point order; failure carries no
    witness (an empty intersection fails outright).
    """
    if not mc.a:
        return CheckResult(False, note="the intersection is empty")
    found = shared_witnesses(mc)
    if found:
        return CheckResult(True, witness=mc.space.labels[found[0]])
    return CheckResult(False, note="no shared point is within r of every close cross pair")


def check_cross_domination(mc):
    """Radius-free domination: every cross distance is at least the distance
    from either end to any shared point.  Witness on failure: (x, y, v)."""
    if not mc.a:
        return CheckResult(False, note="the intersection is empty")
    sp = mc.space
    m = sp.scaled()[2]
    a, ys = sorted(mc.a), sorted(mc.y - mc.a)
    legs = [max(map(m[j].__getitem__, a)) for j in ys]     # longest leg into A
    for i in sorted(mc.x - mc.a):
        row = m[i]
        leg = max(map(row.__getitem__, a))
        for j, leg_j in zip(ys, legs):
            d = row[j]
            if d < leg or d < leg_j:     # below some leg of an end
                v = next(v for v in a if d < row[v] or d < m[j][v])
                return CheckResult(False, witness=(sp.labels[i], sp.labels[j], sp.labels[v]))
    return CheckResult(True)


def _cross_edge_vertices(mc):
    """Vertices of close cross pairs, in point order."""
    return sorted({u for pair in mc.cross_pairs_within() for u in pair})


def check_simplex_assumption(mc):
    """Both shared points near a cross-edge vertex must be near each other.

    Equivalent to: the obstruction complex of every such vertex over the
    intersection is a standard simplex.  Witness on failure: (v, a, b).
    """
    return _check_near_pairs(mc)[0]


def check_strong_simplex_assumption(mc):
    """Shared points near a cross-edge vertex are near each other (the
    simplex assumption), and twice the gap between them is at most the
    detour through the vertex.  Witness on failure: (v, a, b).
    """
    return _check_near_pairs(mc)[1]


def _check_near_pairs(mc):
    """The simplex check and the strong one, from one pass over the (v, a,
    b), v a cross-edge vertex and a, b shared points near it.  The first
    with a, b not near fails both; the strong check fails at the first with
    a, b not near or the detour bound broken.  Computed on the first call
    and kept on ``mc``."""
    if mc._near_pairs is not None:
        return mc._near_pairs
    sp = mc.space
    close = sp.closeness(mc.r)
    sentinel, d = sp.scaled()[1:]
    if mc.r == INF:
        # near entries are finite below an infinite radius; at one, S is inf
        d = [[INF if v == sentinel else v for v in row] for row in d]
    a_idx = sorted(mc.a)
    triples = (
        (v, p, q)
        for v in _cross_edge_vertices(mc)
        for p, q in combinations([k for k in a_idx if close[k] >> v & 1], 2)
    )
    simplex = strong = CheckResult(True)
    for v, p, q in triples:
        near = close[p] >> q & 1
        if near and (not strong.ok or 2 * d[p][q] <= d[p][v] + d[v][q]):
            continue
        failed = CheckResult(False, witness=(sp.labels[v], sp.labels[p], sp.labels[q]))
        strong = failed if strong.ok else strong
        if not near:
            simplex = failed
            break
    mc._near_pairs = simplex, strong
    return mc._near_pairs
