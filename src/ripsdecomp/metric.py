"""Finite distance spaces, Vietoris-Rips complexes, and the metric hypotheses
of the decomposition criteria as decidable predicates.

Distances are exact rationals by default (``fractions.Fraction``), with
``math.inf`` representing an infinite distance.  A space may carry a
comparison tolerance ``tol`` for the closed threshold test ``d <= r``; the
exact default is ``tol = 0``, which every shipped example uses.

A space is built from two tables, both made eagerly from one parse of each
distinct entry.  The entries are keyed by value when the whole matrix has
one type and by (type, value) otherwise, since equal values of different
types can parse apart: ``2**60 == float(2**60)``, but the float reads as
``Fraction("1.152921504606847e+18")``.  Each distinct key is parsed once, in
row order of first appearance, so the first bad entry is the one refused.
Every row is then mapped through two small dicts at C level:

* the exact matrix (``DistanceSpace.matrix``), from which everything
  rendered (diameters, witnesses, radii) is read, and which
  ``check_strong_simplex_assumption``, ``diam`` and ``DistanceSpace.within``
  compare;
* its integer scaling (``DistanceSpace.scaled``), which validation, the
  closeness tests (Vietoris-Rips, the cross pairs, shared witnesses, the
  simplex assumption), the triangle screen, the metric gluing test and
  cross domination read: the finite entries are multiplied by their least
  common denominator, and ``inf`` stands in as the sentinel S = 2 * max + 1,
  larger than any sum of two finite entries, which is exact because
  distances are never negative.

Threshold tests ``d <= r + tol`` read one boolean closeness table per space
and radius, each row compared as a whole against one bound: a scaled entry
is close when it is at most min(floor((r + tol) * scale), S - 1), so ``inf``
is never close to a finite radius; when r + tol is infinite the bound is S
and every entry is close.  The Vietoris-Rips graph is read straight off the
closeness rows: the neighbours of point i are the close positions of row i
other than i.

The triangle inequality is screened with packed ints.  Each scaled row is
one int P_i with a w-bit field per point, w = bitlen(2 T) + 2 for the largest
scaled entry T (at most S), and G has the top (guard) bit of every field set.
For a pair (i, j), field k of G - P_i + P_j + d_ij * ONES holds
2^(w-1) - d_ik + d_jk + d_ij, which lies in [0, 2^w) because every entry is
in [0, T]; so no field borrows from or carries into its neighbour, and the
guard bit of field k is clear exactly when d_ik > d_ij + d_jk.  Only a pair
whose screen fires is scanned point by point, so the first witness in label
order is unchanged.

All predicates are pure functions of immutable inputs.  Failed predicates
report the first counterexample in the order the points were listed.
"""

import math
from collections import namedtuple
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from itertools import chain, combinations, compress
from operator import add

from .complexes import Complex
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

    The exact matrix and its integer scaling are built on construction from
    one parse of each distinct entry (module docstring); the closeness table
    of a radius is built on its first use.
    """

    __slots__ = ("labels", "matrix", "tol", "_index", "_ints", "_close")

    def __init__(self, labels, matrix, tol=0):
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
        sentinel = 2 * max(ints.values(), default=0) + 1
        ints.update(dict.fromkeys(exact.keys() - finite.keys(), sentinel))
        self.matrix = tuple(tuple(map(exact.__getitem__, row)) for row in matrix)
        rows = tuple(tuple(map(ints.__getitem__, row)) for row in matrix)
        self._ints = (scale, sentinel, rows)
        self.tol = parse_distance(tol)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._close = {}        # radius -> closeness table, on demand

    def __len__(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise InvalidInput(f"unknown point {label!r}") from None

    def within(self, value, r):
        """Closed threshold test ``value <= r`` honoring the tolerance."""
        return value <= r + self.tol

    def scaled(self):
        """(scale, sentinel, rows): the matrix as ints (module docstring).
        Callers must not modify the rows."""
        return self._ints

    def closeness(self, r):
        """Table whose (i, j) entry is ``within(matrix[i][j], r)``, built once per
        radius from the scaled matrix; ``r`` is a parsed distance.  Callers
        must not modify it."""
        table = self._close.get(r)
        if table is None:
            scale, sentinel, rows = self._ints
            limit = r + self.tol
            # inf + Fraction is a float inf, so compare by value
            bound = sentinel if limit == INF else min(math.floor(limit * scale), sentinel - 1)
            table = tuple(tuple(map(bound.__ge__, row)) for row in rows)
            self._close[r] = table
        return table

    def require_valid(self):
        bad = validate(self)
        if bad:
            raise InvalidInput(f"not a distance space: first violation {bad[0]}")
        return self


def validate(space):
    """Every (i, j) violating symmetry, plus every (i, i) violating reflexivity."""
    rows = space.scaled()[2]
    bad = []
    for i, row in enumerate(rows):
        if row[i] != 0:
            bad.append((i, i))
        for j in range(i + 1, len(rows)):
            if row[j] != rows[j][i]:
                bad.append((i, j))
    return bad


def _triangle_screen(rows):
    """The ordered pairs (i, j), in order, with some k where
    rows[i][k] > rows[i][j] + rows[j][k], by the packed test of the module
    docstring; every entry must be a nonnegative int."""
    top = max((v for row in rows for v in row), default=0)
    width = (2 * top).bit_length() + 2
    ones = sum(1 << (width * k) for k in range(len(rows)))
    guard = ones << (width - 1)
    packed = [sum(v << (width * k) for k, v in enumerate(row)) for row in rows]
    for i, row_i in enumerate(rows):
        lifted = guard - packed[i]
        for j, p_j in enumerate(packed):
            if (lifted + p_j + row_i[j] * ones) & guard != guard:
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
    best = Fraction(0)
    for i, j in combinations(idx, 2):
        v = space.matrix[i][j]
        if v > best:
            best = v
    return best


def vietoris_rips(space, r, dim_cap):
    """Flag complex with an edge between every pair at distance <= r: the
    neighbour bitmask of a point is read off its closeness row.

    Vertex ids are positions in the space's label order; the complex carries
    the id-to-label table.
    """
    space.require_valid()
    close = space.closeness(parse_distance(r))
    if dim_cap < 0:
        raise InvalidInput("dim_cap must be nonnegative")
    ids = range(len(space))
    bits = [1 << i for i in ids]
    adj = {i: sum(compress(bits, row)) & ~bit for i, bit, row in zip(ids, bits, close)}
    return Complex(adj=adj, dim_cap=dim_cap, labels=dict(enumerate(space.labels)))


class MetricCover:
    """A distance space with a two-set cover of its points and a radius."""

    __slots__ = ("space", "x", "y", "r", "_cross_pairs")

    def __init__(self, space, x, y, r):
        self.space = space
        self.x = frozenset(space.index(p) for p in x)
        self.y = frozenset(space.index(p) for p in y)
        if self.x | self.y != set(range(len(space))):
            raise CoverError("cover must use every point of the space")
        self.r = parse_distance(r)
        self._cross_pairs = None

    @property
    def a(self):
        return self.x & self.y

    def _ordered(self, idx_set):
        return [i for i in range(len(self.space)) if i in idx_set]

    def cross_pairs_within(self):
        """Cross pairs (x outside Y, y outside X) at distance <= r, in order.

        Computed on the first call; every call returns that same list, which
        callers must not modify.
        """
        if self._cross_pairs is None:
            close = self.space.closeness(self.r)
            ys = self._ordered(self.y - self.a)
            self._cross_pairs = [
                (i, j)
                for i in self._ordered(self.x - self.a)
                for j in ys
                if close[i][j]
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
    """None when every cross distance is realized through the intersection,
    within ``tol``; else the first witness pair of labels.

    Runs on the scaled ints.  A sum of two entries is infinite exactly when
    it is at least S, and a cross distance d with shortest route b through
    the intersection is realized when both are infinite, or both are finite
    with |d - b| * scale at most floor(tol * scale); an infinite ``tol``
    realizes every pair.
    """
    xi = [space.index(p) for p in x]
    yi = [space.index(p) for p in y]
    a = sorted(set(xi) & set(yi))
    if space.tol == INF:
        return None
    scale, sentinel, rows = space.scaled()
    slack = math.floor(space.tol * scale)
    legs = {j: [rows[k][j] for k in a] for j in sorted(set(yi).difference(a))}
    for i in sorted(set(xi).difference(a)):
        row = rows[i]
        out = [row[k] for k in a]
        for j, back in legs.items():
            # no route through an empty intersection: the sentinel stands in
            best = min(map(add, out, back), default=sentinel)
            d = row[j]
            if d >= sentinel:
                if best < sentinel:
                    return (space.labels[i], space.labels[j])
            elif best >= sentinel or abs(d - best) > slack:
                return (space.labels[i], space.labels[j])
    return None


def shared_witnesses(mc):
    """Every shared point that certifies the shared-witness hypothesis: the
    points of the intersection within r of both ends of every close cross
    pair, in point order."""
    close = mc.space.closeness(mc.r)
    ends = sorted({u for pair in mc.cross_pairs_within() for u in pair})
    return [v for v in mc._ordered(mc.a) if all(close[u][v] for u in ends)]


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
    for i in mc._ordered(mc.x - mc.a):
        for j in mc._ordered(mc.y - mc.a):
            for v in mc._ordered(mc.a):
                if m[i][j] < m[i][v] or m[i][j] < m[j][v]:
                    return CheckResult(
                        False, witness=(sp.labels[i], sp.labels[j], sp.labels[v])
                    )
    return CheckResult(True)


def _cross_edge_vertices(mc):
    """Vertices of close cross pairs, in point order."""
    seen = set()
    for i, j in mc.cross_pairs_within():
        seen.add(i)
        seen.add(j)
    return [v for v in range(len(mc.space)) if v in seen]


def check_simplex_assumption(mc):
    """Both shared points near a cross-edge vertex must be near each other.

    Equivalent to: the obstruction complex of every such vertex over the
    intersection is a standard simplex.  Witness on failure: (v, a, b).
    """
    sp = mc.space
    close = sp.closeness(mc.r)
    a_idx = mc._ordered(mc.a)
    for v in _cross_edge_vertices(mc):
        near = [k for k in a_idx if close[k][v]]
        for p, q in combinations(near, 2):
            if not close[p][q]:
                return CheckResult(
                    False, witness=(sp.labels[v], sp.labels[p], sp.labels[q])
                )
    return CheckResult(True)


def check_strong_simplex_assumption(mc):
    """Shared points near a cross-edge vertex are near each other (the
    simplex assumption), and twice the gap between them is at most the
    detour through the vertex.  Witness on failure: (v, a, b).

    With ``tol`` = 0 the detour bound implies nearness, as each leg is at
    most r.  A tolerance lets each leg reach r + tol but adds ``tol`` to the
    bound only once, so the gap can pass r + tol while the bound holds; the
    nearness test keeps the strong assumption inside the plain one.
    """
    sp = mc.space
    close = sp.closeness(mc.r)
    a_idx = mc._ordered(mc.a)
    for v in _cross_edge_vertices(mc):
        near = [k for k in a_idx if close[k][v]]
        for p, q in combinations(near, 2):
            if not close[p][q] or 2 * sp.matrix[p][q] > sp.matrix[p][v] + sp.matrix[v][q] + sp.tol:
                return CheckResult(
                    False, witness=(sp.labels[v], sp.labels[p], sp.labels[q])
                )
    return CheckResult(True)
