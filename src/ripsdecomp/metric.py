"""Finite distance spaces, Vietoris-Rips complexes, and metric gluings.

Distances are exact rationals by default (``fractions.Fraction``), with
``math.inf`` representing an infinite distance.  A space may carry a
comparison tolerance ``tol`` for the closed threshold test ``d <= r``; the
exact default is ``tol = 0``, which every shipped example uses.

The triangle inequality is checked on ints: the finite entries are scaled
once by their least common denominator, and ``inf`` stands in as the
sentinel 2 * max + 1, larger than any sum of two finite entries, which is
exact because distances are never negative.

All predicates are pure functions of immutable inputs.  Failed predicates
report the first counterexample in the order the points were listed.
"""

import math
import operator
import warnings
from fractions import Fraction
from itertools import combinations

from .complexes import Complex
from .errors import CoverError, GluingMismatch, InvalidInput

__all__ = [
    "CheckResult",
    "DistanceSpace",
    "MetricCover",
    "check_cross_domination",
    "check_shared_witness",
    "check_simplex_assumption",
    "check_strong_simplex_assumption",
    "diam",
    "glue",
    "is_metric_gluing",
    "is_pseudometric",
    "parse_distance",
    "shared_witnesses",
    "validate",
    "vietoris_rips",
]

INF = math.inf


def parse_distance(value):
    """Exact distance from a number or string ("p/q", decimal, or "inf")."""
    if value is None:
        raise InvalidInput("missing distance value")
    if isinstance(value, str):
        text = value.strip().lower()
        if text in ("inf", "infinity", "+inf"):
            return INF
        try:
            out = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInput(f"cannot parse distance {value!r}") from exc
    elif isinstance(value, float):
        if math.isinf(value):
            return INF
        if math.isnan(value):
            raise InvalidInput("NaN is not a distance")
        out = Fraction(str(value))
    elif isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        out = Fraction(value)
    else:
        raise InvalidInput(f"cannot parse distance {value!r}")
    if out < 0:
        raise InvalidInput(f"negative distance {value!r}")
    return out


class DistanceSpace:
    """Finite labeled point set with a square matrix of extended distances."""

    __slots__ = ("labels", "matrix", "tol", "_index")

    def __init__(self, labels, matrix, tol=0):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInput("duplicate point labels")
        n = len(self.labels)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise InvalidInput("distance matrix must be square and match the labels")
        self.matrix = tuple(
            tuple(v if v is INF else parse_distance(v) for v in row) for row in matrix
        )
        self.tol = parse_distance(tol)
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def __len__(self):
        return len(self.labels)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise InvalidInput(f"unknown point {label!r}") from None

    def d(self, i, j):
        return self.matrix[i][j]

    def d_label(self, a, b):
        return self.matrix[self.index(a)][self.index(b)]

    def within(self, value, r):
        """Closed threshold test ``value <= r`` honoring the tolerance."""
        return value <= r + self.tol

    def subspace(self, labels):
        idx = [self.index(lab) for lab in labels]
        return DistanceSpace(
            [self.labels[i] for i in idx],
            [[self.matrix[i][j] for j in idx] for i in idx],
            tol=self.tol,
        )

    def require_valid(self):
        bad = validate(self)
        if bad:
            raise InvalidInput(f"not a distance space: first violation {bad[0]}")
        return self


def validate(space):
    """Every (i, j) violating symmetry, plus every (i, i) violating reflexivity."""
    bad = []
    n = len(space)
    for i in range(n):
        if space.matrix[i][i] != 0:
            bad.append((i, i))
        for j in range(i + 1, n):
            if space.matrix[i][j] != space.matrix[j][i]:
                bad.append((i, j))
    return bad


def is_pseudometric(space):
    """None when the triangle inequality holds; else the first witness triple
    of labels (x, y, z), in label order, with d(x, z) > d(x, y) + d(y, z).

    Runs on ints: finite entries are scaled by their least common
    denominator and ``inf`` becomes S = 2 * max + 1.  S exceeds every sum of
    two finite entries and no sum containing S is below a finite entry or S,
    so each comparison agrees with the extended rationals.  A pair (x, y) is
    scanned over z only when some d(x, z) - d(y, z) exceeds d(x, y).
    """
    finite = [v for row in space.matrix for v in row if v is not INF]
    scale = math.lcm(*{v.denominator for v in finite})
    sentinel = 2 * int(max(finite, default=0) * scale) + 1
    rows = [
        [sentinel if v is INF else v.numerator * (scale // v.denominator) for v in row]
        for row in space.matrix
    ]
    for i, row_i in enumerate(rows):
        for j, row_j in enumerate(rows):
            d_ij = row_i[j]
            if max(map(operator.sub, row_i, row_j)) > d_ij:
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
    """Flag complex with an edge between every pair at distance <= r.

    Vertex ids are positions in the space's label order; the complex carries
    the id-to-label table.
    """
    space.require_valid()
    r = parse_distance(r)
    n = len(space)
    edges = [
        (i, j)
        for i, j in combinations(range(n), 2)
        if space.within(space.matrix[i][j], r)
    ]
    return Complex.flag(
        range(n), edges, dim_cap=dim_cap, labels=dict(enumerate(space.labels))
    )


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
            sp = self.space
            ys = self._ordered(self.y - self.a)
            self._cross_pairs = [
                (i, j)
                for i in self._ordered(self.x - self.a)
                for j in ys
                if sp.within(sp.matrix[i][j], self.r)
            ]
        return self._cross_pairs

    def labels_of(self, idx):
        return tuple(self.space.labels[i] for i in idx)


class CheckResult:
    """Outcome of a decidable hypothesis: ok flag, witness labels, note.

    The witness is the certifying object on success for existential checks
    (e.g. the shared witness point) and the first counterexample on failure
    for universal checks.
    """

    __slots__ = ("ok", "witness", "note")

    def __init__(self, ok, witness=None, note=""):
        self.ok = ok
        self.witness = witness
        self.note = note

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"CheckResult(ok={self.ok}, witness={self.witness!r}, note={self.note!r})"


def glue(dx, dy, shared):
    """Gluing of two pseudometrics along their shared points.

    Distances inside either space are kept; a cross pair gets the smallest
    detour through the shared part.  The shared labels must be exactly the
    common labels of the two spaces and the two sides must agree on them.
    """
    shared = list(shared)
    common = set(dx.labels) & set(dy.labels)
    if set(shared) != common:
        raise InvalidInput("shared labels must be exactly the common labels")
    for a in shared:
        for b in shared:
            if dx.d_label(a, b) != dy.d_label(a, b):
                raise GluingMismatch(
                    f"sides disagree on ({a!r}, {b!r}): "
                    f"{dx.d_label(a, b)} vs {dy.d_label(a, b)}"
                )
    labels = list(dx.labels) + [p for p in dy.labels if p not in common]
    x_set, y_set = set(dx.labels), set(dy.labels)
    if not shared and (x_set - common) and (y_set - common):
        warnings.warn(
            "gluing along an empty shared part: cross distances are infinite",
            stacklevel=2,
        )
    n = len(labels)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            p, q = labels[i], labels[j]
            if p in x_set and q in x_set:
                matrix[i][j] = dx.d_label(p, q)
            elif p in y_set and q in y_set:
                matrix[i][j] = dy.d_label(p, q)
            else:
                if p in y_set:
                    p, q = q, p
                cross = [dx.d_label(p, a) + dy.d_label(a, q) for a in shared]
                matrix[i][j] = min(cross) if cross else INF
    tol = dx.tol if dx.tol >= dy.tol else dy.tol
    return DistanceSpace(labels, matrix, tol=tol)


def is_metric_gluing(space, x, y):
    """None when every cross distance is realized through the intersection;
    else the first witness pair of labels."""
    xi = [space.index(p) for p in x]
    yi = [space.index(p) for p in y]
    a = set(xi) & set(yi)
    for i in sorted(set(xi) - a):
        for j in sorted(set(yi) - a):
            through = [space.matrix[i][k] + space.matrix[k][j] for k in sorted(a)]
            best = min(through) if through else INF
            gap = space.matrix[i][j] - best
            if gap > space.tol or -gap > space.tol:
                return (space.labels[i], space.labels[j])
    return None


def check_shared_witness(mc):
    """Is some shared point within r of both ends of every close cross pair?

    Success carries the first such witness in point order; failure carries no
    witness (an empty intersection fails outright).
    """
    a = mc._ordered(mc.a)
    if not a:
        return CheckResult(False, note="the intersection is empty")
    pairs = mc.cross_pairs_within()
    sp = mc.space
    for v in a:
        if all(
            sp.within(sp.matrix[i][v], mc.r) and sp.within(sp.matrix[j][v], mc.r)
            for i, j in pairs
        ):
            return CheckResult(True, witness=sp.labels[v])
    return CheckResult(False, note="no shared point is within r of every close cross pair")


def shared_witnesses(mc):
    """Every shared point that certifies the shared-witness hypothesis."""
    sp = mc.space
    pairs = mc.cross_pairs_within()
    return [
        v
        for v in mc._ordered(mc.a)
        if all(
            sp.within(sp.matrix[i][v], mc.r) and sp.within(sp.matrix[j][v], mc.r)
            for i, j in pairs
        )
    ]


def check_cross_domination(mc):
    """Radius-free domination: every cross distance is at least the distance
    from either end to any shared point.  Witness on failure: (x, y, v)."""
    if not mc.a:
        return CheckResult(False, note="the intersection is empty")
    sp = mc.space
    for i in mc._ordered(mc.x - mc.a):
        for j in mc._ordered(mc.y - mc.a):
            for v in mc._ordered(mc.a):
                if sp.matrix[i][j] < sp.matrix[i][v] or sp.matrix[i][j] < sp.matrix[j][v]:
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
    a_idx = mc._ordered(mc.a)
    for v in _cross_edge_vertices(mc):
        near = [k for k in a_idx if sp.within(sp.matrix[k][v], mc.r)]
        for p, q in combinations(near, 2):
            if not sp.within(sp.matrix[p][q], mc.r):
                return CheckResult(
                    False, witness=(sp.labels[v], sp.labels[p], sp.labels[q])
                )
    return CheckResult(True)


def check_strong_simplex_assumption(mc):
    """Twice the gap between shared points near a cross-edge vertex is at
    most the detour through the vertex.  Witness on failure: (v, a, b)."""
    sp = mc.space
    a_idx = mc._ordered(mc.a)
    for v in _cross_edge_vertices(mc):
        near = [k for k in a_idx if sp.within(sp.matrix[k][v], mc.r)]
        for p, q in combinations(near, 2):
            if 2 * sp.matrix[p][q] > sp.matrix[p][v] + sp.matrix[v][q] + sp.tol:
                return CheckResult(
                    False, witness=(sp.labels[v], sp.labels[p], sp.labels[q])
                )
    return CheckResult(True)
