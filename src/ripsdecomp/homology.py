"""Exact simplicial homology and contractibility certificates.

Every number is a rank of an integer boundary matrix, counted from its
invariant factors (``linalg.block_invariants``): over a field of
characteristic p (0 for q) the rank is the number of factors p does not
divide, as the Smith transforms stay invertible mod p; integral torsion comes
from the factors above 1.  For L in K, let d(K, L) be d(K) without the rows
of L's n-simplices; Z_n(L) meets B_n(K) in its kernel on B_n(K), so

    rank(H_n L -> H_n K) = dim Z_n(L) - rank d_{n+1}(K) + rank d_{n+1}(K, L).

d_{n+1} is reduced as its transpose, the coboundary delta_n from n-simplices
to their cofaces, in increasing degree, and each delta_n skips the columns
of the n-simplices that are unit pivot rows of the reduced delta_(n-1)
(clearing).  Both keep the integer invariant factors, so every field and
integral torsion stay exact:

* a matrix and its transpose have the same Smith normal form;
* a reduced column c of delta_(n-1) is delta_(n-1) of an integer cochain,
  so delta_n c = 0; when its lowest entry c_t is +-1, the column of t in
  delta_n is an integer combination of the columns of earlier simplices.
  Zeroing it is a unimodular column operation, and dropping the zero column
  changes no invariant.  (Done in decreasing order, each such combination
  still uses unmodified columns.)  A non-unit c_t gives no such combination
  over the integers, so only unit pivot rows clear.

Each complex reduces each d_n once: its simplex levels and the invariants of
every d_n it was asked for are kept in its memo, and every field and degree
reads those same invariants.  d(K, L) is kept in K's memo per subcomplex and
degree.  The checks of a call (subcomplex, field, degree, flag cap) still
run on every call.

The cover square (``cover_square``) of X, Y, A = X & Y, the union K[X] u K[Y]
and the total K is read off one reduction of the total per degree.  Each
degree of the total is ordered by class, each class lexicographic: the cross
simplices (meeting both X - A and Y - A) first, then those inside Y but not
A, those inside X but not A, and those inside A last.  In the coboundary,
then,

* A, X and the union are row suffixes: no coface of a simplex outside a
  subcomplex lies inside it, so the outside columns are zero on the
  subcomplex's rows, a column whose lowest row is inside belongs to the
  subcomplex, and the subcomplex's columns reduce on its rows exactly as
  they would alone.  Its invariants are its block's unit pivots and the
  Smith form of its block's set-aside columns;
* d(total, union) is the column prefix of the cross simplices, whose
  cofaces are cross too, and a prefix of a column reduction is the
  reduction of the prefix;
* a column cleared in the total is a combination of earlier columns in
  every block that holds it: the outside terms vanish on a suffix's rows,
  and the terms before a cross simplex are cross.

Y is no suffix of that order, so it gets one more reduction per degree, of
its own simplices in the same order, with its own clearing.

Reduced homology uses the augmented chain complex, so the empty complex has
rank one in degree -1; that convention makes the suspension-shift
bookkeeping of the analyzer hold verbatim, empty obstructions included.

"Contractible" is always a sufficient certificate here: a central simplex or
a collapse sequence down to a vertex.  Trivial homology without a
certificate is reported as acyclic, never as contractible.
"""

import heapq
from itertools import accumulate, groupby

from . import linalg
from .complexes import central_vertex, cover_union
from .errors import (
    EmptyComplex,
    EnumerationRefused,
    InvalidInput,
    NotASubcomplex,
)

__all__ = [
    "BoundaryMatrix",
    "ContractibilityCertificate",
    "HomologyProfile",
    "InducedMap",
    "boundary_matrix",
    "central_vertex",
    "contractibility_certificate",
    "cover_square",
    "homology",
    "induced_map",
    "is_subcomplex",
    "relative_homology",
]


# ----------------------------------------------------------------- chains


def coboundary_columns(rows, cols):
    """Alternating-sign incidence between simplex lists, as one sparse
    column ``{index in cols: +-1}`` per simplex of ``rows``, holding its
    cofaces: the transpose of the boundary from ``cols`` to ``rows``.

    Faces absent from ``rows`` contribute nothing, which is exactly the
    boundary of a quotient (relative) chain complex.  The empty simplex
    ``()`` may appear as a row to augment the complex.
    """
    index = {s: i for i, s in enumerate(rows)}
    out = [{} for _ in rows]
    for j, s in enumerate(cols):
        for i in range(len(s)):
            r = index.get(s[:i] + s[i + 1 :])
            if r is not None:
                out[r][j] = -1 if i % 2 else 1
    return out


def simplex_levels(complex_, need):
    """Simplices bucketed by dimension, each level lexicographic: levels
    0..need, and any the complex enumerated beyond them.

    A flag complex refuses when simplices beyond its cap are needed; when
    the level at the cap is already empty, downward closure guarantees all
    higher levels are empty too and they are padded in.  The levels are
    enumerated and padded once per complex and shared: callers must not
    modify them.  The refusal is decided on every call.  A part of a cover
    square runs the square's pending reduction first.
    """
    memo = complex_._memo
    pending = memo.get("square")
    if pending is not None:
        pending()
    cap = complex_.dim_cap if complex_.is_flag else None
    top = need if cap is None else min(need, cap)
    levels, complete = memo.get("levels", ([], False))
    if len(levels) <= top and not complete:
        if cap is None:
            levels = [list(level) for _, level in groupby(complex_.simplices(), len)]
        else:
            levels = complex_._clique_levels(top)
        # fewer levels than asked for: every higher level is empty
        complete = cap is None or len(levels) <= top
        memo["levels"] = (levels, complete)
    if cap is not None and need > cap:
        if len(levels) > cap and levels[cap] and complex_.has_simplices_above_cap():
            raise EnumerationRefused(
                f"need simplices of dimension {need}, flag complex capped at {cap}"
            )
    levels.extend([] for _ in range(need + 1 - len(levels)))
    return levels


class BoundaryMatrix:
    """Boundary operator of one degree over the deterministic simplex order."""

    __slots__ = ("degree", "rows", "cols", "entries")

    def __init__(self, degree, rows, cols, entries):
        self.degree = degree
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def __repr__(self):
        return f"BoundaryMatrix(degree={self.degree}, {len(self.rows)}x{len(self.cols)})"


def boundary_matrix(complex_, n, dim_cap=None):
    """The dense degree-n boundary matrix; rows are (n-1)-simplices.  The
    pipeline never builds it; it stays for ``bench/tracing.py``, which counts
    ``verify.boundary_nnz`` from its entries until ROADMAP item 6."""
    if n < 1:
        raise InvalidInput("boundary degree must be at least 1")
    if complex_.is_flag:
        cap = complex_.dim_cap if dim_cap is None else min(dim_cap, complex_.dim_cap)
        if n > cap:
            raise EnumerationRefused(f"degree {n} above the cap {cap}")
    rows = complex_.n_simplices(n - 1)
    cols = complex_.n_simplices(n)
    entries = [[c.get(j, 0) for j in range(len(cols))] for c in coboundary_columns(rows, cols)]
    return BoundaryMatrix(n, rows, cols, entries)


# ----------------------------------------------------------------- profiles


class HomologyProfile:
    """Per-degree Betti numbers, plus torsion prime powers over the integers."""

    __slots__ = ("coeffs", "reduced", "degrees", "betti", "torsion")

    def __init__(self, coeffs, reduced, degrees, betti, torsion=None):
        self.coeffs = coeffs
        self.reduced = reduced
        self.degrees = tuple(degrees)
        self.betti = dict(betti)
        self.torsion = {d: tuple(t) for d, t in (torsion or {}).items() if t}

    def betti_vector(self, lo, hi):
        return tuple(self.betti.get(d, 0) for d in range(lo, hi + 1))

    def torsion_at(self, d):
        return self.torsion.get(d, ())

    def is_trivial(self):
        return all(v == 0 for v in self.betti.values()) and not self.torsion

    def __eq__(self, other):
        if not isinstance(other, HomologyProfile):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.reduced == other.reduced
            and self.degrees == other.degrees
            and self.betti == other.betti
            and self.torsion == other.torsion
        )

    def __repr__(self):
        lo, hi = (self.degrees[0], self.degrees[-1]) if self.degrees else (0, -1)
        return (
            f"HomologyProfile({self.coeffs}, reduced={self.reduced}, "
            f"betti={list(self.betti_vector(lo, hi))})"
        )

    def to_dict(self):
        return {
            "coeffs": self.coeffs,
            "reduced": self.reduced,
            "degrees": list(self.degrees),
            "betti": {str(d): b for d, b in sorted(self.betti.items())},
            "torsion": {str(d): list(t) for d, t in sorted(self.torsion.items())},
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["coeffs"],
            data["reduced"],
            data["degrees"],
            {int(d): b for d, b in data["betti"].items()},
            {int(d): tuple(t) for d, t in data.get("torsion", {}).items()},
        )


def _rank(invariants, char):
    """Rank in characteristic ``char`` (0 for q and z): the factors p does not divide."""
    rank, factors = invariants
    return rank - sum(1 for d in factors if d % char == 0) if char else rank


def _coboundary(rows, cols, cleared=frozenset()):
    """The reduced coboundary from the simplices ``rows`` to their cofaces
    ``cols``, skipping the columns ``cleared``.  Its unit pivot rows index
    ``cols``; they clear the next degree's columns."""
    return linalg.reduce_columns(coboundary_columns(rows, cols), cleared)


def _invariants(reduction, first_row=0, end_col=None):
    """(rank, invariant factors above 1) of a block of a reduced coboundary."""
    factors = linalg.block_invariants(reduction, first_row, end_col)
    return len(factors), tuple(d for d in factors if d > 1)


def _boundary(complex_, bases, n):
    """Invariants of d_n on the chains ``bases`` of a complex.

    d_n for n >= 1 is reduced once per complex, as a coboundary cleared by
    the unit pivot rows of d_(n-1), and kept in its memo; the augmentation
    d_0 is not reduced, its rank is one when both of its chain groups are
    nonzero.
    """
    if n < 1:
        return (1, ()) if n == 0 and bases[-1] and bases[0] else (0, ())
    memo = complex_._memo
    invariants = memo.get(n)
    if invariants is None:
        reduction = _coboundary(bases[n - 1], bases[n], memo.get(("cleared", n - 1), ()))
        memo[("cleared", n)] = frozenset(reduction[0])
        invariants = memo[n] = _invariants(reduction)
    return invariants


def _relative(ambient, sub, bases, n):
    """Invariants of d_n(K, L), d_n of K without the rows of L's simplices.

    The columns of L's simplices vanish there, so these are also the
    invariants of the quotient chain complex.  Kept in K's memo per (L, n);
    the entry holds L, so its id cannot be reused while the entry lives.
    """
    if n < 1:
        return (0, ())
    key = ("relative", id(sub), n)
    hit = ambient._memo.get(key)
    if hit is None:
        rows = [s for s in bases[n - 1] if s not in sub]
        hit = ambient._memo[key] = (sub, _invariants(_coboundary(rows, bases[n])))
    return hit[1]


def _profile(sizes, invariants, coeffs, reduced, lo, max_deg):
    """Betti numbers, and torsion over z, of chain groups of ranks ``sizes``
    and boundaries of ``invariants`` in degrees lo..max_deg."""
    char = 0 if coeffs == "z" else linalg.characteristic(coeffs)
    ranks = {n: _rank(inv, char) for n, inv in invariants.items()}
    betti = {}
    torsion = {}
    for n in range(lo, max_deg + 1):
        betti[n] = sizes[n] - ranks.get(n, 0) - ranks[n + 1]
        if coeffs == "z":
            torsion[n] = sorted(
                q for d in invariants[n + 1][1] for q in linalg.prime_power_factors(d)
            )
    return HomologyProfile(coeffs, reduced, range(lo, max_deg + 1), betti, torsion)


def homology(complex_, coeffs="z", max_deg=None, reduced=True):
    """Homology profile of a complex up to ``max_deg``.

    Integral coefficients ("z") also report torsion; field coefficients
    ("q", "zp:<p>") report ranks only.
    """
    if max_deg is None:
        max_deg = max(complex_.dim(), 0)
    levels = simplex_levels(complex_, max_deg + 1)
    bases = {n: levels[n] for n in range(max_deg + 2)}
    bases[-1] = [()] if reduced else []
    lo = -1 if reduced else 0
    return _profile(
        {n: len(bases[n]) for n in range(lo, max_deg + 1)},
        {n: _boundary(complex_, bases, n) for n in range(lo + 1, max_deg + 2)},
        coeffs,
        reduced,
        lo,
        max_deg,
    )


def cover_square(complex_, cover, dim_cap):
    """The five complexes of a cover's square, keyed x, y, a, union, total.

    Their memos share one pending reduction, run by the first call that
    reads any of them: the levels of the parts are filtered from the
    total's, and d_1..d_dim_cap of every part, with d(total, union), are
    read off one reduction of the total plus one of Y (module docstring).
    """
    parts = {
        "x": complex_.restrict(cover.x),
        "y": complex_.restrict(cover.y),
        "a": complex_.restrict(cover.a),
        "union": cover_union(complex_, cover),
        "total": complex_,
    }

    def run():
        for part in parts.values():
            part._memo.pop("square", None)
        _reduce_square(parts, cover, dim_cap)

    for part in parts.values():
        part._memo["square"] = run
    return parts


# simplex classes of a cover square, in reduction order
_CROSS, _Y_ONLY, _X_ONLY, _A = range(4)
_CLASSES = {
    "x": (_X_ONLY, _A),
    "y": (_Y_ONLY, _A),
    "a": (_A,),
    "union": (_Y_ONLY, _X_ONLY, _A),
}


def _reduce_square(parts, cover, top):
    """Fill the memos of a cover square's parts from two reductions per degree."""
    total = parts["total"]
    x_only, y_only = cover.x - cover.a, cover.y - cover.a

    def kind(s):
        in_x = not x_only.isdisjoint(s)
        in_y = not y_only.isdisjoint(s)
        return _CROSS if in_x and in_y else _Y_ONLY if in_y else _X_ONLY if in_x else _A

    levels = simplex_levels(total, top)
    buckets = levels[: top + 1]
    # the parts hold levels 0..top: complete when the total has none above
    complete = total._memo["levels"][1] and not any(levels[top + 1 :])
    kinds = [[kind(s) for s in level] for level in buckets]
    for name, classes in _CLASSES.items():
        parts[name]._memo["levels"] = (
            [
                [s for s, k in zip(level, ks) if k in classes]
                for level, ks in zip(buckets, kinds)
            ],
            complete,
        )
    # each degree in class order, with the end index of each class
    ordered, ends = [], []
    for level, ks in zip(buckets, kinds):
        by_class = [[], [], [], []]
        for s, k in zip(level, ks):
            by_class[k].append(s)
        ordered.append([s for group in by_class for s in group])
        ends.append(list(accumulate(len(group) for group in by_class)))
    y_ordered = [o[e[0] : e[1]] + o[e[2] :] for o, e in zip(ordered, ends)]
    cleared = y_cleared = frozenset()
    for n in range(top):
        reduction = _coboundary(ordered[n], ordered[n + 1], cleared)
        cleared = frozenset(reduction[0])
        rows = ends[n + 1]
        total._memo[n + 1] = _invariants(reduction)
        parts["union"]._memo[n + 1] = _invariants(reduction, rows[0])
        parts["x"]._memo[n + 1] = _invariants(reduction, rows[1])
        parts["a"]._memo[n + 1] = _invariants(reduction, rows[2])
        total._memo[("relative", id(parts["union"]), n + 1)] = (
            parts["union"],
            _invariants(reduction, 0, ends[n][0]),
        )
        reduction = _coboundary(y_ordered[n], y_ordered[n + 1], y_cleared)
        y_cleared = frozenset(reduction[0])
        parts["y"]._memo[n + 1] = _invariants(reduction)


def is_subcomplex(sub, ambient):
    """True when every simplex of ``sub`` belongs to ``ambient``."""
    if sub.is_flag and ambient.is_flag:
        adj = ambient._adj
        return all(v in adj and nb <= adj[v] for v, nb in sub._adj.items())
    if not sub.is_flag and not ambient.is_flag:
        return sub._simplices <= ambient._simplices
    for s in sub.to_explicit(full=True).simplices():
        if s not in ambient:
            return False
    return True


def relative_homology(complex_, sub, coeffs="z", max_deg=None):
    """Homology of the quotient chain complex of a pair.

    Both sides are taken augmented, so an empty subcomplex yields the
    unreduced homology of the ambient complex; a nonempty subcomplex yields
    the usual relative homology.
    """
    if not is_subcomplex(sub, complex_):
        raise NotASubcomplex("second complex is not a subcomplex of the first")
    if max_deg is None:
        max_deg = max(complex_.dim(), 0)
    levels = simplex_levels(complex_, max_deg + 1)
    return _profile(
        {n: sum(1 for s in levels[n] if s not in sub) for n in range(max_deg + 1)},
        {n: _relative(complex_, sub, levels, n) for n in range(1, max_deg + 2)},
        coeffs,
        False,
        0,
        max_deg,
    )


# -------------------------------------------------------------- induced maps


class InducedMap:
    """The rank and the homology dimensions of a map on field homology
    induced by a subcomplex inclusion."""

    __slots__ = ("field", "degree", "rank", "dim_source", "dim_target")

    def __init__(self, field, degree, rank, dim_source, dim_target):
        self.field = field
        self.degree = degree
        self.rank = rank
        self.dim_source = dim_source
        self.dim_target = dim_target

    @property
    def injective(self):
        return self.rank == self.dim_source

    @property
    def surjective(self):
        return self.rank == self.dim_target

    @property
    def iso(self):
        return self.injective and self.surjective

    def __repr__(self):
        return (
            f"InducedMap({self.field}, degree={self.degree}, rank={self.rank}, "
            f"{self.dim_source}->{self.dim_target})"
        )


def induced_map(sub, ambient, degree, coeffs="q", reduced=False):
    """The map on homology of one degree induced by an inclusion, as its
    rank and dimensions, read off the boundary invariants (module docstring).

    Field coefficients only.  With ``reduced`` both complexes are augmented,
    which matters in degree 0 and for empty complexes in degree -1.
    """
    if not is_subcomplex(sub, ambient):
        raise NotASubcomplex("second complex is not a subcomplex of the first")
    char = linalg.characteristic(coeffs)
    lo = -1 if reduced else 0
    if degree < lo:
        raise InvalidInput(f"degree {degree} below {lo}")
    need = degree + 1
    # only the levels around the degree, so a call costs no more at a high cap
    near = range(max(degree - 1, 0), need + 1)
    levels_l, levels_k = simplex_levels(sub, need), simplex_levels(ambient, need)
    bases_l = {n: levels_l[n] for n in near}
    bases_k = {n: levels_k[n] for n in near}
    bases_l[-1] = bases_k[-1] = [()] if reduced else []

    def rank(complex_, bases, n):
        return _rank(_boundary(complex_, bases, n), char)

    cycles_l = len(bases_l[degree]) - rank(sub, bases_l, degree)
    up_k = rank(ambient, bases_k, degree + 1)
    relative = _rank(_relative(ambient, sub, bases_k, degree + 1), char)
    return InducedMap(
        coeffs,
        degree,
        cycles_l - up_k + relative,
        cycles_l - rank(sub, bases_l, degree + 1),
        len(bases_k[degree]) - rank(ambient, bases_k, degree) - up_k,
    )


# --------------------------------------------------------------- certificates


class ContractibilityCertificate:
    """Sufficient evidence of contractibility: a central simplex or a
    collapse sequence ending at one vertex."""

    __slots__ = ("kind", "central", "collapses")

    CENTRAL = "central"
    COLLAPSE = "collapse"

    def __init__(self, kind, central=None, collapses=None):
        self.kind = kind
        self.central = central
        self.collapses = tuple(collapses) if collapses is not None else None

    def __repr__(self):
        if self.kind == self.CENTRAL:
            return f"ContractibilityCertificate(central={self.central})"
        return f"ContractibilityCertificate(collapses={len(self.collapses)})"


def _greedy_collapse(simplices):
    """Greedy elementary collapses of a downward-closed family; returns the
    pair sequence or None when no free face is left.

    Each step removes the smallest free face in (size, lexicographic) order
    with its one proper coface.  In a simplicial complex a face is free
    exactly when it has one cofacet (a second coface would contain two), so
    removing a pair changes the freeness only of the facets of the pair.
    Those are pushed again; stale heap entries are skipped when popped.
    """
    current = set(simplices)
    cofacets = {s: set() for s in current}
    for t in current:
        for s in _facets(t):
            cofacets[s].add(t)
    heap = [(len(s), s) for s in current if len(cofacets[s]) == 1]
    heapq.heapify(heap)
    seq = []
    while len(current) > 1:
        while heap:
            s = heapq.heappop(heap)[1]
            if s in current and len(cofacets[s]) == 1:
                break
        else:
            return None
        t = next(iter(cofacets[s]))
        seq.append((s, t))
        for u in (s, t):
            current.discard(u)
            for f in _facets(u):
                cofacets[f].discard(u)
                if f in current and len(cofacets[f]) == 1:
                    heapq.heappush(heap, (len(f), f))
    return seq


def _facets(s):
    """The codimension-one faces of a simplex (none for a vertex)."""
    if len(s) == 1:
        return ()
    return [s[:i] + s[i + 1 :] for i in range(len(s))]


def contractibility_certificate(complex_):
    """Search for a central vertex, then for a full collapse sequence.

    ``None`` is inconclusive, not a proof of non-contractibility.  A flag
    complex is fully materialized for the collapse search, so keep this to
    the small complexes (obstructions) it is meant for.
    """
    if complex_.is_empty:
        raise EmptyComplex("the empty complex has no contractibility certificate")
    v = central_vertex(complex_)
    if v is not None:
        return ContractibilityCertificate(ContractibilityCertificate.CENTRAL, central=(v,))
    seq = _greedy_collapse(complex_.to_explicit(full=True).simplices())
    if seq is not None:
        return ContractibilityCertificate(ContractibilityCertificate.COLLAPSE, collapses=seq)
    return None
