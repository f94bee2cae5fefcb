"""Exact simplicial homology and contractibility certificates.

Every number is a rank of an integer boundary matrix, counted from its
invariant factors (``linalg.block_invariants``): over a field of
characteristic p (0 for q) the rank is the number of factors p does not
divide, as the Smith transforms stay invertible mod p; integral torsion comes
from the factors above 1.  For L in K, let d(K, L) be d(K) without the rows
of L's n-simplices; Z_n(L) meets B_n(K) in its kernel on B_n(K), so

    rank(H_n L -> H_n K) = dim Z_n(L) - rank d_{n+1}(K) + rank d_{n+1}(K, L).

Every invariant comes off one routine, ``_reduce_chain``, given nested
complexes K = L0, L1, L2, ..., each a subcomplex of the one before.  The
depth of a simplex of K is the index of the last L_i that holds it.  Each
degree of K is ordered by depth, each depth lexicographic, so every L_i is
a suffix of each degree.  d_{n+1} is reduced as its transpose, the
coboundary delta_n from n-simplices to their cofaces, once per degree of K
in increasing degree.  In that order

* every L_i is a row suffix: no coface of a simplex outside a subcomplex
  lies inside it, so the outside columns are zero on the subcomplex's rows,
  a column whose lowest row is inside belongs to the subcomplex, and the
  subcomplex's columns reduce on its rows exactly as they would alone.  Its
  invariants are its block's unit pivots and the Smith form of its block's
  set-aside columns;
* d(K, L1) is the column prefix of depth 0, whose cofaces have depth 0 too,
  and a prefix of a column reduction is the reduction of the prefix.

Each delta_n skips the columns of the n-simplices that are unit pivot rows
of the reduced delta_(n-1), when the same chain reduced that degree just
before (clearing).  Both keep the integer invariant factors, so every field
and integral torsion stay exact:

* a matrix and its transpose have the same Smith normal form;
* a reduced column c of delta_(n-1) is delta_(n-1) of an integer cochain,
  so delta_n c = 0; when its lowest entry c_t is +-1, the column of t in
  delta_n is an integer combination of the columns of earlier simplices.
  Zeroing it is a unimodular column operation, and dropping the zero column
  changes no invariant.  (Done in decreasing order, each such combination
  still uses unmodified columns.)  A non-unit c_t gives no such combination
  over the integers, so only unit pivot rows clear;
* a column cleared in K is a combination of earlier columns in every block
  that holds it: the outside terms vanish on a suffix's rows, and the terms
  before a simplex of depth 0 have depth 0.

``homology`` is the chain [K]; ``relative_homology`` and ``induced_map`` are
the pair [K, L], over only the degrees they read.  The cover square
(``cover_square``) of X, Y, A = X & Y, the union K[X] u K[Y] and the total
K is the chain [total, union, X, A]: depth 0 holds the cross simplices
(meeting both X - A and Y - A), 1 those inside Y but not A, 2 those inside
X but not A, 3 those inside A.  Y is handed its levels, filtered from the
total's, and reduces as the chain [Y] when first read.

Each complex keeps its simplex levels and the invariants of every d_n a
chain wrote for it in its memo, and K keeps d(K, L1) per subcomplex and
degree.  A chain writes d_n(K, L1) after every member's d_n, so that entry
(d_n(K) in a chain of one) marks degree n filled: a repeated call reduces
nothing and every field reads the same invariants.  A complex's d_n is
reduced again only inside another chain that has not filled degree n.
``induced_map`` in degree d reads d_d of K and L but not d_d(K, L), so its
pair reduces degree d only when K or L lacks d_d.  A chain of one keeps the
level order, with no depth pass.  The checks of a call (subcomplex, field,
degree, flag cap) still run on every call.

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

    A flag complex refuses when simplices beyond its cap are needed and it
    has a clique one dimension above the cap: ``has_simplex_of_dim``, asked
    only when the level at the cap is nonempty, stops at the first one.
    Otherwise downward closure leaves every higher level empty, and they
    are padded in.  The levels are enumerated and padded once per complex
    and shared: callers must not modify them.  The refusal is decided on
    every call.  A part of a cover square runs the square's pending
    reduction first.
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
        if len(levels) > cap and levels[cap] and complex_.has_simplex_of_dim(cap + 1):
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
    ``verify.boundary_nnz`` from its entries until ROADMAP item 1."""
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


def _invariants(reduction, first_row=0, end_col=None):
    """(rank, invariant factors above 1) of a block of a reduced coboundary."""
    factors = linalg.block_invariants(reduction, first_row, end_col)
    return len(factors), tuple(d for d in factors if d > 1)


def _reduce_chain(members, depths, degrees):
    """Fill the memos of nested complexes K, L1, L2, ... (``members``) with
    d_n of each and d_n(K, L1), for every n >= 1 of the ascending
    ``degrees`` not yet filled, from one reduction of K per degree (module
    docstring).  ``depths(n)`` yields the depth of each n-simplex of K, in
    level order: the index of the last member that holds it; a chain of one
    passes ``None`` and keeps the level order.  The caller
    has read ``simplex_levels(K, n)`` for the largest n, so its checks run
    once per call.  The entry of d_n(K, L1) holds L1, so its id cannot be
    reused while the entry lives.
    """
    ambient = members[0]
    sub = members[1] if len(members) > 1 else None
    memo = ambient._memo
    # d_n(K, L1), or d_n(K) in a chain of one, is the entry written last
    todo = [n for n in degrees if (n if sub is None else ("relative", id(sub), n)) not in memo]
    if not todo:
        return
    levels = memo["levels"][0]
    ordered = {}

    def order(n):
        """Degree n by depth, and the index where each depth starts."""
        if depths is None:
            return levels[n], (0,)
        if n not in ordered:
            by_depth = [[] for _ in members]
            for s, d in zip(levels[n], depths(n)):
                by_depth[d].append(s)
            starts = [0, *accumulate(map(len, by_depth))]
            ordered[n] = [s for group in by_depth for s in group], starts
        return ordered[n]

    pivots = {}
    for n in todo:
        (faces, face_starts), (cofaces, starts) = order(n - 1), order(n)
        reduction = linalg.reduce_columns(
            coboundary_columns(faces, cofaces), pivots.get(n - 1, ())
        )
        pivots = {n: reduction[0]}
        for member, first in zip(members, starts):
            member._memo[n] = _invariants(reduction, first)
        if sub is not None:
            memo["relative", id(sub), n] = (sub, _invariants(reduction, 0, face_starts[1]))


def _boundary(complex_, bases, n):
    """Invariants of d_n on the chains ``bases`` of a complex, once a chain
    reduced degree n; the augmentation d_0 has rank one when both of its
    chain groups are nonzero."""
    if n < 1:
        return (1, ()) if n == 0 and bases[-1] and bases[0] else (0, ())
    return complex_._memo[n]


def _relative(ambient, sub, n):
    """Invariants of d_n(K, L), d_n of K without the rows of L's simplices
    (and of the quotient chain complex), once the chain [K, L] reduced n."""
    return ambient._memo[("relative", id(sub), n)][1] if n >= 1 else (0, ())


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
    _reduce_chain([complex_], None, range(1, max_deg + 2))
    bases = {n: levels[n] for n in range(max_deg + 2)}
    bases[-1] = [()] if reduced else []
    lo = -1 if reduced else 0
    sizes = {n: len(bases[n]) for n in range(lo, max_deg + 1)}
    invariants = {n: _boundary(complex_, bases, n) for n in range(lo + 1, max_deg + 2)}
    return _profile(sizes, invariants, coeffs, reduced, lo, max_deg)


def cover_square(complex_, cover, dim_cap):
    """The five complexes of a cover's square, keyed x, y, a, union, total.

    Their memos share one pending reduction, run by the first call that
    reads any of them: the levels 0..dim_cap of the parts are filtered from
    the total's, and d_1..d_dim_cap of the chain total, union, X, A, with
    d(total, union), are read off one reduction of the total per degree.
    Y is left its levels, and reduces on its own when first read.
    """
    parts = {
        "x": complex_.restrict(cover.x),
        "y": complex_.restrict(cover.y),
        "a": complex_.restrict(cover.a),
        "union": cover_union(complex_, cover),
        "total": complex_,
    }
    x_only, y_only = cover.x - cover.a, cover.y - cover.a

    def depth(s):
        """The last of total, union, X, A that holds s: 0 when s meets both
        X - A and Y - A, 1 when it meets only Y - A, 2 only X - A, else 3."""
        in_x = not x_only.isdisjoint(s)
        in_y = not y_only.isdisjoint(s)
        return 0 if in_x and in_y else 1 if in_y else 2 if in_x else 3

    def run():
        for part in parts.values():
            part._memo.pop("square", None)
        levels = simplex_levels(complex_, dim_cap)
        # the parts hold levels 0..dim_cap: complete when the total has none above
        complete = complex_._memo["levels"][1] and not any(levels[dim_cap + 1 :])
        depths = [[depth(s) for s in level] for level in levels[: dim_cap + 1]]
        for name, kept in (("union", (1, 2, 3)), ("x", (2, 3)), ("a", (3,)), ("y", (1, 3))):
            own = [[s for s, d in zip(lv, ds) if d in kept] for lv, ds in zip(levels, depths)]
            parts[name]._memo["levels"] = (own, complete)
        chain = [complex_, parts["union"], parts["x"], parts["a"]]
        _reduce_chain(chain, depths.__getitem__, range(1, dim_cap + 1))

    for part in parts.values():
        part._memo["square"] = run
    return parts


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
    _reduce_chain(
        [complex_, sub], lambda n: map(sub.__contains__, levels[n]), range(1, max_deg + 2)
    )
    sizes = {n: sum(1 for s in levels[n] if s not in sub) for n in range(max_deg + 1)}
    invariants = {n: _relative(complex_, sub, n) for n in range(1, max_deg + 2)}
    return _profile(sizes, invariants, coeffs, False, 0, max_deg)


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
    # d_degree(K, L) is not read: degree is reduced only where a complex lacks d_degree
    filled = degree < 1 or degree in ambient._memo and degree in sub._memo
    _reduce_chain(
        [ambient, sub],
        lambda n: map(sub.__contains__, levels_k[n]),
        [need] if filled else [degree, need],
    )
    bases_l = {n: levels_l[n] for n in near}
    bases_k = {n: levels_k[n] for n in near}
    bases_l[-1] = bases_k[-1] = [()] if reduced else []

    def rank(complex_, bases, n):
        return _rank(_boundary(complex_, bases, n), char)

    cycles_l = len(bases_l[degree]) - rank(sub, bases_l, degree)
    up_k = rank(ambient, bases_k, degree + 1)
    relative = _rank(_relative(ambient, sub, need), char)
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
