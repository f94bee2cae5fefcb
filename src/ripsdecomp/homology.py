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
  subcomplex's columns reduce on its rows exactly as they would alone;
* d(K, L1) is the column prefix of depth 0, whose cofaces have depth 0 too,
  and a prefix of a column reduction is the reduction of the prefix.

So one pass over each degree's reduction (``linalg.block_invariants``)
reads every member and d(K, L1): the unit pivot rows are sorted once, each
L_i counts its units by bisection at its first row and d(K, L1) by pivot
column, and only a block's set-aside columns, usually none, reach the dense
Smith step.

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

``homology`` is the chain [K]; ``induced_map`` is the pair [K, L], over
only the degrees it reads, and the one reader of d(K, L).  The cover square
(``cover_square``) of X, Y, A = X & Y, the union K[X] u K[Y] and the total
K is the chain [total, union, X, A]: depth 0 holds the cross simplices
(meeting both X - A and Y - A), 1 those inside Y but not A, 2 those inside
X but not A, 3 those inside A.  Y is handed its levels, filtered from the
total's, and reduces as the chain [Y] when first read.

A flag total enters the square edge-collapsed: every edge uv dominated in
each part that holds it (some w other than u and v has N[u] & N[v] inside
N[w], in that part's graph) is removed, until none is left.  That keeps
every profile and induced map the square reports, exactly:

* every clique of the union graph (the edges inside X or inside Y) lies in
  X or in Y, so the union is the flag complex of the union graph, and a
  domination there is an edge collapse of the union;
* each part of the collapsed total is still the restriction (or the cover
  union) of it, so ``_reduce_chain`` reads the parts as before;
* removing an edge dominated in a graph keeps the homotopy type of its flag
  complex, so each inclusion of a part's new complex into its old one is a
  homotopy equivalence;
* these inclusions commute with union -> total, so every Betti number,
  torsion group and rank of H(union) -> H(total) is kept;
* H_n of the cap-skeleton equals H_n of the whole flag complex for
  n <= cap - 1, the degrees a square reports.

Explicit complexes are not collapsed.

Each complex keeps its simplex levels and the invariants of every d_n a
chain wrote for it in its memo, and K keeps d(K, L1) per subcomplex and
degree, which only ``induced_map`` reads.  A chain writes d_n(K, L1) after
every member's d_n, so that entry (d_n(K) in a chain of one) marks degree n
filled: a repeated call reduces nothing and every field reads the same
invariants.  A complex's d_n is reduced again only inside another chain
that has not filled degree n.  ``induced_map`` in degree d reads d_d of K
and L but not d_d(K, L), so its pair reduces degree d only when K or L
lacks d_d.  A chain of one keeps the level order, with no depth pass.
``homology`` and ``induced_map`` read the chain sizes off the levels and
the invariants off the memo, and build their records (``HomologyProfile``,
``InducedMap``) straight from them.  The checks of a call (subcomplex,
field, degree, flag cap) still run on every call.

Reduced homology uses the augmented chain complex, so the empty complex has
rank one in degree -1; that convention makes the suspension-shift
bookkeeping of the analyzer hold verbatim, empty obstructions included.

"Contractible" is always a sufficient certificate here: a cone on the lowest
central vertex, read off the last of ``complexes.good_masks`` (the one
definition of the central vertices), or a collapse sequence down to a
vertex, which for a flag complex is first sought by strong collapse on its
vertex bitmasks, with no explicit copy of it made.  Trivial homology
without a certificate is reported as acyclic, never as contractible.
"""

import heapq
from collections import namedtuple
from itertools import accumulate, combinations, compress, groupby

from . import linalg
from .complexes import (
    _low,
    check_dim_cap,
    collapse_edges,
    cover_union,
    good_masks,
    strong_collapse,
)
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
    "contractibility_certificate",
    "cover_square",
    "homology",
    "induced_map",
    "is_subcomplex",
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
    out = [{} for _ in rows]
    column = dict(zip(rows, out)).get
    for j, s in enumerate(cols):
        # ``combinations`` drops the last vertex first, whose sign is
        # (-1)^(len(s) - 1), and the signs alternate from there
        sign = -1 if len(s) % 2 == 0 else 1
        for col in map(column, combinations(s, len(s) - 1)):
            if col is not None:
                col[j] = sign
            sign = -sign
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


#: Boundary operator of one degree over the deterministic simplex order.
BoundaryMatrix = namedtuple("BoundaryMatrix", "degree rows cols entries")


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


class HomologyProfile(namedtuple("HomologyProfile", "coeffs reduced degrees betti torsion")):
    """Per-degree Betti numbers, plus torsion prime powers over the integers."""

    __slots__ = ()

    def __new__(cls, coeffs, reduced, degrees, betti, torsion=None):
        torsion = {d: tuple(t) for d, t in (torsion or {}).items() if t}
        return tuple.__new__(cls, (coeffs, reduced, tuple(degrees), dict(betti), torsion))

    def betti_vector(self, lo, hi):
        return tuple(self.betti.get(d, 0) for d in range(lo, hi + 1))

    def torsion_at(self, d):
        return self.torsion.get(d, ())

    def to_dict(self):
        return {
            "coeffs": self.coeffs,
            "reduced": self.reduced,
            "degrees": list(self.degrees),
            "betti": {str(d): b for d, b in sorted(self.betti.items())},
            "torsion": {str(d): list(t) for d, t in sorted(self.torsion.items())},
        }


def _rank(invariants, char):
    """Rank in characteristic ``char`` (0 for q and z): the factors p does not divide."""
    rank, factors = invariants
    return rank - sum(d % char == 0 for d in factors) if char and factors else rank


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
            starts = [0, *accumulate(map(len, by_depth[:-1]))]
            ordered[n] = [s for group in by_depth for s in group], starts
        return ordered[n]

    pivots = {}
    for n in todo:
        (faces, face_starts), (cofaces, starts) = order(n - 1), order(n)
        reduction = linalg.reduce_columns(
            coboundary_columns(faces, cofaces), pivots.get(n - 1, ())
        )
        pivots = {n: reduction[0]}
        blocks = linalg.block_invariants(
            reduction, starts, None if sub is None else face_starts[1]
        )
        for member, invariants in zip(members, blocks):
            member._memo[n] = invariants
        if sub is not None:
            memo["relative", id(sub), n] = (sub, blocks[-1])


def _boundary(complex_, levels, n, reduced):
    """Invariants of d_n of a complex, once a chain reduced degree n; the
    augmentation d_0 has rank one when reduced and the complex has a vertex."""
    if n >= 1:
        return complex_._memo[n]
    return (1, ()) if n == 0 and reduced and levels[0] else (0, ())


def _relative(ambient, sub, n):
    """Invariants of d_n(K, L), d_n of K without the rows of L's simplices
    (and of the quotient chain complex), once the chain [K, L] reduced n."""
    return ambient._memo[("relative", id(sub), n)][1] if n >= 1 else (0, ())


def homology(complex_, coeffs="z", max_deg=None, reduced=True):
    """Homology profile of a complex up to ``max_deg``.

    Integral coefficients ("z") also report torsion; field coefficients
    ("q", "zp:<p>") report ranks only.  A ``max_deg`` past
    ``MAX_DIM_CAP`` is refused.
    """
    max_deg = max(complex_.dim(), 0) if max_deg is None else check_dim_cap(max_deg)
    levels = simplex_levels(complex_, max_deg + 1)
    _reduce_chain([complex_], None, range(1, max_deg + 2))
    memo = complex_._memo
    char = 0 if coeffs == "z" else linalg.characteristic(coeffs)
    # ranks[n] is the rank of d_n for n = 0..max_deg + 1, d_0 the augmentation
    ranks = [1 if reduced and levels[0] else 0]
    ranks.extend(_rank(memo[n], char) for n in range(1, max_deg + 2))
    # the augmented degree -1 holds the empty simplex alone, read when reduced
    betti = {-1: 1 - ranks[0]} if reduced else {}
    for n in range(max_deg + 1):
        betti[n] = len(levels[n]) - ranks[n] - ranks[n + 1]
    torsion = {}
    if coeffs == "z":
        for n in range(max_deg + 1):
            factors = memo[n + 1][1]
            if factors:
                torsion[n] = tuple(
                    sorted(q for d in factors for q in linalg.prime_power_factors(d))
                )
    degrees = tuple(range(-1 if reduced else 0, max_deg + 1))
    return HomologyProfile._make((coeffs, reduced, degrees, betti, torsion))


def cover_square(complex_, cover, dim_cap):
    """The five complexes of a cover's square, keyed x, y, a, union, total,
    up to homotopy: a flag complex is first edge-collapsed
    (``collapse_edges``), and the parts are read off the collapsed total.

    The collapse keeps every profile through degree dim_cap - 1 and every
    map union -> total there (module docstring): the union is the flag
    complex of the union graph; each part of the collapsed total is still
    the restriction (or the cover union) of it; each inclusion of a part's
    new complex into its old one is a homotopy equivalence, since every
    removed edge was dominated in that part at its turn; the squares of
    these inclusions commute; and H_n of the cap-skeleton is H_n of the
    whole flag complex for n <= dim_cap - 1.  An explicit complex is not
    collapsed.

    Their memos share one pending reduction, run by the first call that
    reads any of them: the levels 0..dim_cap of the parts are filtered from
    the total's, and d_1..d_dim_cap of the chain total, union, X, A, with
    d(total, union), are read off one reduction of the total per degree.
    Y is left its levels, and reduces on its own when first read.
    """
    if complex_.is_flag:
        complex_ = collapse_edges(complex_, cover)[0]
    parts = {
        "x": complex_.restrict(cover.x),
        "y": complex_.restrict(cover.y),
        "a": complex_.restrict(cover.a),
        "union": cover_union(complex_, cover),
        "total": complex_,
    }
    outside_x, outside_y = (cover.x - cover.a).isdisjoint, (cover.y - cover.a).isdisjoint

    def run():
        for part in parts.values():
            part._memo.pop("square", None)
        levels = simplex_levels(complex_, dim_cap)
        # the parts hold levels 0..dim_cap: complete when the total has none above
        complete = complex_._memo["levels"][1] and not any(levels[dim_cap + 1 :])
        # the last of total, union, X, A that holds s is [s misses X - A] +
        # 2 [s misses Y - A]: 0 when s meets both, 1 inside Y, 2 inside X, 3 in A
        depths = [
            [dx + 2 * dy for dx, dy in zip(map(outside_x, lv), map(outside_y, lv))]
            for lv in levels[: dim_cap + 1]
        ]
        for name, kept in (("union", (1, 2, 3)), ("x", (2, 3)), ("a", (3,)), ("y", (1, 3))):
            keep = kept.__contains__
            own = [list(compress(lv, map(keep, ds))) for lv, ds in zip(levels, depths)]
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
        return all(v in adj and nb & adj[v] == nb for v, nb in sub._adj.items())
    if not sub.is_flag and not ambient.is_flag:
        return sub._simplices <= ambient._simplices
    for s in sub.to_explicit().simplices():
        if s not in ambient:
            return False
    return True


# -------------------------------------------------------------- induced maps


class InducedMap(namedtuple("InducedMap", "field degree rank dim_source dim_target")):
    """The rank and the homology dimensions of a map on field homology
    induced by a subcomplex inclusion."""

    __slots__ = ()

    @property
    def injective(self):
        return self.rank == self.dim_source

    @property
    def surjective(self):
        return self.rank == self.dim_target

    @property
    def iso(self):
        return self.injective and self.surjective

    def to_dict(self):
        return {**self._asdict(), "injective": self.injective, "surjective": self.surjective,
                "iso": self.iso}


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
    levels_l, levels_k = simplex_levels(sub, need), simplex_levels(ambient, need)
    # d_degree(K, L) is not read: degree is reduced only where a complex lacks d_degree
    filled = degree < 1 or degree in ambient._memo and degree in sub._memo
    _reduce_chain(
        [ambient, sub],
        lambda n: map(sub.__contains__, levels_k[n]),
        [need] if filled else [degree, need],
    )

    def rank(complex_, levels, n):
        return _rank(_boundary(complex_, levels, n, reduced), char)

    # degree -1 is read only when reduced, where it holds the empty simplex
    cycles_l = (len(levels_l[degree]) if degree >= 0 else 1) - rank(sub, levels_l, degree)
    up_k = rank(ambient, levels_k, need)
    relative = _rank(_relative(ambient, sub, need), char)
    return InducedMap(
        coeffs,
        degree,
        cycles_l - up_k + relative,
        cycles_l - rank(sub, levels_l, need),
        (len(levels_k[degree]) if degree >= 0 else 1) - rank(ambient, levels_k, degree) - up_k,
    )


# --------------------------------------------------------------- certificates


class ContractibilityCertificate(
    namedtuple(
        "ContractibilityCertificate",
        "kind central collapses steps dominations",
        defaults=(None,) * 4,
    )
):
    """Sufficient evidence of contractibility: a central simplex, or a
    collapse to one vertex of ``steps`` elementary collapses.  A collapse
    carries its sequence: the (face, coface) pairs of ``collapses``, or for
    a flag complex the (v, w) vertex dominations of ``dominations`` (see
    ``complexes.strong_collapse``), each a run of elementary collapses."""

    __slots__ = ()

    CENTRAL = "central"
    COLLAPSE = "collapse"


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

    The cone apex is the lowest central vertex, the lowest bit of the last
    of ``complexes.good_masks``.  That search is complete for cones: a
    complex has a central simplex exactly when it has a central vertex,
    since any central simplex makes each of its vertices central.  A flag
    complex is first strongly collapsed on its vertex bitmasks
    (``strong_collapse``), and no explicit copy of it is made.  When one
    vertex is left, the certificate is that domination sequence, and its
    step count is (N - 1) / 2, as for every collapse of N nonempty simplices
    to one vertex.  N is counted on the clique walk that ``to_explicit``
    runs, so it is refused past ``SIMPLEX_BUDGET`` exactly where that is.
    An explicit complex, or a flag one whose strong collapse stops with more
    than one vertex left, is materialized for the greedy collapse search, so
    keep those to small complexes.

    ``None`` is inconclusive, not a proof of non-contractibility.
    """
    if complex_.is_empty:
        raise EmptyComplex("the empty complex has no contractibility certificate")
    central = good_masks(complex_)[-1]
    if central:
        return ContractibilityCertificate(
            ContractibilityCertificate.CENTRAL, central=(_low(central),)
        )
    if complex_.is_flag:
        dominations, left = strong_collapse(complex_)
        if left.bit_count() == 1:
            return ContractibilityCertificate(
                ContractibilityCertificate.COLLAPSE,
                steps=(sum(map(len, complex_._clique_levels(None))) - 1) // 2,
                dominations=tuple(dominations),
            )
    seq = _greedy_collapse(complex_.to_explicit().simplices())
    if seq is not None:
        return ContractibilityCertificate(
            ContractibilityCertificate.COLLAPSE, collapses=tuple(seq), steps=len(seq)
        )
    return None
