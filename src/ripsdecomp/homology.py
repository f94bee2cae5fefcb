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

Each delta_n builds no column for the n-simplices that are unit pivot rows
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
only the degrees it reads; ``relative_profile`` reads H(K, L; Z) off the
pair's d(K, L), through the builder ``homology`` uses (``_profile``).  The
cover square (``cover_square``) of X, Y, A = X & Y, the union K[X] u K[Y]
and the total K is the chain [total, union, X, A]: depth 0 holds the cross
simplices (meeting both X - A and Y - A), 1 those inside Y but not A, 2
those inside X but not A, 3 those inside A.  Every part, the total
included, is an explicit complex built from its levels
(``Complex.from_levels``), filtered from the collapsed total's by one depth
pass, and ``cover_square`` reduces this chain and the chain [Y] before it
returns.

A total enters the square collapsed: every edge uv of a flag total
(``collapse_edges``), or every vertex v of an explicit one
(``collapse_vertices``), dominated in each part that holds it is removed,
until none is left.  An edge is dominated when some w other than u and v
has N[u] & N[v] inside N[w], in that part's graph; a vertex when some w
other than v lies in every facet of that part through v, one w serving
every part.  That keeps every profile and induced map the square reports,
exactly:

* every clique of the union graph (the edges inside X or inside Y) lies in
  X or in Y, so the union is the flag complex of the union graph, and a
  domination there is an edge collapse of the union; a vertex outside A
  has the same link in the union as in its side, and one w in A that
  dominates a vertex of A in both sides dominates it in their union;
* each part is the full subcomplex of the collapsed total on its side (the
  union of those of X and Y), read through the total's levels, so
  ``_reduce_chain`` reads the parts as before;
* removing a dominated edge keeps the homotopy type of a flag complex, and
  deleting a dominated vertex is a strong collapse, so each inclusion of a
  part's new complex into its old one is a homotopy equivalence;
* these inclusions commute with union -> total, so every Betti number,
  torsion group and rank of H(union) -> H(total) is kept, and by the five
  lemma every group H(total, union);
* a flag total is read through its levels 0..cap, so its parts are the
  cap-skeletons of the collapsed flag parts, and H_n of a cap-skeleton, or
  of a pair of them, equals that of the whole flag complexes for
  n <= cap - 1, the degrees a square reports; an explicit total keeps all
  its levels.

Each complex keeps its simplex levels (``Complex.levels``, the one owner of
that memo entry) and the invariants of every d_n a chain wrote for it in
its memo, and K keeps d(K, L1) per subcomplex and degree, which
``induced_map`` and ``relative_profile`` read.  A chain writes d_n(K, L1)
after every member's d_n, so that entry (d_n(K) in a chain of one) marks
degree n filled: a repeated call reduces nothing and every field reads the
same invariants.  A complex's d_n is reduced again only inside another
chain that has not filled degree n.  ``induced_map`` in degree d reads d_d
of K and L but not d_d(K, L), so its pair reduces degree d only when K or L
lacks d_d.  A chain of one keeps the level order, with no depth pass.
``homology``, ``relative_profile`` and ``induced_map`` read the chain sizes
off the levels, hand K's levels to ``_reduce_chain``, read the invariants
off the memo, and build their records (``HomologyProfile``,
``InducedMap``) straight from them.  The checks of a call (subcomplex,
field, degree, flag cap) still run on every call.

Reduced homology uses the augmented chain complex, so the empty complex has
rank one in degree -1; that convention makes the suspension-shift
bookkeeping of the analyzer hold verbatim, empty obstructions included.

"Contractible" is always a sufficient certificate here: a cone on the lowest
central vertex, read off the last of ``complexes.good_masks`` (the one
definition of the central vertices), or a strong collapse down to a vertex
(Barmak & Minian), by vertex domination: on the vertex bitmasks of a flag
complex (``strong_collapse``), with no explicit copy of it made, and given
a vertex bitmask, on the full subcomplex there, which is never built; on
the facet bitmasks of an explicit one (``collapse_vertices``).  Trivial
homology without a certificate is reported as acyclic, never as
contractible.
"""

from collections import namedtuple
from itertools import accumulate, combinations, compress

from . import complexes, linalg
from .complexes import (
    Complex,
    Cover,
    _bits,
    _low,
    check_dim_cap,
    collapse_edges,
    collapse_vertices,
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
    "relative_profile",
]


# ----------------------------------------------------------------- chains


def coboundary_columns(rows, cols, skip=()):
    """Alternating-sign incidence between simplex lists, as one sparse
    column ``{index in cols: +-1}`` per simplex of ``rows``, holding its
    cofaces: the transpose of the boundary from ``cols`` to ``rows``.  The
    rows at the indices in ``skip`` are cleared: their columns stay empty.

    Faces absent from ``rows`` contribute nothing, which is exactly the
    boundary of a quotient (relative) chain complex.  The empty simplex
    ``()`` may appear as a row to augment the complex.
    """
    out = [{} for _ in rows]
    column = dict(zip(rows, out))
    column.update(dict.fromkeys(map(rows.__getitem__, skip)))  # cleared rows map to None
    column = column.get
    for j, s in enumerate(cols):
        # ``combinations`` drops the last vertex first, whose sign is
        # (-1)^(len(s) - 1), and the signs alternate from there
        sign = -1 if len(s) % 2 == 0 else 1
        for col in map(column, combinations(s, len(s) - 1)):
            if col is not None:
                col[j] = sign
            sign = -sign
    return out


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


def _reduce_chain(members, levels, depths, degrees):
    """Fill the memos of nested complexes K, L1, L2, ... (``members``) with
    d_n of each and d_n(K, L1), for every n >= 1 of the ascending
    ``degrees`` not yet filled, from one reduction of K per degree (module
    docstring).  ``levels`` is ``K.levels(n)`` for the largest n, read by
    the caller, so its checks run once per call.  ``depths(n)`` yields the
    depth of each n-simplex of K, in level order: the index of the last
    member that holds it; a chain of one passes ``None`` and keeps the
    level order.  The entry of d_n(K, L1) holds L1, so its id cannot be
    reused while the entry lives.
    """
    ambient = members[0]
    sub = members[1] if len(members) > 1 else None
    memo = ambient._memo
    # d_n(K, L1), or d_n(K) in a chain of one, is the entry written last
    todo = [n for n in degrees if (n if sub is None else ("relative", id(sub), n)) not in memo]
    if not todo:
        return
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
            coboundary_columns(faces, cofaces, pivots.get(n - 1, ()))
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


def _profile(coeffs, reduced, sizes, invariants):
    """The profile of a chain complex with ``sizes[n]`` n-chains from the
    invariants of its d_n, d_0 the augmentation when ``reduced``."""
    char = 0 if coeffs == "z" else linalg.characteristic(coeffs)
    ranks = [_rank(inv, char) for inv in invariants]
    # the augmented degree -1 holds the empty simplex alone, read when reduced
    betti = {-1: 1 - ranks[0]} if reduced else {}
    torsion = {}
    for n, size in enumerate(sizes):
        betti[n] = size - ranks[n] - ranks[n + 1]
        factors = invariants[n + 1][1]
        if coeffs == "z" and factors:
            torsion[n] = tuple(sorted(q for d in factors for q in linalg.prime_power_factors(d)))
    degrees = tuple(range(-1 if reduced else 0, len(sizes)))
    return HomologyProfile(coeffs, reduced, degrees, betti, torsion)


def homology(complex_, coeffs="z", max_deg=None, reduced=True):
    """Homology profile of a complex up to ``max_deg``.

    Integral coefficients ("z") also report torsion; field coefficients
    ("q", "zp:<p>") report ranks only.  A ``max_deg`` below -1 or past
    ``MAX_DIM_CAP`` is refused.
    """
    if max_deg is not None and max_deg < -1:
        raise InvalidInput(f"degree {max_deg} below -1")
    max_deg = max(complex_.dim(), 0) if max_deg is None else check_dim_cap(max_deg)
    levels = complex_.levels(max_deg + 1)
    _reduce_chain([complex_], levels, None, range(1, max_deg + 2))
    sizes = [len(levels[n]) for n in range(max_deg + 1)]
    invariants = [_boundary(complex_, levels, n, reduced) for n in range(max_deg + 2)]
    return _profile(coeffs, reduced, sizes, invariants)


def relative_profile(ambient, sub, max_deg):
    """H_n(K, L; Z) of ``ambient`` K and its subcomplex ``sub`` L for
    n = 0..max_deg, read off d(K, L) of the chain [K, L] (``cover_square``
    fills (total, union)); with ``sub`` None, L is empty: K's unreduced
    ``homology``.  Degrees are refused as ``homology`` refuses them."""
    if sub is None:
        return homology(ambient, "z", max_deg, reduced=False)
    if not is_subcomplex(sub, ambient):
        raise NotASubcomplex("second complex is not a subcomplex of the first")
    if max_deg < -1:
        raise InvalidInput(f"degree {max_deg} below -1")
    need = check_dim_cap(max_deg) + 1
    levels, levels_l = ambient.levels(need), sub.levels(need)
    _reduce_chain(
        [ambient, sub], levels, lambda n: map(sub.__contains__, levels[n]), range(1, need + 1)
    )
    sizes = [len(levels[n]) - len(levels_l[n]) for n in range(need)]
    return _profile("z", False, sizes, [_relative(ambient, sub, n) for n in range(need + 1)])


def cover_square(complex_, cover, dim_cap):
    """The five complexes of a cover's square, keyed x, y, a, union, total,
    up to homotopy through degree dim_cap - 1: the total is first collapsed,
    a flag one by edges (``collapse_edges``), an explicit one by vertices
    (``collapse_vertices``), which keeps every profile, map union -> total
    and group H_n(total, union) there (module docstring); every part, the
    total included, is an explicit complex built from the collapsed total's
    levels, 0..dim_cap for a flag total, by one depth pass.

    The parts come back reduced: d_1..d_dim_cap of the chain total, union,
    X, A, with d(total, union), come off one reduction of the total per
    degree, and those of Y off the chain [Y].  A ``dim_cap`` past
    ``MAX_DIM_CAP`` is refused.
    """
    check_dim_cap(dim_cap)
    collapse = collapse_edges if complex_.is_flag else collapse_vertices
    complex_ = collapse(complex_, cover)[0]
    levels = complex_.levels(dim_cap)
    outside_x, outside_y = (cover.x - cover.a).isdisjoint, (cover.y - cover.a).isdisjoint
    # the last of total, union, X, A that holds s is [s misses X - A] +
    # 2 [s misses Y - A]: 0 when s meets both, 1 inside Y, 2 inside X, 3 in A
    depths = [
        [dx + 2 * dy for dx, dy in zip(map(outside_x, lv), map(outside_y, lv))] for lv in levels
    ]
    # the depths each part holds; the total keeps the collapsed total's levels
    held = {"x": (2, 3), "y": (1, 3), "a": (3,), "union": (1, 2, 3), "total": None}
    parts = {}
    for name, kept in held.items():
        own = levels if kept is None else [
            list(compress(lv, map(kept.__contains__, ds))) for lv, ds in zip(levels, depths)
        ]
        parts[name] = Complex.from_levels(own, complex_.labels)
    members = [parts[name] for name in ("total", "union", "x", "a")]
    _reduce_chain(members, levels, depths.__getitem__, range(1, dim_cap + 1))
    _reduce_chain([parts["y"]], parts["y"].levels(dim_cap), None, range(1, dim_cap + 1))
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


def induced_map(sub, ambient, degree, coeffs="q", reduced=False):
    """The map on homology of one degree induced by an inclusion, as its
    rank and dimensions, read off the boundary invariants (module docstring).

    Field coefficients only.  With ``reduced`` both complexes are augmented,
    which matters in degree 0 and for empty complexes in degree -1.  A
    degree below that floor or past ``MAX_DIM_CAP`` is refused.
    """
    if not is_subcomplex(sub, ambient):
        raise NotASubcomplex("second complex is not a subcomplex of the first")
    char = linalg.characteristic(coeffs)
    lo = -1 if reduced else 0
    if degree < lo:
        raise InvalidInput(f"degree {degree} below {lo}")
    check_dim_cap(degree)
    need = degree + 1
    levels_l, levels_k = sub.levels(need), ambient.levels(need)
    # d_degree(K, L) is not read: degree is reduced only where a complex lacks d_degree
    filled = degree < 1 or degree in ambient._memo and degree in sub._memo
    _reduce_chain(
        [ambient, sub],
        levels_k,
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
        "kind central steps dominations",
        defaults=(None,) * 3,
    )
):
    """Sufficient evidence of contractibility: a central simplex, or a strong
    collapse to one vertex of ``steps`` elementary collapses, carried as its
    (v, w) vertex dominations, each deleting v with w in every simplex
    through it (``complexes.strong_collapse``)."""

    __slots__ = ()

    CENTRAL = "central"
    COLLAPSE = "collapse"


def _count_cliques(adj, mask):
    """The number of cliques of the graph ``adj`` on the vertex bitmask
    ``mask``, the empty one included, without listing them: f(M) = 1 + the
    sum over v in M of f(N(v) & M above v), memoized on the mask.  The memo
    fills from a stack, not by recursion, so no clique is too large for the
    interpreter; past ``SIMPLEX_BUDGET`` entries it is refused."""
    counts, stack = {0: 1}, [mask]
    while stack:
        m = stack[-1]
        terms = [adj[v] & m >> v + 1 << v + 1 for v in _bits(m)]
        todo = [t for t in terms if t not in counts]
        if todo:
            stack += todo
            continue
        if len(counts) > complexes.SIMPLEX_BUDGET:
            raise EnumerationRefused(
                f"counting the cliques passes the budget of {complexes.SIMPLEX_BUDGET} masks"
            )
        counts[stack.pop()] = 1 + sum(map(counts.__getitem__, terms))
    return counts[mask]


def contractibility_certificate(complex_, mask=None):
    """Search for a central vertex, then for a strong collapse to a vertex,
    in ``complex_`` or, given a vertex bitmask ``mask`` of a flag complex,
    in its full subcomplex there, which is never built.

    The cone apex is the lowest central vertex, the lowest bit of the last
    of ``complexes.good_masks``.  That search is complete for cones: a
    complex has a central simplex exactly when it has a central vertex,
    since any central simplex makes each of its vertices central.  Else a
    flag complex is strongly collapsed on its graph (``strong_collapse``),
    an explicit one on its facets (``collapse_vertices`` with X = Y = every
    vertex: plain facet domination), and one vertex left certifies it.  That
    collapse takes (N - 1) / 2 elementary collapses for N nonempty simplices,
    as every collapse to a vertex does, so a flag complex counts its cliques
    (``_count_cliques``).  Some collapsible complexes have no dominated
    vertex, so ``None`` is inconclusive, not a proof of non-contractibility.
    """
    goods = good_masks(complex_, mask)
    if not goods[0]:
        raise EmptyComplex("the empty complex has no contractibility certificate")
    if goods[-1]:
        return ContractibilityCertificate(
            ContractibilityCertificate.CENTRAL, central=(_low(goods[-1]),)
        )
    if complex_.is_flag:
        dominations, left = strong_collapse(complex_, mask)
        if left.bit_count() != 1:
            return None
        steps = (_count_cliques(complex_._adj, goods[0]) - 2) // 2
    else:
        vertices = complex_.vertices
        dominations = collapse_vertices(complex_, Cover(vertices, vertices))[1]
        if len(dominations) != len(vertices) - 1:
            return None
        steps = (len(complex_._simplices) - 1) // 2
    return ContractibilityCertificate(
        ContractibilityCertificate.COLLAPSE, steps=steps, dominations=tuple(dominations)
    )
