"""Finite abstract simplicial complexes over integer vertex ids.

A simplex is a strictly increasing tuple of vertex ids.  A complex carries
one of two backings:

* explicit: a frozenset of simplices, closed under nonempty subsets;
* flag: a graph whose cliques are the simplices, plus an enumeration cap
  ``dim_cap``.  The graph is a dict from each vertex id to the int bitmask
  of its neighbours: bit u is set when uv is an edge, so the ids are bit
  positions and must be nonnegative ints.  Restriction, the cover union,
  the good(k) masks, membership and the clique searches all work on these
  masks.

Membership is exact for both backings (for a flag complex it is the
pairwise-edge test, at any dimension).  Enumeration of a flag complex never
materializes simplices above its cap; operations that would need to raise
:class:`~ripsdecomp.errors.EnumerationRefused` instead.  A flag complex's
simplices and a cover's cross cliques come from one breadth-first walk,
``_clique_walk``, and ``Complex.has_simplex_of_dim`` is the one existence
search.  One walk enumerates at most ``SIMPLEX_BUDGET`` cliques over all its
levels; it knows each level's size before building it, and refuses with
``EnumerationRefused`` instead of building a level that would pass the
budget.  An explicit complex's downward closure is refused past the same
budget, a facet too large for it before any of its faces is made.  So no
simplex of dimension ``MAX_DIM_CAP`` is ever enumerated, and a dimension
cap above it (``check_dim_cap``) is refused too.  Complexes are immutable
after construction and thread-safe.

Vertex labels: user-facing labels are interned to dense integer ids at
ingestion.  A complex may carry an ``id -> label`` table; every derived
complex keeps the table of its parent.

The operations are the ones the pipeline runs: restriction, the union of a
cover's two sides, the good(k) masks (``good_masks``, the one definition of
the central vertices), the cover-compatible edge collapse, the strong
collapse of a flag complex by vertex domination, and the cross simplices of
a cover, grouped by dimension and obstruction complex in the pass that
enumerates them.  Both collapses run one domination kernel, ``_dominator``:
the first candidate w whose closed neighbourhood N[w] holds a given vertex
set, N[u] & N[v] for an edge uv and N[v] for a vertex v, on bitmasks.
"""

from itertools import combinations, groupby
from operator import itemgetter

from .errors import CoverError, EnumerationRefused, InvalidInput

__all__ = [
    "Complex",
    "Cover",
    "collapse_edges",
    "cover_union",
    "enumerate_p_complement",
    "good_masks",
    "make_simplex",
    "strong_collapse",
]

#: The most cliques one clique walk enumerates, over all its levels; a walk
#: that would pass it is refused before it builds the level that would.  The
#: verified 100-point circle at radius 25 and cap 3 walks 262,600 cliques, and
#: a level near the budget holds a few hundred megabytes of tuples.
SIMPLEX_BUDGET = 1_000_000

#: The highest dimension cap that is not refused, 19 for the budget above.
#: A simplex of k vertices has 2**k - 1 faces, so within the budget a simplex
#: has at most this many vertices and a dimension below it; a higher cap adds
#: only empty degrees.
MAX_DIM_CAP = (SIMPLEX_BUDGET + 1).bit_length() - 1


def check_dim_cap(cap):
    """``cap``, refused with :class:`EnumerationRefused` past ``MAX_DIM_CAP``."""
    if cap > MAX_DIM_CAP:
        raise EnumerationRefused(
            f"the dimension cap {cap} is past {MAX_DIM_CAP}: within the budget of "
            f"{SIMPLEX_BUDGET} simplices no simplex has dimension {MAX_DIM_CAP}"
        )
    return cap


def make_simplex(vertices):
    """Canonical simplex: nonempty, strictly increasing, duplicate-free."""
    vs = tuple(sorted(set(vertices)))
    if not vs:
        raise InvalidInput("a simplex needs at least one vertex")
    return vs


def _close_downward(simplices):
    """The faces of ``simplices``, refused with :class:`EnumerationRefused`
    as soon as one simplex alone or all the faces so far pass
    ``SIMPLEX_BUDGET``."""
    closed = set()
    for s in simplices:
        if len(s) > MAX_DIM_CAP:
            raise EnumerationRefused(
                f"a facet of {len(s)} vertices has 2^{len(s)} - 1 faces, past the "
                f"budget of {SIMPLEX_BUDGET} simplices"
            )
        for k in range(1, len(s) + 1):
            closed.update(combinations(s, k))
        if len(closed) > SIMPLEX_BUDGET:
            raise EnumerationRefused(
                f"the facets have more than {SIMPLEX_BUDGET} faces, past the budget"
            )
    return closed


def _mask_of(ids):
    """The bitmask with bit v set for each id v."""
    return sum(map((1).__lshift__, ids))


def _bits(mask):
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _low(mask):
    """The lowest set bit of a nonzero bitmask, as a vertex id."""
    return (mask & -mask).bit_length() - 1


def _clique_walk(adj, vertices, top, key=0):
    """The cliques of graph ``adj`` (id -> neighbour bitmask) on the vertex
    bitmask ``vertices``, one nonempty level per dimension up to ``top``
    (``None``: no bound), each level a lexicographic list of
    ``(clique, extensions, key)`` entries.

    A clique grows only by its extensions, the bitmask of the later vertices
    adjacent to all of it (Zomorodian's incremental Vietoris-Rips
    construction), taking the lowest bit first, so each level stays
    lexicographic; at ``top`` nothing grows, and the extensions are 0.  The
    ``key`` int seeds the empty clique's key, carried as
    ``key(c + w) = key(c) & adj[w]``.  The size of the next level is the sum
    of the current extensions' bit counts, so the walk refuses with
    :class:`EnumerationRefused` before it builds a level that would take it
    past ``SIMPLEX_BUDGET`` cliques.
    """
    level, d, walked = [((), vertices, key)], -1, 0
    while d != top:
        walked += sum(map(int.bit_count, map(itemgetter(1), level)))
        if walked > SIMPLEX_BUDGET:
            raise EnumerationRefused(
                f"the cliques through dimension {d + 1} pass the budget of "
                f"{SIMPLEX_BUDGET} simplices"
            )
        d += 1
        grows = d != top
        grown = []
        append = grown.append
        for c, ext, k in level:
            while ext:
                low = ext & -ext
                ext ^= low
                w = low.bit_length() - 1
                nb = adj[w]
                append((c + (w,), ext & nb if grows else 0, k & nb))
        if not grown:
            return
        yield grown
        level = grown


class Complex:
    """Immutable finite abstract simplicial complex.

    A flag complex keeps its graph as neighbour bitmasks keyed by vertex id
    (``_adj``) and the bitmask of its vertices (``_mask``); its vertices are
    the keys of ``_adj``.  Its clique walks are bounded by ``SIMPLEX_BUDGET``
    (module docstring).

    ``_memo`` is a cache filled lazily.  ``homology.py`` keeps the simplex
    levels there, the invariants of each boundary matrix d_n (key n), and,
    for each subcomplex L it was paired with, those of d_n without L's rows
    (key ("relative", id(L), n), holding L).  One reduction of a nested
    chain of complexes writes d_n into the memo of every complex of the
    chain, so an entry may come from a reduction of a larger complex.
    ``good_masks`` keeps its tuple there (key "good_masks"), so an
    obstruction record and its certificate search share one computation.
    Every entry is a function of the content of the complex (and of L), so
    the complex stays immutable and thread-safe: fills that race write equal
    values.  The parts of a cover square also hold the square's pending
    reduction until one is read.
    """

    __slots__ = ("_simplices", "_adj", "_vertices", "_mask", "dim_cap", "labels", "_memo")

    def __init__(self, *, simplices=None, adj=None, vertices=(), dim_cap=None, labels=None):
        self._simplices = simplices          # frozenset of tuples, or None
        self._adj = adj                      # dict id -> neighbour bitmask, or None
        # a flag complex's vertices are the keys of its adjacency
        self._vertices = tuple(sorted(vertices if adj is None else adj))
        self._mask = None if adj is None else _mask_of(self._vertices)  # flag only
        self.dim_cap = dim_cap               # enumeration cap (flag only)
        self.labels = labels                 # optional dict id -> label
        self._memo = {}                      # filled lazily (see above)

    # ---------------------------------------------------------------- build

    @classmethod
    def from_facets(cls, facets, labels=None):
        """Explicit complex generated by the given facets (downward closure),
        refused when the closure passes ``SIMPLEX_BUDGET``."""
        closed = _close_downward(make_simplex(f) for f in facets)
        vertices = {v for s in closed for v in s}
        return cls(simplices=frozenset(closed), vertices=vertices, labels=labels)

    @classmethod
    def flag(cls, vertices, edges, dim_cap, labels=None):
        """Flag (clique) complex of a graph, enumerable up to ``dim_cap``."""
        if dim_cap < 0:
            raise InvalidInput("dim_cap must be nonnegative")
        adj = dict.fromkeys(vertices, 0)
        for v in adj:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InvalidInput(f"a flag vertex id is a nonnegative int, not {v!r}")
        for e in edges:
            pair = make_simplex(e)
            if len(pair) != 2:
                raise InvalidInput(f"not an edge: {e!r}")
            a, b = pair
            if a not in adj or b not in adj:
                raise InvalidInput(f"edge {e!r} uses unknown vertices")
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return cls(adj=adj, dim_cap=dim_cap, labels=labels)

    # ------------------------------------------------------------ structure

    @property
    def is_flag(self):
        return self._adj is not None

    @property
    def is_empty(self):
        return not self._vertices

    @property
    def vertices(self):
        return self._vertices

    def edges(self):
        """Sorted list of 1-simplices."""
        if self.is_flag:
            adj = self._adj
            return [(a, b) for a in self._vertices for b in _bits(adj[a] >> a + 1 << a + 1)]
        return sorted(s for s in self._simplices if len(s) == 2)

    def __contains__(self, sigma):
        try:
            s = make_simplex(sigma)
        except InvalidInput:
            return False
        if self.is_flag:
            adj = self._adj
            if any(v not in adj for v in s):
                return False
            # every vertex of s is adjacent to all the others
            m = _mask_of(s)
            return all((adj[v] | 1 << v) & m == m for v in s)
        return s in self._simplices

    def _clique_levels(self, max_dim):
        """Cliques by dimension, lexicographic within a level, up to
        ``max_dim`` (``None``: all of them).  The list ends at the last
        nonempty level."""
        walk = _clique_walk(self._adj, self._mask, max_dim)
        return [[c for c, _, _ in level] for level in walk]

    def _within_cap(self, dim):
        """``dim``, refused when it is above a flag complex's cap."""
        if dim > self.dim_cap:
            raise EnumerationRefused(
                f"flag complex capped at dimension {self.dim_cap}, asked for {dim}"
            )
        return dim

    def simplices(self, max_dim=None):
        """All simplices of dimension <= max_dim, ordered by (dim, lex).

        For a flag complex the cap applies: ``max_dim=None`` means the cap
        itself, and ``max_dim`` above the cap is refused.
        """
        if self.is_flag:
            max_dim = self._within_cap(self.dim_cap if max_dim is None else max_dim)
            return [s for level in self._clique_levels(max_dim) for s in level]
        out = sorted(sorted(self._simplices), key=len)
        if max_dim is not None:
            out = [s for s in out if len(s) <= max_dim + 1]
        return out

    def n_simplices(self, n):
        """The n-dimensional simplices, lexicographically ordered."""
        if n < 0:
            return []
        if self.is_flag:
            levels = self._clique_levels(self._within_cap(n))
            return levels[n] if n < len(levels) else []
        return sorted(s for s in self._simplices if len(s) == n + 1)

    def dim(self):
        """Largest dimension with a simplex (-1 for the empty complex).

        For a flag complex this is the enumerated dimension, at most the cap.
        """
        if self.is_empty:
            return -1
        if self.is_flag:
            return len(self._clique_levels(self.dim_cap)) - 1
        return max(len(s) for s in self._simplices) - 1

    def has_simplex_of_dim(self, d):
        """True when the complex has a simplex of dimension ``d`` (d >= 0).

        A flag complex searches its cliques depth first, on bitmasks of the
        later common neighbours, and stops at the first one found, or where
        too few candidates are left; membership is exact, so the cap does
        not apply.
        """
        if not self.is_flag:
            return any(len(s) == d + 1 for s in self._simplices)
        adj = self._adj

        def extend(missing, candidates):
            if not missing:
                return True
            while candidates.bit_count() >= missing:
                low = candidates & -candidates
                candidates ^= low
                if extend(missing - 1, candidates & adj[low.bit_length() - 1]):
                    return True
            return False

        return extend(d + 1, self._mask)

    def content_key(self):
        """Hashable content: the simplex set of an explicit complex, the vertex
        bitmask of a flag one.  Two full subcomplexes of one flag complex are
        equal exactly when their vertex sets are, so among those it is a full
        key."""
        return self._mask if self.is_flag else self._simplices

    def to_explicit(self):
        """Explicit copy of every clique of a flag complex, whatever its cap:
        exponential on dense graphs, so it is meant for small complexes
        (obstructions, certificate search)."""
        if not self.is_flag:
            return self
        levels = self._clique_levels(None)
        simplices = frozenset(s for level in levels for s in level)
        return Complex(simplices=simplices, vertices=self._vertices, labels=self.labels)

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        if self._vertices != other._vertices:
            return False
        if self.is_flag and other.is_flag:
            return self._adj == other._adj
        a = self if not self.is_flag else self.to_explicit()
        b = other if not other.is_flag else other.to_explicit()
        return a._simplices == b._simplices

    def __repr__(self):
        kind = f"flag(cap={self.dim_cap})" if self.is_flag else "explicit"
        return f"Complex({kind}, {len(self._vertices)} vertices)"

    # ------------------------------------------------------------ operations

    def restrict(self, subset):
        """Subcomplex of simplices contained in ``subset``."""
        keep = set(subset)
        vertices = [v for v in self._vertices if v in keep]
        if self.is_flag:
            return self._full(_mask_of(vertices))
        simplices = frozenset(filter(keep.issuperset, self._simplices))
        return Complex(simplices=simplices, vertices=vertices, labels=self.labels)

    def _full(self, mask):
        """The full subcomplex of a flag complex on the vertex bitmask ``mask``."""
        adj = self._adj
        return Complex(
            adj={v: adj[v] & mask for v in _bits(mask)},
            dim_cap=self.dim_cap,
            labels=self.labels,
        )

    def label_of(self, v):
        if self.labels and v in self.labels:
            return self.labels[v]
        return v


class Cover:
    """A cover of a complex's vertex set by two subsets X and Y."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = frozenset(x)
        self.y = frozenset(y)

    @property
    def a(self):
        return self.x & self.y

    def validate(self, complex_):
        vset = set(complex_.vertices)
        if not (self.x <= vset and self.y <= vset):
            raise CoverError("cover uses vertices the complex does not have")
        if self.x | self.y != vset:
            raise CoverError("cover must use every vertex of the complex")

    def __repr__(self):
        return f"Cover(x={sorted(self.x)}, y={sorted(self.y)})"


def cover_union(complex_, cover):
    """The union of the restrictions to the two sides of a cover.

    For a flag complex the union is again flag, on the edges inside X and
    the edges inside Y: a clique of that graph cannot meet both sides
    outside the intersection, so it lies inside one side entirely.
    """
    if complex_.is_flag:
        vertices = complex_.vertices
        x = _mask_of(v for v in vertices if v in cover.x)
        y = _mask_of(v for v in vertices if v in cover.y)
        xy = x | y
        adj = {
            v: (nb & x if x >> v & 1 else 0) | (nb & y if y >> v & 1 else 0)
            for v, nb in complex_._adj.items()
            if xy >> v & 1
        }
        return Complex(adj=adj, dim_cap=complex_.dim_cap, labels=complex_.labels)
    kx, ky = complex_.restrict(cover.x), complex_.restrict(cover.y)
    return Complex(
        simplices=kx._simplices | ky._simplices,
        vertices=kx.vertices + ky.vertices,
        labels=complex_.labels,
    )


def _dominator(common, candidates, closed):
    """The lowest vertex w of the bitmask ``candidates`` whose closed
    neighbourhood ``closed[w]`` holds every vertex of the bitmask ``common``,
    or -1: the domination test of both ``collapse_edges`` and
    ``strong_collapse``."""
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        w = low.bit_length() - 1
        if not common & ~closed[w]:
            return w
    return -1


def _pass_edges(vertices, closed, dirty):
    """The edges one pass of ``collapse_edges`` checks, lexicographically,
    lazily: each edge uv, u < v, of the closed-neighbourhood bitmasks
    ``closed`` with an end in the bitmask ``dirty``."""
    for u in vertices:
        later = closed[u] >> u + 1 << u + 1
        for v in _bits(later if dirty >> u & 1 else later & dirty):
            yield u, v


def collapse_edges(complex_, cover):
    """Remove, one at a time until none is left, every edge of a flag
    complex dominated in each part of the cover square that holds it.

    An edge uv of a graph is dominated when some w other than u and v has
    N[u] & N[v] inside N[w], closed neighbourhoods; then the flag complex
    without uv is a deformation retract of the one with it.  The parts are
    the total, X, Y and A, each holding the edges between its vertices, and
    the union graph of ``cover_union``, holding the edges inside X or inside
    Y, where a vertex's neighbours are masked by its side (by X | Y in A).
    Each part may use its own w.  Returns the collapsed flag complex and the
    removed edges, in order.

    Each pass checks the edges in lexicographic order, removing each one
    found dominated at its turn.  After the first pass, only the edges at a
    vertex that lost an edge in the pass before are checked again: an
    edge's common neighbours stay while its ends keep their edges, and
    their neighbourhoods only shrink, so its check would fail again.

    Three checks are implied and skipped.  Outside A, a w that dominates in
    X (or Y) dominates in the union.  Inside A, a w that dominates in the
    union dominates in the total, and in A when w lies in A; when w lies in
    X - A, the common neighbours lie in X, so those in Y are those in A, and
    a w that dominates in Y dominates in A (and so for Y - A).

    The work is bounded: each domination test is charged its candidates, the
    common neighbours other than u and v, against ``SIMPLEX_BUDGET``, and
    once the charges pass it no further edge is checked.  The collapse so far
    is returned, and it is exact, since each edge removed was dominated in
    every part at its turn; it is a prefix of the unbounded collapse, which
    checks the same edges in the same order.  A graph too dense to collapse
    is then left to the clique walk's own refusal.
    """
    spent = 0

    def dominated(common, closed, edge):
        """True when a vertex of ``common`` outside ``edge`` (both bitmasks)
        has all of ``common`` in its closed neighbourhood ``closed[w]``."""
        nonlocal spent
        rest = common & ~edge
        spent += rest.bit_count()
        return _dominator(common, rest, closed) >= 0

    vertices = complex_.vertices
    x = _mask_of(v for v in vertices if v in cover.x)
    y = _mask_of(v for v in vertices if v in cover.y)
    a = x & y
    closed = {v: nb | 1 << v for v, nb in complex_._adj.items()}
    side = {v: (x if x >> v & 1 else 0) | (y if y >> v & 1 else 0) for v in vertices}
    union = {v: nb & side[v] for v, nb in closed.items()}
    removed = []
    dirty = complex_._mask           # the ends of the edges a pass checks
    while dirty:
        touched = 0
        for u, v in _pass_edges(vertices, closed, dirty):
            if spent > SIMPLEX_BUDGET:
                break
            edge = 1 << u | 1 << v
            common = closed[u] & closed[v]
            if edge & a == edge:
                if not (
                    dominated(union[u] & union[v], union, edge)
                    and dominated(common & x, closed, edge)
                    and dominated(common & y, closed, edge)
                ):
                    continue
            elif not dominated(common, closed, edge):
                continue
            elif edge & x == edge:
                if not dominated(common & x, closed, edge):
                    continue
            elif edge & y == edge and not dominated(common & y, closed, edge):
                continue
            closed[u] ^= 1 << v
            closed[v] ^= 1 << u
            union[u] &= ~(1 << v)
            union[v] &= ~(1 << u)
            touched |= edge
            removed.append((u, v))
        dirty = touched
    adj = {v: nb ^ 1 << v for v, nb in closed.items()}
    return Complex(adj=adj, dim_cap=complex_.dim_cap, labels=complex_.labels), removed


def strong_collapse(complex_):
    """Delete, one at a time until none is left, a vertex v of a flag
    complex dominated by another vertex w: N[v] inside N[w], closed
    neighbourhoods among the vertices left (Barmak & Minian's strong
    collapse).  The link of v is then a cone with apex w, so each deletion
    is a sequence of elementary collapses, and one vertex left certifies
    the complex collapsible.  Returns the (v, w) pairs in order and the
    bitmask of the vertices left.

    Each pass checks its vertices lowest first, deleting each one found
    dominated at its turn.  After the first pass only the neighbours of a
    vertex deleted in the pass before are checked again: a vertex whose
    neighbourhood kept its vertices has the same candidates or fewer, so
    its check would fail again.  As in ``collapse_edges``, each test is
    charged its candidates against ``SIMPLEX_BUDGET``; once the charges pass
    it, the deletions so far are returned.
    """
    closed = {v: nb | 1 << v for v, nb in complex_._adj.items()}
    left = dirty = complex_._mask
    spent = 0
    dominations = []
    while dirty:
        touched = 0
        for v in _bits(dirty):
            common = closed[v] & left
            rest = common ^ 1 << v
            spent += rest.bit_count()
            if spent > SIMPLEX_BUDGET:
                return dominations, left
            w = _dominator(common, rest, closed)
            if w >= 0:
                dominations.append((v, w))
                left ^= 1 << v
                touched |= rest
        dirty = touched & left
    return dominations, left


def good_masks(complex_):
    """The bitmasks good(0), good(1), ... of a complex, up to the first k
    where good(k) is the central vertices, which it is from then on.
    good(k) holds the vertices v with rho + v a simplex for every simplex
    rho of at most k vertices, so good(0) is every vertex and the last mask
    holds the central vertices: v with sigma + v a simplex for every simplex
    sigma.  In a flag complex good(k) for k >= 1 is the central vertices,
    the vertices adjacent to every other vertex, as such a vertex extends
    every clique.  In an explicit one, ext(rho) is rho with the vertices of
    its cofacets, and good(k) is the AND of ext over the simplices of at
    most k vertices.  The tuple is computed once per complex and kept in its
    memo.
    """
    goods = complex_._memo.get("good_masks")
    if goods is None:
        goods = complex_._memo["good_masks"] = _good_masks(complex_)
    return goods


def _good_masks(complex_):
    if complex_.is_flag:
        mask = complex_._mask
        return (mask, _mask_of(v for v, nb in complex_._adj.items() if nb | 1 << v == mask))
    mask = _mask_of(complex_.vertices)
    if not mask:
        return (0,)
    ext = {rho: _mask_of(rho) for rho in complex_._simplices}
    for t in complex_._simplices:
        if len(t) > 1:
            for i, v in enumerate(t):
                ext[t[:i] + t[i + 1 :]] |= 1 << v
    by_size = {}
    for rho, e in ext.items():
        by_size[len(rho)] = by_size.get(len(rho), -1) & e
    goods = [mask]
    for k in range(1, max(by_size) + 1):
        goods.append(goods[-1] & by_size[k])
    return tuple(goods)


class CrossClass:
    """The cross simplices of one dimension with one obstruction: ``obs``,
    the obstruction complex, one object per distinct obstruction, which a
    caller may replace with its own record of that complex; ``dim``;
    ``first``, the first of them in report order; and ``size``, how many."""

    __slots__ = ("obs", "dim", "first", "size")

    def __init__(self, obs, dim, first):
        self.obs, self.dim, self.first, self.size = obs, dim, first, 0


class CrossSimplices(list):
    """``(simplex, class)`` pairs in report order, with ``classes``: the
    ``CrossClass`` objects in the order of their first simplices."""

    __slots__ = ("classes",)


def enumerate_p_complement(complex_, cover, dim_cap):
    """All simplices meeting both cover sides while avoiding the intersection.

    Each simplex of dimension <= dim_cap is paired with its class, as a
    ``(simplex, class)`` pair, in deterministic (dimension, lexicographic)
    order, in one pass that groups the simplices into classes of one
    dimension and one obstruction complex over the intersection (see
    ``CrossClass``; the list is a ``CrossSimplices``).  Classes whose
    obstructions are equal share one ``Complex`` object; classifying it is
    left to the caller.

    The obstruction of sigma is the set of simplices tau of K[A] with
    sigma + tau in K: the star of sigma restricted to A.  A simplex of K
    away from A meets both sides exactly when it lies inside neither.  A
    flag complex walks the cliques of K[V - A] with ``_clique_walk``, its
    key seeded with the bitmask of A and two side flags above every vertex
    bit: a vertex of X - A clears the flag "avoids X - A", one of Y - A the
    flag "avoids Y - A".  So a clique crosses exactly when both flags are
    clear, and its key is then the bitmask of its common neighbours in A,
    whose full subcomplex is its obstruction.  A ``dim_cap`` above the flag
    complex's own cap is refused.
    """
    cover.validate(complex_)
    x, y, a = cover.x, cover.y, cover.a
    outside = [v for v in complex_.vertices if v not in a]

    if complex_.is_flag:
        adj = complex_._adj
        avoids_x = 1 << complex_._mask.bit_length()
        avoids_y = avoids_x << 1
        sided = {v: adj[v] | (avoids_y if v in x else avoids_x) for v in outside}
        seed = _mask_of(a) | avoids_x | avoids_y
        walk = _clique_walk(sided, _mask_of(outside), complex_._within_cap(dim_cap), seed)
        levels = ([(sigma, key) for sigma, _, key in level if key < avoids_x] for level in walk)
        build = complex_._full
    else:
        ka = complex_.restrict(a)._simplices
        whole = complex_._simplices
        levels = (
            [
                (sigma, frozenset(t for t in ka if tuple(sorted(t + sigma)) in whole))
                for sigma in level
                if not (x.issuperset(sigma) or y.issuperset(sigma))
            ]
            for _, level in groupby(complex_.restrict(outside).simplices(dim_cap), len)
        )

        def build(key):
            vertices = {v for t in key for v in t}
            return Complex(simplices=key, vertices=vertices, labels=complex_.labels)

    obstructions = {}
    items = CrossSimplices()
    items.classes = classes = []
    append = items.append
    for level in levels:
        seen = {}                            # the classes of this level by key
        for sigma, key in level:
            cls = seen.get(key)
            if cls is None:
                obs = obstructions.get(key)
                if obs is None:
                    obs = obstructions[key] = build(key)
                cls = seen[key] = CrossClass(obs, len(sigma) - 1, sigma)
                classes.append(cls)
            cls.size += 1
            append((sigma, cls))
    return items
