"""Finite abstract simplicial complexes over integer vertex ids.

A simplex is a strictly increasing tuple of vertex ids.  A complex carries
one of two backings:

* explicit: a frozenset of simplices, closed under nonempty subsets;
* flag: a graph (adjacency sets) whose cliques are the simplices, plus an
  enumeration cap ``dim_cap``.

Membership is exact for both backings (for a flag complex it is the
pairwise-edge test, at any dimension).  Enumeration of a flag complex never
materializes simplices above its cap; operations that would need to raise
:class:`~ripsdecomp.errors.EnumerationRefused` instead.  A flag complex's
simplices and a cover's cross cliques come from one breadth-first walk,
``_clique_walk``, and ``Complex.has_simplex_of_dim`` is the one existence
search.  Complexes are immutable after construction and thread-safe.

Vertex labels: user-facing labels are interned to dense integer ids at
ingestion.  A complex may carry an ``id -> label`` table; every derived
complex keeps the table of its parent.

The operations are the ones the pipeline runs: restriction, the union of
two complexes or of a cover's two sides, central simplices, and the cross
simplices of a cover with their obstruction complexes.
"""

from itertools import combinations

from .errors import (
    CoverError,
    EnumerationRefused,
    InvalidInput,
    NotASimplex,
)

__all__ = [
    "Complex",
    "Cover",
    "central_vertex",
    "cover_union",
    "enumerate_p_complement",
    "make_simplex",
]


def make_simplex(vertices):
    """Canonical simplex: nonempty, strictly increasing, duplicate-free."""
    vs = tuple(sorted(set(vertices)))
    if not vs:
        raise InvalidInput("a simplex needs at least one vertex")
    return vs


def _close_downward(simplices):
    closed = set()
    for s in simplices:
        for k in range(1, len(s) + 1):
            closed.update(combinations(s, k))
    return closed


def _clique_walk(adj, vertices, top, key=None):
    """The cliques of graph ``adj`` on the sorted ``vertices``, one nonempty
    level per dimension up to ``top`` (``None``: no bound), each level a
    lexicographic list of ``(clique, extensions, key)`` entries.

    A clique grows only by its extensions, the later vertices adjacent to
    all of it (Zomorodian's incremental Vietoris-Rips construction); at
    ``top`` nothing grows, and the entries carry ``None``.  A ``key`` set
    seeds the empty clique's key, carried as ``key(c + w) = key(c) & adj[w]``;
    without one every key is ``None``.
    """
    level, d = [((), list(vertices), key)], -1
    while d != top:
        d += 1
        level = [
            (c + (w,), None if d == top else [u for u in ext[i + 1:] if u in nb],
             None if k is None else k & nb)
            for c, ext, k in level for i, w in enumerate(ext) for nb in (adj[w],)
        ]
        if not level:
            return
        yield level


class Complex:
    """Immutable finite abstract simplicial complex.

    ``_memo`` is a cache that ``homology`` fills lazily (simplex levels and
    the invariant factors of each boundary matrix).  Every entry is a
    function of the complex's content, so the complex stays immutable and
    thread-safe: fills that race write equal values.  The parts of a cover
    square also hold the square's pending reduction until one is read.
    """

    __slots__ = ("_simplices", "_adj", "_vertices", "dim_cap", "labels", "_memo")

    def __init__(self, *, simplices=None, adj=None, vertices=(), dim_cap=None, labels=None):
        self._simplices = simplices          # frozenset of tuples, or None
        self._adj = adj                      # dict id -> frozenset of ids, or None
        self._vertices = tuple(sorted(vertices))
        self.dim_cap = dim_cap               # enumeration cap (flag only)
        self.labels = labels                 # optional dict id -> label
        self._memo = {}                      # filled by homology only

    # ---------------------------------------------------------------- build

    @classmethod
    def from_simplices(cls, simplices, labels=None):
        """Explicit complex from an already downward-closed family."""
        sset = frozenset(make_simplex(s) for s in simplices)
        for s in sset:
            if len(s) > 1:
                for face in combinations(s, len(s) - 1):
                    if face not in sset:
                        raise InvalidInput(f"not downward closed: missing {face}")
        vertices = {v for s in sset for v in s}
        return cls(simplices=sset, vertices=vertices, labels=labels)

    @classmethod
    def from_facets(cls, facets, labels=None):
        """Explicit complex generated by the given facets (downward closure)."""
        closed = _close_downward(make_simplex(f) for f in facets)
        vertices = {v for s in closed for v in s}
        return cls(simplices=frozenset(closed), vertices=vertices, labels=labels)

    @classmethod
    def flag(cls, vertices, edges, dim_cap, labels=None):
        """Flag (clique) complex of a graph, enumerable up to ``dim_cap``."""
        if dim_cap < 0:
            raise InvalidInput("dim_cap must be nonnegative")
        vset = set(vertices)
        adj = {v: set() for v in vset}
        for e in edges:
            pair = make_simplex(e)
            if len(pair) != 2:
                raise InvalidInput(f"not an edge: {e!r}")
            a, b = pair
            if a not in vset or b not in vset:
                raise InvalidInput(f"edge {e!r} uses unknown vertices")
            adj[a].add(b)
            adj[b].add(a)
        adj = {v: frozenset(nb) for v, nb in adj.items()}
        return cls(adj=adj, vertices=vset, dim_cap=dim_cap, labels=labels)

    @classmethod
    def simplex_on(cls, vertices, labels=None):
        """The standard simplex on a vertex set (empty set gives the empty complex)."""
        vs = sorted(set(vertices))
        if not vs:
            return cls.empty()
        return cls.flag(vs, combinations(vs, 2), dim_cap=len(vs) - 1, labels=labels)

    @classmethod
    def discrete(cls, vertices, labels=None):
        return cls.flag(set(vertices), (), dim_cap=0, labels=labels)

    @classmethod
    def empty(cls):
        return cls(simplices=frozenset(), vertices=())

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
            return sorted(
                (a, b) for a in self._adj for b in self._adj[a] if a < b
            )
        return sorted(s for s in self._simplices if len(s) == 2)

    def __contains__(self, sigma):
        try:
            s = make_simplex(sigma)
        except InvalidInput:
            return False
        if self.is_flag:
            if any(v not in self._adj for v in s):
                return False
            return all(b in self._adj[a] for a, b in combinations(s, 2))
        return s in self._simplices

    def _clique_levels(self, max_dim):
        """Cliques by dimension, lexicographic within a level, up to
        ``max_dim`` (``None``: all of them).  The list ends at the last
        nonempty level."""
        walk = _clique_walk(self._adj, self._vertices, max_dim)
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
        out = sorted(self._simplices, key=lambda s: (len(s), s))
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

        A flag complex searches its cliques depth first and stops at the
        first one found; membership is exact, so the cap does not apply.
        """
        if not self.is_flag:
            return any(len(s) == d + 1 for s in self._simplices)
        adj = self._adj

        def extend(size, candidates):
            if size == d + 1:
                return True
            return any(
                extend(size + 1, {w for w in candidates & adj[v] if w > v})
                for v in candidates
            )

        return extend(0, set(self._vertices))

    def content_key(self):
        """Hashable content: the simplex set of an explicit complex, the vertex
        set of a flag one.  Two full subcomplexes of one flag complex are equal
        exactly when their vertex sets are, so among those it is a full key."""
        return self._vertices if self.is_flag else self._simplices

    def to_explicit(self, full=False):
        """Explicit copy.  ``full=True`` ignores a flag complex's cap, which is
        exponential on dense graphs: it is meant for certificate search."""
        if not self.is_flag:
            return self
        levels = self._clique_levels(None if full else self.dim_cap)
        simplices = frozenset(s for level in levels for s in level)
        return Complex(simplices=simplices, vertices=self._vertices, labels=self.labels)

    def __eq__(self, other):
        if not isinstance(other, Complex):
            return NotImplemented
        if self._vertices != other._vertices:
            return False
        if self.is_flag and other.is_flag:
            return self._adj == other._adj
        a = self if not self.is_flag else self.to_explicit(full=True)
        b = other if not other.is_flag else other.to_explicit(full=True)
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
            adj = {v: self._adj[v] & keep for v in vertices}
            return Complex(
                adj=adj, vertices=vertices, dim_cap=self.dim_cap, labels=self.labels
            )
        simplices = frozenset(s for s in self._simplices if keep.issuperset(s))
        return Complex(simplices=simplices, vertices=vertices, labels=self.labels)

    def _require_member(self, sigma):
        s = make_simplex(sigma)
        if s not in self:
            raise NotASimplex(f"{s} is not a simplex of this complex")
        return s

    def is_central(self, tau):
        """True when the union of ``tau`` with every simplex stays a simplex:
        when every vertex of ``tau`` is central."""
        return set(self.central_vertices()).issuperset(self._require_member(tau))

    def central_vertices(self):
        """The central vertices, in order, lazily.  In a flag complex they
        are the vertices adjacent to every other vertex."""
        if self.is_flag:
            full = len(self._vertices) - 1
            return (v for v in self._vertices if len(self._adj[v]) == full)
        whole = self._simplices
        return (v for v in self._vertices if all(make_simplex(s + (v,)) in whole for s in whole))

    def union(self, other):
        """Union of two complexes (flag inputs are fully materialized)."""
        labels = None
        if self.labels or other.labels:
            labels = dict(other.labels or {})
            labels.update(self.labels or {})
        a = self.to_explicit(full=True)
        b = other.to_explicit(full=True)
        return Complex(
            simplices=a._simplices | b._simplices,
            vertices=set(self._vertices) | set(other._vertices),
            labels=labels,
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
        x, y, none = cover.x, cover.y, frozenset()
        adj = {
            v: (nb & x if v in x else none) | (nb & y if v in y else none)
            for v, nb in complex_._adj.items()
            if v in x or v in y
        }
        return Complex(adj=adj, vertices=adj, dim_cap=complex_.dim_cap, labels=complex_.labels)
    return complex_.restrict(cover.x).union(complex_.restrict(cover.y))


def central_vertex(complex_):
    """Smallest central vertex, or None.  Complete for cone detection: a
    complex has a central simplex exactly when it has a central vertex,
    since any central simplex makes each of its vertices central."""
    return next(complex_.central_vertices(), None)


def enumerate_p_complement(complex_, cover, dim_cap):
    """All simplices meeting both cover sides while avoiding the intersection.

    Each simplex of dimension <= dim_cap is paired with its obstruction
    complex over the intersection, as a ``(simplex, obstruction)`` pair, in
    deterministic (dimension, lexicographic) order.  Pairs whose
    obstructions are equal share one ``Complex`` object; classifying it is
    left to the caller.

    The obstruction of sigma is the set of simplices tau of K[A] with
    sigma + tau in K: the star of sigma restricted to A.  A simplex of K
    away from A meets both sides exactly when it lies inside neither.  A
    flag complex walks the cliques of K[V - A] with ``_clique_walk`` seeded
    with key A, so each clique carries its common neighbours in A, and its
    obstruction is the full subcomplex on them.  A ``dim_cap`` above the
    flag complex's own cap is refused.
    """
    cover.validate(complex_)
    x, y, a = cover.x, cover.y, cover.a
    outside = [v for v in complex_.vertices if v not in a]

    def crosses(sigma):
        return not (x.issuperset(sigma) or y.issuperset(sigma))

    if complex_.is_flag:
        walk = _clique_walk(complex_._adj, outside, complex_._within_cap(dim_cap), a)
        cross = ((sigma, key) for level in walk for sigma, _, key in level if crosses(sigma))
        build = complex_.restrict
    else:
        ka = complex_.restrict(a)._simplices
        whole = complex_._simplices
        cross = (
            (sigma, frozenset(t for t in ka if tuple(sorted(t + sigma)) in whole))
            for sigma in complex_.restrict(outside).simplices(dim_cap)
            if crosses(sigma)
        )

        def build(key):
            vertices = {v for t in key for v in t}
            return Complex(simplices=key, vertices=vertices, labels=complex_.labels)

    obstructions = {}
    items = []
    for sigma, key in cross:
        obs = obstructions.get(key)
        if obs is None:
            obs = obstructions[key] = build(key)
        items.append((sigma, obs))
    return items
