"""Finite abstract simplicial complexes over integer vertex ids.

A simplex is a strictly increasing tuple of vertex ids.  A complex carries
one of two backings:

* explicit: a frozenset of simplices, closed under nonempty subsets;
* flag: a graph (adjacency sets) whose cliques are the simplices, plus an
  enumeration cap ``dim_cap``.

Membership is exact for both backings (for a flag complex it is the
pairwise-edge test, at any dimension).  Enumeration of a flag complex never
materializes simplices above its cap; operations that would need to raise
:class:`~ripsdecomp.errors.EnumerationRefused` instead.  Complexes are
immutable after construction and safe to share between threads.

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
        """Cliques by dimension, lexicographic within a level.

        ``max_dim=None`` enumerates everything (bounded by the vertex count);
        enumeration stops early at the first empty level since downward
        closure makes all higher levels empty too.
        """
        levels = [[(v,) for v in self._vertices]]
        d = 0
        while levels[-1] and (max_dim is None or d < max_dim):
            nxt = []
            for c in levels[-1]:
                for v in sorted(self._adj[c[-1]]):
                    if v > c[-1] and all(v in self._adj[u] for u in c[:-1]):
                        nxt.append(c + (v,))
            levels.append(nxt)
            d += 1
        if not levels[-1]:
            levels.pop()
        return levels

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

    def has_simplices_above_cap(self):
        """True when a flag complex owns cliques it refuses to enumerate.

        Probes one level above the cap and stops at the first extension, so
        a clean answer costs no more than the enumeration already done.
        """
        if not self.is_flag:
            return False
        levels = self._clique_levels(self.dim_cap)
        if len(levels) - 1 < self.dim_cap or not levels[-1]:
            return False
        for c in levels[-1]:
            for v in self._adj[c[-1]]:
                if v > c[-1] and all(v in self._adj[u] for u in c[:-1]):
                    return True
        return False

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
            adj = {v: self._adj[v] & frozenset(vertices) for v in vertices}
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

    For a flag complex the union is again flag on the union of the two
    restricted edge sets: a clique of that graph cannot meet both sides
    outside the intersection, so it lies inside one side entirely.
    """
    kx = complex_.restrict(cover.x)
    ky = complex_.restrict(cover.y)
    if complex_.is_flag:
        edges = set(kx.edges()) | set(ky.edges())
        vertices = set(kx.vertices) | set(ky.vertices)
        return Complex.flag(
            vertices, edges, dim_cap=complex_.dim_cap, labels=complex_.labels
        )
    return kx.union(ky)


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
    sigma + tau in K: the star of sigma restricted to A.  For a flag complex
    that is the full subcomplex on the intersection vertices adjacent to
    every vertex of sigma, keyed incrementally: a flag complex walks the
    cliques c outside A level by level, from the empty one, each carrying
    the vertices that extend it, the mask of cover sides it meets and its
    key ``key(c + v) = key(c) & adj[v]``, those common neighbours in A.  A
    ``dim_cap`` above the flag complex's own cap is refused.
    """
    cover.validate(complex_)
    a = cover.a
    obstructions = {}
    items = []
    if not complex_.is_flag:
        ka = complex_.restrict(a)._simplices
        whole = complex_._simplices
        for sigma in complex_.restrict(set(complex_.vertices) - a).simplices(max_dim=dim_cap):
            # away from A, it meets both sides when it is inside neither
            if not (cover.x.issuperset(sigma) or cover.y.issuperset(sigma)):
                key = frozenset(t for t in ka if tuple(sorted(t + sigma)) in whole)
                obs = obstructions.get(key)
                if obs is None:
                    vertices = {v for t in key for v in t}
                    obs = obstructions[key] = Complex(
                        simplices=key, vertices=vertices, labels=complex_.labels
                    )
                items.append((sigma, obs))
        return items
    adj = complex_._adj
    side = {v: 1 if v in cover.x else 2 for v in complex_.vertices if v not in a}
    level = [((), sorted(side), a, 0)]
    for size in range(complex_._within_cap(dim_cap) + 2):
        deeper = []
        for sigma, candidates, key, mask in level:
            if mask == 3:
                obs = obstructions.get(key)
                if obs is None:
                    obs = obstructions[key] = complex_.restrict(key)
                items.append((sigma, obs))
            if size <= dim_cap:
                for i, w in enumerate(candidates):
                    nb = adj[w]
                    deeper.append(
                        (sigma + (w,), [u for u in candidates[i + 1:] if u in nb],
                         key & nb, mask | side[w])
                    )
        level = deeper
    return items
