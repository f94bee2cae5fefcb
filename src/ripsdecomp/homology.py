"""Exact simplicial homology and contractibility certificates.

Every number is a rank of an integer boundary matrix, counted from its
invariant factors (``linalg.sparse_invariants``): over a field of
characteristic p (0 for q) the rank is the number of factors p does not
divide, as the Smith transforms stay invertible mod p; integral torsion comes
from the factors above 1.  For L in K, let d(K, L) be d(K) without the rows
of L's n-simplices; Z_n(L) meets B_n(K) in its kernel on B_n(K), so

    rank(H_n L -> H_n K) = dim Z_n(L) - rank d_{n+1}(K) + rank d_{n+1}(K, L).

Reduced homology uses the augmented chain complex, so the empty complex has
rank one in degree -1; that convention makes the suspension-shift
bookkeeping of the analyzer hold verbatim, empty obstructions included.

"Contractible" is always a sufficient certificate here: a central simplex or
a collapse sequence down to a vertex.  Trivial homology without a
certificate is reported as acyclic, never as contractible.
"""

import heapq
from itertools import combinations

from . import linalg
from .complexes import Complex, central_vertex, make_simplex
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
    "homology",
    "induced_map",
    "is_subcomplex",
    "relative_homology",
    "smith_normal_form",
]

smith_normal_form = linalg.smith_invariants


# ----------------------------------------------------------------- chains


def boundary_columns(rows, cols):
    """Alternating-sign incidence between simplex lists, as sparse columns
    ``{row index: +-1}``.

    Faces absent from ``rows`` contribute nothing, which is exactly the
    boundary of a quotient (relative) chain complex.  The empty simplex
    ``()`` may appear as a row to augment the complex.
    """
    index = {s: i for i, s in enumerate(rows)}
    out = []
    for s in cols:
        col = {}
        for i in range(len(s)):
            r = index.get(s[:i] + s[i + 1 :])
            if r is not None:
                col[r] = -1 if i % 2 else 1
        out.append(col)
    return out


def _dense(columns, nrows):
    return [[col.get(r, 0) for col in columns] for r in range(nrows)]


def simplex_levels(complex_, need):
    """Simplices bucketed by dimension 0..need, each level lexicographic.

    A flag complex refuses when simplices beyond its cap are needed; when
    the level at the cap is already empty, downward closure guarantees all
    higher levels are empty too and they are padded in.
    """
    cap = complex_.dim_cap if complex_.is_flag else None
    top = need if cap is None else min(need, cap)
    buckets = [[] for _ in range(top + 1)]
    for s in complex_.simplices(max_dim=top):
        buckets[len(s) - 1].append(s)
    if cap is not None and need > cap:
        if buckets[cap] and complex_.has_simplices_above_cap():
            raise EnumerationRefused(
                f"need simplices of dimension {need}, flag complex capped at {cap}"
            )
        buckets.extend([] for _ in range(need - cap))
    return buckets


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
    """The degree-n boundary matrix; rows are (n-1)-simplices."""
    if n < 1:
        raise InvalidInput("boundary degree must be at least 1")
    if complex_.is_flag:
        cap = complex_.dim_cap if dim_cap is None else min(dim_cap, complex_.dim_cap)
        if n > cap:
            raise EnumerationRefused(f"degree {n} above the cap {cap}")
    rows = complex_.n_simplices(n - 1)
    cols = complex_.n_simplices(n)
    return BoundaryMatrix(n, rows, cols, _dense(boundary_columns(rows, cols), len(rows)))


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
    return sum(1 for d in invariants if d % char) if char else len(invariants)


def _profile(bases, coeffs, reduced, lo, max_deg):
    """Betti numbers, and torsion over z, of chains ``bases[lo..max_deg]``."""
    char = 0 if coeffs == "z" else linalg.field_of(coeffs).char
    invariants = {
        n: linalg.sparse_invariants(boundary_columns(bases[n - 1], bases[n]))
        for n in range(lo + 1, max_deg + 2)
    }
    ranks = {n: _rank(inv, char) for n, inv in invariants.items()}
    betti = {}
    torsion = {}
    for n in range(lo, max_deg + 1):
        betti[n] = len(bases[n]) - ranks.get(n, 0) - ranks[n + 1]
        if coeffs == "z":
            torsion[n] = sorted(
                q for d in invariants[n + 1] if d > 1
                for q in linalg.prime_power_factors(d)
            )
    return HomologyProfile(coeffs, reduced, range(lo, max_deg + 1), betti, torsion)


def homology(complex_, coeffs="z", max_deg=None, reduced=True):
    """Homology profile of a complex up to ``max_deg``.

    Integral coefficients ("z") also report torsion; field coefficients
    ("q", "zp:<p>") report ranks only.
    """
    if max_deg is None:
        max_deg = max(complex_.dim(), 0)
    bases = dict(enumerate(simplex_levels(complex_, max_deg + 1)))
    bases[-1] = [()] if reduced else []
    return _profile(bases, coeffs, reduced, -1 if reduced else 0, max_deg)


def is_subcomplex(sub, ambient):
    """True when every simplex of ``sub`` belongs to ``ambient``."""
    if sub.is_flag and ambient.is_flag:
        return set(sub.vertices) <= set(ambient.vertices) and all(
            e in ambient for e in sub.edges()
        )
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
    bases = {
        n: [s for s in levels[n] if s not in sub] for n in range(max_deg + 2)
    }
    bases[-1] = []
    return _profile(bases, coeffs, False, 0, max_deg)


# -------------------------------------------------------------- induced maps


class InducedMap:
    """A map on field homology induced by a subcomplex inclusion."""

    __slots__ = ("field", "degree", "rank", "dim_source", "dim_target", "_build", "_matrix")

    def __init__(self, field, degree, rank, dim_source, dim_target, build):
        self.field = field
        self.degree = degree
        self.rank = rank
        self.dim_source = dim_source
        self.dim_target = dim_target
        self._build = build
        self._matrix = None

    @property
    def matrix(self):
        """``dim_target`` x ``dim_source``, built by dense elimination when read."""
        if self._matrix is None:
            self._matrix = self._build()
        return self._matrix

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


def _homology_reps(bases, deg, field):
    """Boundary basis and homology representatives of degree ``deg`` cycles.

    Returns (span over boundaries, representative cycle vectors); vectors are
    coordinates over ``bases[deg]``.
    """
    d_n = _dense(boundary_columns(bases[deg - 1], bases[deg]), len(bases[deg - 1]))
    cycles = linalg.kernel_basis(d_n, field, ncols=len(bases[deg]))
    span = linalg.Span(field)
    boundary_cols = []
    for up in boundary_columns(bases[deg], bases[deg + 1]):
        col = [field.of(up.get(i, 0)) for i in range(len(bases[deg]))]
        if span.add(col):
            boundary_cols.append(col)
    reps = []
    for z in cycles:
        if span.add(z):
            reps.append(z)
    return boundary_cols, reps


def _induced_matrix(bases_l, bases_k, degree, field):
    """Dense matrix of the induced map in bases of representative cycles."""
    _, reps_l = _homology_reps(bases_l, degree, field)
    boundary_k, reps_k = _homology_reps(bases_k, degree, field)
    position = {s: i for i, s in enumerate(bases_k[degree])}
    mapped = []
    for rep in reps_l:
        vec = [field.zero] * len(bases_k[degree])
        for value, s in zip(rep, bases_l[degree]):
            if value != field.zero:
                vec[position[s]] = value
        mapped.append(vec)
    if reps_k or boundary_k:
        coords = linalg.solve_in_span(boundary_k + reps_k, mapped, field)
    else:
        coords = [[] for _ in mapped]
    nb = len(boundary_k)
    return [
        [coords[j][nb + i] if coords[j] else field.zero for j in range(len(mapped))]
        for i in range(len(reps_k))
    ]


def induced_map(sub, ambient, degree, coeffs="q", reduced=False):
    """The map on homology of one degree induced by an inclusion.

    Field coefficients only.  With ``reduced`` both complexes are augmented,
    which matters in degree 0 and for empty complexes in degree -1.
    """
    if not is_subcomplex(sub, ambient):
        raise NotASubcomplex("second complex is not a subcomplex of the first")
    field = linalg.field_of(coeffs)
    lo = -1 if reduced else 0
    if degree < lo:
        raise InvalidInput(f"degree {degree} below {lo}")
    need = degree + 1
    bases_l = dict(enumerate(simplex_levels(sub, need)))
    bases_k = dict(enumerate(simplex_levels(ambient, need)))
    for b in (bases_l, bases_k):
        b[-1] = [()] if reduced else []
        b.setdefault(-2, [])

    def rank(rows, cols):
        invariants = linalg.sparse_invariants(boundary_columns(rows, cols))
        return _rank(invariants, field.char)

    in_sub = set(bases_l[degree])
    outside = [s for s in bases_k[degree] if s not in in_sub]
    cycles_l = len(bases_l[degree]) - rank(bases_l[degree - 1], bases_l[degree])
    up_k = rank(bases_k[degree], bases_k[degree + 1])
    return InducedMap(
        coeffs,
        degree,
        cycles_l - up_k + rank(outside, bases_k[degree + 1]),
        cycles_l - rank(bases_l[degree], bases_l[degree + 1]),
        len(bases_k[degree]) - rank(bases_k[degree - 1], bases_k[degree]) - up_k,
        lambda: _induced_matrix(bases_l, bases_k, degree, field),
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


def replay_collapses(complex_, collapses):
    """Replay a collapse sequence; returns the surviving simplices."""
    current = set(complex_.to_explicit(full=True).simplices())
    for s, t in collapses:
        cofaces = [u for u in current if len(u) > len(s) and set(s) < set(u)]
        if s not in current or cofaces != [t]:
            raise InvalidInput("collapse sequence does not replay")
        current.discard(s)
        current.discard(t)
    return current
