"""Definitional references for the package, written on its public API.

* Complex operations the pipeline does not run: ``star``, ``obstruction``
  (the reference for ``enumerate_p_complement``), ``skeleton``, ``join``,
  ``intersect``, ``union_of``, ``cover_union`` (the reference for the cover
  square's union), ``central_vertices`` (the reference for the last of
  ``good_masks``), ``is_central`` and ``good_vertices``, plus
  ``replay_dominations`` for collapse certificates, and
  ``replay_vertex_collapse``, the reference for ``collapse_vertices``.
* Flag complexes from their graph alone, by brute force over vertex
  subsets: ``clique_levels`` and ``cross_cliques``, the references for the
  bitmask clique walk and the flag branch of ``enumerate_p_complement``;
  ``replay_edge_collapse``, on edge sets, the reference for
  ``collapse_edges``.
* Distance spaces: ``d_label``, ``subspace``, the metric gluing ``glue``
  and ``metric_gluing_oracle``, the exact reference for
  ``is_metric_gluing``.
* The verification layer, dense: the matrix of an induced map on field
  homology, by plain Gauss-Jordan elimination on ``Fraction`` or on ints
  mod p, and the two theorem checks of the cover square that read it.  The
  package counts every rank from integer invariant factors and never builds
  these matrices; the checks here hold its answers to the Mayer-Vietoris
  sequence and to the cofiber-shift identity.  ``relative_homology``, which
  the cofiber-shift check reads, is the homology of a quotient chain
  complex from the same dense boundaries, with Smith invariants over z.
"""

import math
import warnings
from fractions import Fraction
from itertools import combinations

from ripsdecomp import (
    Complex,
    DistanceSpace,
    HomologyProfile,
    InvalidInput,
    homology,
    induced_map,
    make_simplex,
)
from ripsdecomp.linalg import prime_power_factors, smith_invariants

from conftest import boundary_oracle, rank_over


# ------------------------------------------------------- complex operations


def _member(k, sigma):
    s = make_simplex(sigma)
    if s not in k:
        raise InvalidInput(f"{s} is not a simplex of this complex")
    return s


def star(k, sigma):
    """All simplices whose union with ``sigma`` is still a simplex."""
    s = _member(k, sigma)
    if k.is_flag:
        return k.restrict([v for v in k.vertices if make_simplex(s + (v,)) in k])
    members = [mu for mu in k.simplices() if make_simplex(mu + s) in k]
    return Complex.from_facets(members, labels=k.labels)


def central_vertices(k):
    """The central vertices of ``k``, in order, by their definition: v is
    central when sigma + v is a simplex for every simplex sigma."""
    simplices = k.to_explicit().simplices()
    return [v for v in k.vertices if all(make_simplex(s + (v,)) in k for s in simplices)]


def is_central(k, tau):
    """True when the union of ``tau`` with every simplex stays a simplex:
    when every vertex of ``tau`` is central."""
    return set(central_vertices(k)).issuperset(_member(k, tau))


def obstruction(k, sigma, subset):
    """The simplices of K[subset] whose union with ``sigma`` is a simplex: the
    star of ``sigma`` restricted to ``subset``; may be empty."""
    return star(k, sigma).restrict(subset)


def skeleton(k, n):
    """All simplices of dimension at most ``n``, as an explicit complex."""
    if n < 0:
        raise InvalidInput("skeleton degree must be nonnegative")
    return Complex.from_facets(k.simplices(max_dim=n), labels=k.labels)


def join(k, l):
    """Join of two complexes with disjoint vertex sets; two flag complexes
    join to the flag complex of the joined graphs."""
    if set(k.vertices) & set(l.vertices):
        raise InvalidInput("join needs disjoint vertex sets")
    labels = {**(k.labels or {}), **(l.labels or {})} or None
    if k.is_flag and l.is_flag:
        edges = k.edges() + l.edges() + [(u, v) for u in k.vertices for v in l.vertices]
        cap = k.dim_cap + l.dim_cap + 1
        return Complex.flag(k.vertices + l.vertices, edges, cap, labels=labels)
    left, right = (c.to_explicit().simplices() for c in (k, l))
    joined = left + right + [s + t for s in left for t in right]
    return Complex.from_facets(joined, labels=labels)


def intersect(k, l):
    """Intersection of two complexes; two flag complexes meet in a flag one."""
    if k.is_flag and not l.is_flag:
        k, l = l, k
    labels = k.labels or l.labels
    if k.is_flag:
        common = set(k.vertices) & set(l.vertices)
        edges = [e for e in k.edges() if e in l]
        return Complex.flag(common, edges, min(k.dim_cap, l.dim_cap), labels=labels)
    return Complex.from_facets([s for s in k.simplices() if s in l], labels=labels)


def union_of(*complexes):
    """Union of complexes, as an explicit complex (flag ones are
    materialized in full); the first complex's labels win."""
    labels = {}
    for c in reversed(complexes):
        labels.update(c.labels or {})
    simplices = [s for c in complexes for s in c.to_explicit().simplices()]
    return Complex.from_facets(simplices, labels=labels or None)


def cover_union(k, cover):
    """The union K[X] u K[Y] of the restrictions to a cover's two sides.  A
    flag complex's is again flag, on the edges inside X and those inside Y:
    a clique of that graph cannot meet both sides outside the intersection,
    so it lies inside one side entirely."""
    x, y = cover.x, cover.y

    def inside(s):
        return x.issuperset(s) or y.issuperset(s)

    vertices = [v for v in k.vertices if v in x or v in y]
    if k.is_flag:
        return Complex.flag(vertices, filter(inside, k.edges()), k.dim_cap, labels=k.labels)
    simplices = frozenset(filter(inside, k.simplices()))
    return Complex(simplices=simplices, vertices=vertices, labels=k.labels)


def replay_dominations(k, dominations):
    """Replay a strong collapse, on vertex sets: each (v, w) deletes v,
    which must be dominated by w among the vertices left: w other than v,
    and for a flag complex N[v] inside N[w], closed neighbourhoods within
    them, for an explicit one w in every facet through v of the simplices
    left.  One vertex must be left; returns it."""
    left = set(k.vertices)

    def closed(u):
        return {u} | {t for t in left if (u, t) in k}

    def dominated(v, w):
        if k.is_flag:
            return closed(v) <= closed(w)
        through = [set(s) for s in k.simplices() if v in s and left.issuperset(s)]
        return all(w in f for f in through if not any(f < g for g in through))

    for v, w in dominations:
        if v not in left or w not in left or v == w or not dominated(v, w):
            raise InvalidInput(f"vertex domination does not replay at {(v, w)}")
        left.remove(v)
    if len(left) != 1:
        raise InvalidInput(f"the dominations leave {len(left)} vertices, not one")
    return left.pop()


def good_vertices(k, size):
    """good(size) by its definition: the vertices v of ``k`` with rho + v in
    ``k`` for every simplex rho of at most ``size`` vertices."""
    small = [rho for rho in k.to_explicit().simplices() if len(rho) <= size]
    return frozenset(v for v in k.vertices if all(make_simplex(rho + (v,)) in k for rho in small))


# ---------------------------------------------------------- flag complexes


def clique_levels(vertices, edges, top):
    """The cliques of a graph with 1 to ``top + 1`` vertices by dimension,
    each level lexicographic, ending at the last nonempty level: every
    vertex subset whose pairs are all in ``edges``, a set of sorted pairs."""
    vertices = sorted(vertices)
    levels = [
        [c for c in combinations(vertices, size) if edges.issuperset(combinations(c, 2))]
        for size in range(1, top + 2)
    ]
    while levels and not levels[-1]:
        levels.pop()
    return levels


def cross_cliques(vertices, edges, x, y, top):
    """The cliques of a graph with 2 to ``top + 1`` vertices, outside
    A = X & Y and meeting both X - A and Y - A, in (dimension,
    lexicographic) order, each with the sorted tuple of the vertices of A
    adjacent to all of it."""
    a = x & y
    out = []
    for level in clique_levels([v for v in vertices if v not in a], edges, top):
        for c in level:
            if set(c) - x and set(c) - y:
                common = [
                    v for v in sorted(a) if all(tuple(sorted((u, v))) in edges for u in c)
                ]
                out.append((c, tuple(common)))
    return out


def _square_graphs(edges, x, y):
    """The edge sets of the graphs of the five parts of the cover square of
    a flag complex: the total, X, Y and A = X & Y with the edges between
    their vertices, and the union graph of the edges inside X or inside Y."""
    parts = [set(edges)] + [{e for e in edges if s.issuperset(e)} for s in (x, y, x & y)]
    return parts + [{e for e in edges if x.issuperset(e) or y.issuperset(e)}]


def _closed_neighbourhood(edges, u):
    return {u} | {w for e in edges if u in e for w in e}


def dominated_in_every_part(edges, x, y, edge):
    """True when the sorted pair ``edge`` is dominated in the graph of each
    part of the cover square that holds it: some w other than its ends has
    N[u] & N[v] inside N[w], closed neighbourhoods in that graph."""
    u, v = edge
    for part_edges in _square_graphs(edges, x, y):
        if edge not in part_edges:
            continue
        common = _closed_neighbourhood(part_edges, u) & _closed_neighbourhood(part_edges, v)
        if not any(common <= _closed_neighbourhood(part_edges, w) for w in common - {u, v}):
            return False
    return True


def replay_edge_collapse(edges, x, y, removed):
    """Remove the sorted pairs ``removed`` from the graph in order, each an
    edge dominated in every part that holds it at its turn; returns the
    edges left."""
    edges = set(edges)
    for edge in removed:
        if edge not in edges or not dominated_in_every_part(edges, x, y, edge):
            raise InvalidInput(f"edge collapse does not replay at {edge}")
        edges.remove(edge)
    return edges


def replay_vertex_collapse(k, x, y, dominations):
    """Delete the vertices of an explicit complex in order, on simplex sets:
    each (v, w) must have w other than v dominate v in every part of the
    cover square that holds v (total, K[X], K[Y], K[A] and the union), that
    is s + w a simplex of the part for each of its simplices s through v;
    returns the simplices left."""
    current = set(k.simplices())
    for v, w in dominations:
        parts = [current] + [{s for s in current if side.issuperset(s)} for side in (x, y, x & y)]
        parts.append(parts[1] | parts[2])
        for part in parts:
            through = [s for s in part if v in s]
            if through and (v == w or any(make_simplex(s + (w,)) not in part for s in through)):
                raise InvalidInput(f"vertex collapse does not replay at {(v, w)}")
        current = {s for s in current if v not in s}
    return current


# ---------------------------------------------------------- distance spaces


def d_label(space, a, b):
    return space.matrix[space.index(a)][space.index(b)]


def subspace(space, labels):
    idx = [space.index(lab) for lab in labels]
    return DistanceSpace(
        [space.labels[i] for i in idx],
        [[space.matrix[i][j] for j in idx] for i in idx],
    )


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
            if d_label(dx, a, b) != d_label(dy, a, b):
                raise InvalidInput(
                    f"sides disagree on ({a!r}, {b!r}): "
                    f"{d_label(dx, a, b)} vs {d_label(dy, a, b)}"
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
                matrix[i][j] = d_label(dx, p, q)
            elif p in y_set and q in y_set:
                matrix[i][j] = d_label(dy, p, q)
            else:
                if p in y_set:
                    p, q = q, p
                cross = [d_label(dx, p, a) + d_label(dy, a, q) for a in shared]
                matrix[i][j] = min(cross) if cross else math.inf
    return DistanceSpace(labels, matrix)


def metric_gluing_oracle(space, x, y):
    """``is_metric_gluing`` on the exact matrix: every cross distance is
    compared with its shortest route through the intersection, in extended
    rationals.  Infinity minus infinity is NaN, neither above nor below 0,
    so an infinite pair with an infinite route is realized."""
    xi = [space.index(p) for p in x]
    yi = [space.index(p) for p in y]
    a = set(xi) & set(yi)
    for i in sorted(set(xi) - a):
        for j in sorted(set(yi) - a):
            through = [space.matrix[i][k] + space.matrix[k][j] for k in sorted(a)]
            best = min(through) if through else math.inf
            gap = space.matrix[i][j] - best
            if gap > 0 or gap < 0:
                return (space.labels[i], space.labels[j])
    return None


# ------------------------------------------------------ dense verification


def _arithmetic(coeffs):
    """(normalize, inverse) over "q", on ``Fraction``, or over "zp:<p>", on
    ints mod p."""
    if coeffs == "q":
        return Fraction, lambda a: 1 / a
    p = int(coeffs[3:])
    return (lambda v: v % p), (lambda a: pow(a, -1, p))


def rref_oracle(mat, ncols, coeffs):
    """Reduced row echelon form of a dense matrix with ``ncols`` columns, by
    Gauss-Jordan on the first nonzero pivot; returns (rows, pivot columns)."""
    norm, inv = _arithmetic(coeffs)
    m = [[norm(v) for v in row] for row in mat]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        scale = inv(m[r][c])
        m[r] = [norm(v * scale) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [norm(a - f * b) for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _columns(vectors):
    """The dense matrix whose columns are the given equal-length vectors."""
    return [list(row) for row in zip(*vectors)]


def _homology_basis(bases, n, coeffs):
    """(boundary basis, representative cycles) of degree n, as vectors over
    ``bases[n]``: the boundaries first, then the kernel basis of d_n, each
    kept when it is independent of those before it."""
    norm, _ = _arithmetic(coeffs)
    size = len(bases[n])
    red, pivots = rref_oracle(boundary_oracle(bases[n - 1], bases[n]), size, coeffs)
    cycles = []
    for f in sorted(set(range(size)) - set(pivots)):
        vec = [norm(0)] * size
        vec[f] = norm(1)
        for row, c in zip(red, pivots):
            vec[c] = norm(-row[f])
        cycles.append(vec)
    up = boundary_oracle(bases[n], bases[n + 1])
    boundaries = [[norm(row[j]) for row in up] for j in range(len(bases[n + 1]))]
    candidates = boundaries + cycles
    _, kept = rref_oracle(_columns(candidates), len(candidates), coeffs)
    nb = len(boundaries)
    return [boundaries[j] for j in kept if j < nb], [cycles[j - nb] for j in kept if j >= nb]


def _chain_bases(complex_, top, reduced):
    bases = {n: complex_.n_simplices(n) for n in range(top + 1)}
    bases[-1] = [()] if reduced else []
    bases[-2] = []
    return bases


def induced_matrix_oracle(sub, ambient, degree, coeffs, reduced=False):
    """The ``dim_target`` x ``dim_source`` matrix of H_degree(sub) ->
    H_degree(ambient) over a field, in bases of representative cycles."""
    bases_l = _chain_bases(sub, degree + 1, reduced)
    bases_k = _chain_bases(ambient, degree + 1, reduced)
    _, reps_l = _homology_basis(bases_l, degree, coeffs)
    boundary_k, reps_k = _homology_basis(bases_k, degree, coeffs)
    norm, _ = _arithmetic(coeffs)
    position = {s: i for i, s in enumerate(bases_k[degree])}
    mapped = []
    for rep in reps_l:
        vec = [norm(0)] * len(bases_k[degree])
        for value, s in zip(rep, bases_l[degree]):
            vec[position[s]] = value
        mapped.append(vec)
    basis = boundary_k + reps_k
    red, pivots = rref_oracle(_columns(basis + mapped), len(basis + mapped), coeffs)
    assert pivots == list(range(len(basis))), "a cycle maps outside the cycles"
    nb = len(boundary_k)
    return [red[nb + i][len(basis) :] for i in range(len(reps_k))]


def mv_check(complex_, x, y, coeffs="q", max_deg=None):
    """Exactness of the two-subcomplex homology sequence, by rank accounting.

    Reduced homology with field coefficients, from degree -1 so that an empty
    intersection works.  The homology dimensions come from the package's
    ``induced_map``, the stage maps from ``induced_matrix_oracle``.  For
    every degree n in range: the composite of the two stage maps vanishes;
    ranks across the middle add up; and the rank the connecting map must
    have is the same on both of its sides.
    """
    if coeffs == "z":
        raise InvalidInput("rank accounting needs field coefficients")
    norm, _ = _arithmetic(coeffs)
    x, y = frozenset(x), frozenset(y)
    kx, ky, ka = complex_.restrict(x), complex_.restrict(y), complex_.restrict(x & y)
    union = union_of(kx, ky)
    if max_deg is None:
        max_deg = max(union.dim() + 1, 0)
    ranks, rank_phi, rank_psi = {}, {}, {}
    failures = []

    def matrix(sub, ambient, degree):
        return induced_matrix_oracle(sub, ambient, degree, coeffs, reduced=True)

    for degree in range(-1, max_deg + 1):
        ax = induced_map(ka, kx, degree, coeffs, reduced=True)
        ay = induced_map(ka, ky, degree, coeffs, reduced=True)
        jx = induced_map(kx, union, degree, coeffs, reduced=True)
        ranks[degree] = {
            "a": ax.dim_source,
            "xy": ax.dim_target + ay.dim_target,
            "u": jx.dim_target,
        }
        # the stage maps: H(A) stacked into H(X) + H(Y); then the difference
        phi = matrix(ka, kx, degree) + matrix(ka, ky, degree)
        psi = [
            left + [norm(-v) for v in right]
            for left, right in zip(matrix(kx, union, degree), matrix(ky, union, degree))
        ]
        rank_phi[degree] = rank_over(phi, coeffs)
        rank_psi[degree] = rank_over(psi, coeffs)
        if any(norm(sum(a * b for a, b in zip(row, col))) for row in psi for col in zip(*phi)):
            failures.append(f"degree {degree}: composite of the stage maps is nonzero")
    for degree in range(-1, max_deg + 1):
        if rank_phi[degree] + rank_psi[degree] != ranks[degree]["xy"]:
            failures.append(
                f"degree {degree}: exactness fails at the middle "
                f"({rank_phi[degree]} + {rank_psi[degree]} != {ranks[degree]['xy']})"
            )
        down = degree - 1
        if down >= -1:
            lhs = ranks[degree]["u"] - rank_psi[degree]
            rhs = ranks[down]["a"] - rank_phi[down]
            if lhs != rhs:
                failures.append(f"degree {degree}: connecting rank mismatch ({lhs} != {rhs})")
        elif ranks[degree]["u"] != rank_psi[degree]:
            failures.append(f"degree {degree}: the bottom stage map is not surjective")
    return {"exact": not failures, "failures": failures, "ranks": ranks}


def relative_homology(k, l, coeffs="z", max_deg=None):
    """Homology of the quotient chain complex C(K) / C(L) in degrees
    0..max_deg, as a ``HomologyProfile``.  Both sides are augmented, so an
    empty L gives the unreduced homology of K.  The chains are the simplices
    of K outside L, and d_n is their dense boundary; its rank is counted by
    elimination over a field and by Smith invariants over z, where the
    invariants of d_(n+1) above 1 give the torsion of degree n."""
    if max_deg is None:
        max_deg = max(k.dim(), 0)
    chains = {n: [s for s in k.n_simplices(n) if s not in l] for n in range(max_deg + 2)}
    chains[-1] = []
    boundary = {n: boundary_oracle(chains[n - 1], chains[n]) for n in range(max_deg + 2)}
    if coeffs == "z":
        factors = {n: smith_invariants(m) for n, m in boundary.items()}
        rank = {n: len(f) for n, f in factors.items()}
    else:
        rank = {n: rank_over(m, coeffs) for n, m in boundary.items()}
    degrees = tuple(range(max_deg + 1))
    betti = {n: len(chains[n]) - rank[n] - rank[n + 1] for n in degrees}
    torsion = {}
    if coeffs == "z":
        for n in degrees:
            powers = sorted(q for d in factors[n + 1] if d > 1 for q in prime_power_factors(d))
            if powers:
                torsion[n] = tuple(powers)
    return HomologyProfile(coeffs, False, degrees, betti, torsion)


def check_cofiber_shift(complex_, sigma, coeffs="z", max_deg=None):
    """Check the suspension-shift bookkeeping for one vertex set.

    For an n-simplex ``sigma``, the homology of the pair (whole complex,
    union of the vertex-deleted restrictions) must equal the reduced
    homology of the outside obstruction complex shifted up by n + 1; and the
    intersection of that union with the star of ``sigma`` must have the
    n-shifted reduced homology of the same obstruction.  Returns a dict with
    ``consistent`` plus the compared tables.
    """
    k = complex_.to_explicit()
    sigma = _member(k, sigma)
    n = len(sigma) - 1
    if max_deg is None:
        max_deg = k.dim() + 1
    vertices = set(k.vertices)
    union = union_of(*(k.restrict(vertices - {v}) for v in sigma))
    obs = obstruction(k, sigma, vertices - set(sigma)).to_explicit()
    obs_profile = homology(obs, coeffs, max_deg=max(max_deg, 0), reduced=True)

    def shifted(i):
        if i < -1:
            return 0, ()
        return obs_profile.betti.get(i, 0), obs_profile.torsion_at(i)

    mismatches = []
    relative = relative_homology(k, union, coeffs, max_deg=max_deg)
    for i in range(0, max_deg + 1):
        left = relative.betti.get(i, 0), relative.torsion_at(i)
        right = shifted(i - n - 1)
        if left != right:
            mismatches.append({"degree": i, "pair": left, "shifted_obstruction": right})
    # n-fold suspension identity for the union-star intersection
    meet = homology(intersect(union, star(k, sigma)), coeffs, max_deg=max_deg, reduced=True)
    for i in range(-1, max_deg + 1):
        left = meet.betti.get(i, 0), meet.torsion_at(i)
        right = shifted(i - n)
        if left != right:
            mismatches.append({"degree": i, "union_star_meet": left, "shifted_obstruction": right})
    return {"simplex": sigma, "degree": n, "consistent": not mismatches, "mismatches": mismatches}
