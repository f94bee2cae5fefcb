"""Definitional references for the package, written on its public API.

* Complex operations the pipeline does not run: ``star``, ``obstruction``
  (the reference for ``enumerate_p_complement``), ``skeleton``, ``join`` and
  ``intersect``, plus ``replay_collapses`` for collapse certificates.
* Distance spaces: ``d_label``, ``subspace`` and the metric gluing ``glue``.
* The verification layer, dense: the matrix of an induced map on field
  homology, by plain Gauss-Jordan elimination on ``Fraction`` or on ints
  mod p, and the two theorem checks of the cover square that read it.  The
  package counts every rank from integer invariant factors and never builds
  these matrices; the checks here hold its answers to the Mayer-Vietoris
  sequence and to the cofiber-shift identity.
"""

import math
import warnings
from fractions import Fraction

from ripsdecomp import (
    Complex,
    DistanceSpace,
    InvalidInput,
    NotASimplex,
    homology,
    induced_map,
    make_simplex,
    relative_homology,
)

from conftest import boundary_oracle, rank_over


# ------------------------------------------------------- complex operations


def star(k, sigma):
    """All simplices whose union with ``sigma`` is still a simplex."""
    s = make_simplex(sigma)
    if s not in k:
        raise NotASimplex(f"{s} is not a simplex of this complex")
    if k.is_flag:
        return k.restrict([v for v in k.vertices if make_simplex(s + (v,)) in k])
    members = [mu for mu in k.simplices() if make_simplex(mu + s) in k]
    return Complex.from_simplices(members, labels=k.labels)


def obstruction(k, sigma, subset):
    """The simplices of K[subset] whose union with ``sigma`` is a simplex: the
    star of ``sigma`` restricted to ``subset``; may be empty."""
    return star(k, sigma).restrict(subset)


def skeleton(k, n):
    """All simplices of dimension at most ``n``, as an explicit complex."""
    if n < 0:
        raise InvalidInput("skeleton degree must be nonnegative")
    return Complex.from_simplices(k.simplices(max_dim=n), labels=k.labels)


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
    left, right = (c.to_explicit(full=True).simplices() for c in (k, l))
    joined = left + right + [s + t for s in left for t in right]
    return Complex.from_simplices(joined, labels=labels)


def intersect(k, l):
    """Intersection of two complexes; two flag complexes meet in a flag one."""
    if k.is_flag and not l.is_flag:
        k, l = l, k
    labels = k.labels or l.labels
    if k.is_flag:
        common = set(k.vertices) & set(l.vertices)
        edges = [e for e in k.edges() if e in l]
        return Complex.flag(common, edges, min(k.dim_cap, l.dim_cap), labels=labels)
    return Complex.from_simplices([s for s in k.simplices() if s in l], labels=labels)


def replay_collapses(k, collapses):
    """Replay a collapse sequence; returns the surviving simplices."""
    current = set(k.to_explicit(full=True).simplices())
    for s, t in collapses:
        cofaces = [u for u in current if len(u) > len(s) and set(s) < set(u)]
        if s not in current or cofaces != [t]:
            raise InvalidInput("collapse sequence does not replay")
        current.discard(s)
        current.discard(t)
    return current


# ---------------------------------------------------------- distance spaces


def d_label(space, a, b):
    return space.matrix[space.index(a)][space.index(b)]


def subspace(space, labels):
    idx = [space.index(lab) for lab in labels]
    return DistanceSpace(
        [space.labels[i] for i in idx],
        [[space.matrix[i][j] for j in idx] for i in idx],
        tol=space.tol,
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
    tol = dx.tol if dx.tol >= dy.tol else dy.tol
    return DistanceSpace(labels, matrix, tol=tol)


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
    union = kx.union(ky)
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


def check_cofiber_shift(complex_, sigma, coeffs="z", max_deg=None):
    """Check the suspension-shift bookkeeping for one vertex set.

    For an n-simplex ``sigma``, the homology of the pair (whole complex,
    union of the vertex-deleted restrictions) must equal the reduced
    homology of the outside obstruction complex shifted up by n + 1; and the
    intersection of that union with the star of ``sigma`` must have the
    n-shifted reduced homology of the same obstruction.  Returns a dict with
    ``consistent`` plus the compared tables.
    """
    k = complex_.to_explicit(full=True)
    sigma = make_simplex(sigma)
    if sigma not in k:
        raise NotASimplex(f"{sigma} is not a simplex here")
    n = len(sigma) - 1
    if max_deg is None:
        max_deg = k.dim() + 1
    vertices = set(k.vertices)
    union = Complex.empty()
    for v in sigma:
        union = union.union(k.restrict(vertices - {v}))
    obs = obstruction(k, sigma, vertices - set(sigma)).to_explicit(full=True)
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
