"""Shared helpers: seeded random generators and independent oracles."""

import math
import random
from fractions import Fraction
from itertools import combinations

from ripsdecomp import Complex, Cover, DistanceSpace, MetricCover

# the standard 6-vertex triangulation of the real projective plane
PROJECTIVE_PLANE = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def rng_for(seed):
    return random.Random(seed)


def random_complex(rng, max_vertices=8, max_facets=6, max_facet_size=4):
    n = rng.randint(2, max_vertices)
    vertices = list(range(n))
    facets = []
    for _ in range(rng.randint(1, max_facets)):
        size = rng.randint(1, min(max_facet_size, n))
        facets.append(rng.sample(vertices, size))
    return Complex.from_facets(facets)


def random_flag(rng, max_vertices=8, edge_p=0.5, dim_cap=4):
    n = rng.randint(2, max_vertices)
    edges = [
        (i, j) for i, j in combinations(range(n), 2) if rng.random() < edge_p
    ]
    return Complex.flag(range(n), edges, dim_cap=dim_cap)


def random_cover(rng, complex_):
    x, y = set(), set()
    for v in complex_.vertices:
        roll = rng.random()
        if roll < 0.4:
            x.add(v)
        elif roll < 0.8:
            y.add(v)
        else:
            x.add(v)
            y.add(v)
    if not x and complex_.vertices:
        x.add(complex_.vertices[0])
    return Cover(x, y)


def random_pseudometric(rng, labels, max_whole=6, denominators=None):
    """Random finite pseudometric via shortest paths over a random weighting;
    each weight is divided by a draw from ``denominators`` when given."""
    n = len(labels)
    weight = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = Fraction(rng.randint(1, max_whole))
            if denominators:
                w /= rng.choice(denominators)
            weight[i][j] = weight[j][i] = w
    # Floyd-Warshall closure makes the triangle inequality hold
    dist = [row[:] for row in weight]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if i != j and via < dist[i][j]:
                    dist[i][j] = via
    return DistanceSpace(labels, dist)


def circle_cover(n):
    """Circle metric d(i, j) = min(|i-j|, n-|i-j|) at r = n/4, with
    X = {i mod 3 != 2} and Y = {i mod 3 != 1}."""
    labels = [f"c{i}" for i in range(n)]
    dist = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
    x = [labels[i] for i in range(n) if i % 3 != 2]
    y = [labels[i] for i in range(n) if i % 3 != 1]
    return MetricCover(DistanceSpace(labels, dist), x, y, Fraction(n, 4))


def grid_cover(seed, n, side, radius):
    """n distinct points of a side x side grid under the L-inf distance, with
    a shuffled i mod 3 cover (a third X only, a third Y only, a third both)."""
    rng = rng_for(4000 + seed)
    cells = [(x, y) for x in range(side) for y in range(side)]
    pts = rng.sample(cells, n)
    dist = [[max(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in pts] for p in pts]
    labels = [f"g{i}" for i in range(n)]
    role = [i % 3 for i in range(n)]
    rng.shuffle(role)
    x = [lab for lab, r in zip(labels, role) if r != 2]
    y = [lab for lab, r in zip(labels, role) if r != 1]
    return MetricCover(DistanceSpace(labels, dist), x, y, radius)


def pseudometric_oracle(space):
    """First (x, y, z) in label order with d(x, z) > d(x, y) + d(y, z),
    by the plain triple loop over the extended rationals; else None."""
    n = len(space)
    m = space.matrix
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if m[i][k] > m[i][j] + m[j][k]:
                    return (space.labels[i], space.labels[j], space.labels[k])
    return None


def greedy_collapse_oracle(simplices):
    """Greedy elementary collapses by the plain rescan: each step sorts the
    survivors by (size, lexicographic) and takes the first with exactly one
    proper coface; returns the pair sequence, or None when stuck."""
    current = set(simplices)
    seq = []
    while len(current) > 1:
        found = None
        for s in sorted(current, key=lambda t: (len(t), t)):
            cofaces = [t for t in current if len(t) > len(s) and set(s) < set(t)]
            if len(cofaces) == 1:
                found = (s, cofaces[0])
                break
        if found is None:
            return None
        current.discard(found[0])
        current.discard(found[1])
        seq.append(found)
    return seq


def rank_oracle(mat):
    """Rank by plain rational forward elimination (first nonzero pivot)."""
    m = [[Fraction(v) for v in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if m else 0
    rank = 0
    for c in range(cols):
        pivot = None
        for i in range(rank, rows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rows):
            if i != rank and m[i][c]:
                factor = m[i][c] / m[rank][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def rank_mod_p_oracle(mat, p):
    """Rank over the prime field with p elements, by plain forward
    elimination on ints mod p; the twin of ``rank_oracle``."""
    m = [[v % p for v in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if m else 0
    rank = 0
    for c in range(cols):
        pivot = None
        for i in range(rank, rows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rows):
            if i != rank and m[i][c]:
                factor = m[i][c] * inv % p
                m[i] = [(a - factor * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def rank_over(mat, coeffs):
    """Oracle rank over "q" or "zp:<p>"."""
    return rank_oracle(mat) if coeffs == "q" else rank_mod_p_oracle(mat, int(coeffs[3:]))


def boundary_oracle(rows, cols):
    """Dense alternating-sign boundary between simplex lists (sorted
    tuples; ``()`` may be a row), written out independently of the package."""
    m = [[0] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            if face in rows:
                m[rows.index(face)][j] = (-1) ** i
    return m


def brute_force_membership(simplices, sigma):
    return tuple(sorted(set(sigma))) in set(simplices)


def label_simplices(complex_, max_dim=None):
    """Label-tuple view of a complex, for identity checks across reindexing."""
    return {
        tuple(sorted(str(complex_.label_of(v)) for v in s))
        for s in complex_.simplices(max_dim=max_dim)
    }


def random_metric_cover(rng, max_points=8):
    """A seeded cover of a random symmetric distance table, not always a
    pseudometric: whole or fractional entries (denominators up to 7), some
    ``inf`` entries, tolerance 0 or 1/7, and a radius that may be 0, a
    fraction, ``inf`` or above twice the largest finite entry."""
    n = rng.randint(1, max_points)
    labels = [f"p{i}" for i in range(n)]
    kind = rng.choice(("whole", "fraction", "inf", "metric"))
    if kind == "metric":
        matrix = [list(row) for row in random_pseudometric(rng, labels, 5, (1, 2, 3)).matrix]
    else:
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            if kind == "inf" and rng.random() < 0.3:
                v = math.inf
            else:
                v = Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 7)) if kind == "fraction" else 1)
            matrix[i][j] = matrix[j][i] = v
    finite = [v for row in matrix for v in row if v != math.inf]
    top = max(finite, default=Fraction(0))
    r = rng.choice((Fraction(rng.randint(0, 12), rng.choice((1, 2, 7))), math.inf, 2 * top + 1, top, 0))
    space = DistanceSpace(labels, matrix, tol=rng.choice((0, 0, Fraction(1, 7))))
    x, y = [], []
    for lab in labels:
        roll = rng.random()
        if roll < 0.7:
            x.append(lab)
        if roll >= 0.35 or lab not in x:
            y.append(lab)
    return MetricCover(space, x, y, r)


# Fraction references for the metric checks: one ``within`` test, on the
# public matrix, at a time.


def close_oracle(space, i, j, r):
    return space.matrix[i][j] <= r + space.tol


def cross_pairs_oracle(mc):
    return [
        (i, j)
        for i in sorted(mc.x - mc.a)
        for j in sorted(mc.y - mc.a)
        if close_oracle(mc.space, i, j, mc.r)
    ]


def shared_witnesses_oracle(mc):
    sp = mc.space
    return [
        v
        for v in sorted(mc.a)
        if all(
            close_oracle(sp, i, v, mc.r) and close_oracle(sp, j, v, mc.r)
            for i, j in cross_pairs_oracle(mc)
        )
    ]


def simplex_assumption_oracle(mc, strong=False):
    """First failing (v, a, b) of the (strong) simplex assumption, or None."""
    sp, m = mc.space, mc.space.matrix
    ends = {u for pair in cross_pairs_oracle(mc) for u in pair}
    for v in sorted(ends):
        near = [k for k in sorted(mc.a) if close_oracle(sp, k, v, mc.r)]
        for p, q in combinations(near, 2):
            if strong:
                bad = 2 * m[p][q] > m[p][v] + m[v][q] + sp.tol
            else:
                bad = not close_oracle(sp, p, q, mc.r)
            if bad:
                return (sp.labels[v], sp.labels[p], sp.labels[q])
    return None


def cross_domination_oracle(mc):
    """First (x, y, v) with d(x, y) below a leg to v, or None."""
    m = mc.space.matrix
    for i in sorted(mc.x - mc.a):
        for j in sorted(mc.y - mc.a):
            for v in sorted(mc.a):
                if m[i][j] < m[i][v] or m[i][j] < m[j][v]:
                    return tuple(mc.space.labels[k] for k in (i, j, v))
    return None


def witness_ball_oracle(mc):
    """First shared witness within r of every shared point that sits within r
    of both ends of a close cross pair, or None."""
    sp = mc.space
    for v in shared_witnesses_oracle(mc):
        if all(
            close_oracle(sp, v, w, mc.r)
            for i, j in cross_pairs_oracle(mc)
            for w in sorted(mc.a)
            if close_oracle(sp, w, i, mc.r) and close_oracle(sp, w, j, mc.r)
        ):
            return sp.labels[v]
    return None


def full_witness_oracle(mc):
    """First (x, y, v) of a close cross pair and a shared point out of
    reach of one of its ends, or None."""
    sp = mc.space
    for i, j in cross_pairs_oracle(mc):
        for v in sorted(mc.a):
            if not (close_oracle(sp, i, v, mc.r) and close_oracle(sp, j, v, mc.r)):
                return (sp.labels[i], sp.labels[j], sp.labels[v])
    return None
