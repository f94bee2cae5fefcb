"""Shared helpers: seeded random generators and independent oracles."""

import random
from fractions import Fraction
from itertools import combinations

from ripsdecomp import Complex, Cover, DistanceSpace

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


def random_pseudometric(rng, labels, max_whole=6):
    """Random finite pseudometric via shortest paths over a random weighting."""
    n = len(labels)
    weight = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = Fraction(rng.randint(1, max_whole))
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
