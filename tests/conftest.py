"""Shared helpers: seeded random generators and independent oracles."""

import json
import math
import random
from fractions import Fraction
from itertools import combinations

from ripsdecomp import Complex, Cover, DistanceSpace, MetricCover
from ripsdecomp.corpus import CASES
from ripsdecomp.reporting import parse_report, render_json

# the standard 6-vertex triangulation of the real projective plane
PROJECTIVE_PLANE = [
    [0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
    [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5],
]


def dunce_hat():
    """Facets of a 25-vertex, 54-triangle dunce hat: contractible and
    integrally acyclic, but no edge lies in only one triangle, so it has
    neither a central vertex nor a collapse.

    The triangle with corners P0 = (0, 0), P1 = (3, 0) and P2 = (0, 3) is
    cut into a 3 x 3 grid of small triangles, and its sides P0 -> P1,
    P1 -> P2 and P0 -> P2 are each glued to one edge a (boundary word
    a a a^-1).  At P0 and P2 the corner triangle has two sides on the same
    segment of a, so the grid diagonal there is flipped.  The barycentric
    subdivision of the glued complex is then a simplicial complex: its
    vertices are the glued cells.
    """
    tris = [((i, j), (i + 1, j), (i, j + 1)) for i in range(3) for j in range(3 - i)]
    tris += [((i + 1, j), (i, j + 1), (i + 1, j + 1)) for i in range(2) for j in range(2 - i)]
    for corner, a, b in (((0, 0), (1, 0), (0, 1)), ((0, 3), (0, 2), (1, 2))):
        tris = [t for t in tris if not {a, b} <= set(t)]
        tris += [(corner, a, (1, 1)), (corner, b, (1, 1))]

    def point(p):
        i, j = p
        if j == 0 or i == 0 or i + j == 3:
            t = i if j == 0 else j         # position along a
            return ("a", 0 if t == 3 else t)
        return ("grid", p)

    def segment(p, q):
        if p[1] == q[1] == 0:
            return ("a", min(p[0], q[0]), "segment")
        if p[0] == q[0] == 0 or sum(p) == sum(q) == 3:
            return ("a", min(p[1], q[1]), "segment")
        return ("grid", tuple(sorted((p, q))))

    flags = [
        (point(t[k]), segment(t[k], t[k - m]), ("face", tuple(sorted(t))))
        for t in tris
        for k in range(3)
        for m in (1, 2)
    ]
    index = {c: i for i, c in enumerate(sorted({c for f in flags for c in f}, key=repr))}
    return sorted(sorted(index[c] for c in f) for f in flags)


def barycentric_flag(facets, dim_cap):
    """The barycentric subdivision of the complex the facets generate, as a
    flag complex: one vertex per face, and an edge between two faces when
    one contains the other, so the cliques are the chains of faces."""
    faces = sorted(
        {f for facet in facets for k in range(1, len(facet) + 1)
         for f in combinations(sorted(facet), k)},
        key=lambda f: (len(f), f),
    )
    edges = [
        (i, j)
        for i, j in combinations(range(len(faces)), 2)
        if set(faces[i]) < set(faces[j])
    ]
    return Complex.flag(range(len(faces)), edges, dim_cap)


def rp2_with_clique(size, dim_cap=3):
    """A flag complex and cover whose torsion criterion rests on a big cone:
    A is the barycentric RP^2 (31 vertices) beside a ``size``-clique, the
    cross edge x1 y1 is joined to every RP^2 vertex and the cross edge x2 y2
    to every clique vertex, with X = A + {x1, x2} and Y = A + {y1, y2}.  So
    the obstructions are RP^2 (Z/2 in degree 1, nothing above) and the
    clique, a cone."""
    rp2 = barycentric_flag(PROJECTIVE_PLANE, dim_cap)
    n = len(rp2.vertices)
    clique = range(n, n + size)
    x1, y1, x2, y2 = range(n + size, n + size + 4)
    edges = rp2.edges() + list(combinations(clique, 2)) + [(x1, y1), (x2, y2)]
    edges += [(e, v) for e in (x1, y1) for v in rp2.vertices]
    edges += [(e, v) for e in (x2, y2) for v in clique]
    k = Complex.flag(range(n + size + 4), edges, dim_cap)
    a = set(range(n + size))
    return k, Cover(a | {x1, x2}, a | {y1, y2})


def hop_metric_cover(k, cover):
    """The hop distances of a flag complex's graph, ``inf`` between its
    components, with the cover, at r = 1, where the Vietoris-Rips complex
    is ``k`` again; point i is labelled "p<i>"."""
    n = len(k.vertices)
    dist = []
    for source in range(n):
        row, frontier, d = ["inf"] * n, [source], 0
        while frontier:
            for v in frontier:
                row[v] = d
            frontier = sorted({w for v in frontier for w in range(n)
                               if k._adj[v] >> w & 1 and row[w] == "inf"})
            d += 1
        dist.append(row)
    labels = [f"p{i}" for i in range(n)]
    x = [labels[i] for i in sorted(cover.x)]
    y = [labels[i] for i in sorted(cover.y)]
    return MetricCover(DistanceSpace(labels, dist), x, y, 1)


def case_by_name(name):
    """The corpus case of that name."""
    return next(c for c in CASES if c.name == name)


def assert_views_read_as_parsed(report):
    """Each field a report keeps as records reads as the same field of the
    report its JSON parses to: the same ``json.dumps`` text without
    ``sort_keys``, so key order included.  The report must keep records."""
    assert report.records, "the report keeps no records"
    parsed = parse_report(render_json(report))
    for field in ("items", "profiles", "induced"):
        assert json.dumps(getattr(report, field)) == json.dumps(getattr(parsed, field)), field
    assert report.records == {}


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


def fresh(k):
    """A copy of a complex with an empty memo."""
    if k.is_flag:
        return Complex.flag(k.vertices, k.edges(), k.dim_cap)
    return Complex.from_facets(k.simplices())


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


def cover_shapes(rng, complex_):
    """Four covers of a complex with at least two vertices: a random one,
    one with an empty A, then X and then Y holding every vertex."""
    vertices = list(complex_.vertices)
    some = set(rng.sample(vertices, rng.randint(1, len(vertices) - 1)))
    return [
        random_cover(rng, complex_),
        Cover(some, set(vertices) - some),
        Cover(vertices, some),
        Cover(some, vertices),
    ]


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


def cliques_oracle(k, size):
    """The ``size``-vertex cliques of a flag complex's graph, lexicographic:
    every ``size``-subset of its vertices whose pairs are all edges."""
    edges = set(k.edges())
    return [
        c for c in combinations(k.vertices, size) if edges.issuperset(combinations(c, 2))
    ]


def label_simplices(complex_, max_dim=None):
    """Label-tuple view of a complex, for identity checks across reindexing."""
    return {
        tuple(sorted(str(complex_.label_of(v)) for v in s))
        for s in complex_.simplices(max_dim=max_dim)
    }


def random_metric_cover(rng, max_points=8):
    """A seeded cover of a random symmetric distance table, not always a
    pseudometric: whole or fractional entries (denominators up to 7), some
    ``inf`` entries, and a radius that may be 0, a fraction, ``inf`` or
    above twice the largest finite entry."""
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
    # an unused draw, once a comparison tolerance: it keeps the seeded stream,
    # and with it the recorded fuzz digests
    rng.choice((0, 0, Fraction(1, 7)))
    space = DistanceSpace(labels, matrix)
    x, y = [], []
    for lab in labels:
        roll = rng.random()
        if roll < 0.7:
            x.append(lab)
        if roll >= 0.35 or lab not in x:
            y.append(lab)
    return MetricCover(space, x, y, r)


# Fraction references for the metric checks: one ``d <= r`` test, on the
# public matrix, at a time.


def close_oracle(space, i, j, r):
    return space.matrix[i][j] <= r


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
            bad = not close_oracle(sp, p, q, mc.r)
            if strong:
                bad = bad or 2 * m[p][q] > m[p][v] + m[v][q]
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
