"""Exact linear algebra: sparse integral invariants, small dense matrices.

``reduce_columns`` is the one sparse reduction, after Dumas, Heckenbach,
Saunders & Welker (2003): integer columns ``{row: value}`` are reduced on
their lowest rows with unit (+-1) pivots only, so every step is unimodular,
and a column whose lowest entry is not a unit is set aside.  Columns listed
as skipped are passed over; the caller vouches that each is an integer
combination of other columns (clearing).  ``block_invariants`` reads the
invariant factors of a row suffix or column prefix of the reduced matrix:
the unit block is triangular with a +-1 diagonal, so each unit pivot gives
one factor 1, and the set-aside columns are cleared on the unit pivot rows,
leaving a small remainder for the dense ``smith_invariants``
(smallest-magnitude pivots against coefficient blow-up).
``sparse_invariants`` is the whole-matrix case.  Dense field elimination on
``Fraction`` or ints mod p (lists of row lists) only builds explicit
induced-map matrices.
"""

from fractions import Fraction

from .errors import InvalidInput

__all__ = [
    "GF",
    "QQ",
    "Span",
    "block_invariants",
    "field_of",
    "kernel_basis",
    "matmul",
    "rank",
    "reduce_columns",
    "smith_invariants",
    "solve_in_span",
    "sparse_invariants",
]


# ----------------------------------------------------------------- integers


def _smallest_nonzero(m, t, nr, nc):
    best = None
    best_abs = None
    for i in range(t, nr):
        row = m[i]
        for j in range(t, nc):
            v = row[j]
            if v:
                a = -v if v < 0 else v
                if best_abs is None or a < best_abs:
                    best = (i, j)
                    best_abs = a
                    if a == 1:
                        return best
    return best


def smith_invariants(mat):
    """Invariant factors d1 | d2 | ... (positive, zeros omitted).

    The rank of the matrix is the number of invariants returned.
    """
    m = [[int(v) for v in row] for row in mat]
    nr = len(m)
    nc = len(m[0]) if m else 0
    invs = []
    t = 0
    while True:
        pos = _smallest_nonzero(m, t, nr, nc)
        if pos is None:
            break
        i, j = pos
        if i != t:
            m[t], m[i] = m[i], m[t]
        if j != t:
            for row in m:
                row[t], row[j] = row[j], row[t]
        while True:
            if m[t][t] < 0:
                m[t] = [-v for v in m[t]]
            p = m[t][t]
            moved = False
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // p
                    if q:
                        mt = m[t]
                        m[i] = [a - q * b for a, b in zip(m[i], mt)]
                    if m[i][t]:
                        # remainder strictly smaller than the pivot: promote it
                        m[t], m[i] = m[i], m[t]
                        moved = True
                        break
            if moved:
                continue
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // p
                    if q:
                        for row in m:
                            row[j] -= q * row[t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        moved = True
                        break
            if moved:
                continue
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if m[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[offender])]
        invs.append(m[t][t])
        t += 1
    for a, b in zip(invs, invs[1:]):
        assert b % a == 0, "invariant factors must divide"
    return invs


def _subtract(col, pivot, c):
    """col -= c * pivot, in place, dropping zeros."""
    for r, v in pivot.items():
        w = col.get(r, 0) - c * v
        if w:
            col[r] = w
        else:
            del col[r]


def reduce_columns(columns, skip=frozenset()):
    """Lowest-row reduction of sparse integer columns with unit pivots.

    Columns are read in order and left unmodified; the indices in ``skip``
    are passed over.  Returns ``(pivots, residual)``: ``pivots`` maps each
    unit pivot row to ``(column index, reduced column)``, and ``residual``
    lists ``(column index, column)`` for the columns set aside on a non-unit
    lowest entry.  Only earlier columns are ever added to a column.
    """
    pivots = {}
    residual = []
    for j, col in enumerate(columns):
        if j in skip or not col:
            continue
        col = dict(col)
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                break
            pivot = pivot[1]
            _subtract(col, pivot, col[low] * pivot[low])
        if col and col[low] in (1, -1):
            pivots[low] = (j, col)
        elif col:
            residual.append((j, col))
    return pivots, residual


def block_invariants(reduction, first_row=0, end_col=None):
    """Invariant factors of the block of rows >= ``first_row`` and columns
    < ``end_col`` (all columns when None) of a ``reduce_columns`` matrix.

    Exact when the block's columns reduce alone as they did in the whole
    matrix: a column prefix always does, and a row suffix does when the
    columns outside the block are zero on its rows.  The block's unit
    pivots each give one factor 1; its set-aside columns are cleared on
    those pivot rows and the remainder goes to ``smith_invariants``.
    """
    pivots, residual = reduction

    def inside(j, low):
        return low >= first_row and (end_col is None or j < end_col)

    units = {low: col for low, (j, col) in pivots.items() if inside(j, low)}
    rest = [dict(col) for j, col in residual if inside(j, max(col))]
    # clearing a pivot row only fills rows above it, so one downward pass
    # leaves the set-aside columns zero on every unit pivot row
    for row in sorted(units, reverse=True):
        pivot = units[row]
        for col in rest:
            if row in col:
                _subtract(col, pivot, col[row] * pivot[row])
    rows = sorted(r for r in set().union(*rest) if r >= first_row)
    dense = [[col.get(r, 0) for col in rest] for r in rows]
    return [1] * len(units) + smith_invariants(dense)


def sparse_invariants(columns):
    """``smith_invariants`` of the matrix with these sparse columns, which
    are left unmodified: the whole-matrix block of one reduction."""
    return block_invariants(reduce_columns(columns))


def prime_power_factors(n):
    """Prime-power decomposition of |n| > 1 as a sorted list, e.g. 12 -> [3, 4]."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                q *= p
                n //= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return sorted(out)


# -------------------------------------------------------------------- fields


class QQ:
    """The rationals."""

    name = "q"
    char = 0

    @staticmethod
    def of(n):
        return Fraction(n)

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        return 1 / a


class GF:
    """The prime field with p elements, carried on ints in [0, p), for
    p < 2**31 so that the trial-division primality test stays quick."""

    def __init__(self, p):
        if p >= 2**31:
            raise InvalidInput("prime fields need p < 2**31")
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise InvalidInput(f"{p} is not prime")
        self.p = self.char = p
        self.name = f"zp:{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)


def field_of(name):
    """Field of a descriptor, "q" or "zp:<p>" with p prime, else InvalidInput;
    its ``char`` is the characteristic that ranks are counted in."""
    if name == "q":
        return QQ
    digits = name[3:] if name.startswith("zp:") else ""
    if not (digits.isascii() and digits.isdigit()):
        raise InvalidInput(f"not a field descriptor: {name!r}")
    if len(digits) > 10:    # 2**31 has 10 digits; int() refuses past 4,300
        raise InvalidInput("prime fields need p < 2**31")
    return GF(int(digits))


def _convert(mat, field):
    return [[field.of(v) for v in row] for row in mat]


def _rref(mat, field):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = _convert(mat, field)
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(nc):
        pivot_row = None
        for i in range(r, nr):
            if m[i][c] != field.zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, v) for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def rank(mat, field=QQ):
    if not mat or not mat[0]:
        return 0
    return len(_rref(mat, field)[1])


def kernel_basis(mat, field=QQ, ncols=None):
    """Basis of the null space, as a list of column vectors.

    ``ncols`` is required when the matrix has no rows (the kernel is then
    the whole column space).
    """
    nc = len(mat[0]) if mat else ncols
    if not nc:
        return []
    if not mat:
        mat = [[0] * nc]
    red, pivots = _rref(mat, field)
    pivot_set = set(pivots)
    free = [c for c in range(nc) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [field.zero] * nc
        vec[f] = field.one
        for r, c in enumerate(pivots):
            vec[c] = field.sub(field.zero, red[r][f])
        basis.append(vec)
    return basis


def matmul(a, b, field=QQ):
    nr = len(a)
    inner = len(b)
    nc = len(b[0]) if b else 0
    out = [[field.zero] * nc for _ in range(nr)]
    for i in range(nr):
        for k in range(inner):
            v = field.of(a[i][k])
            if v == field.zero:
                continue
            for j in range(nc):
                out[i][j] = field.add(out[i][j], field.mul(v, field.of(b[k][j])))
    return out


class Span:
    """Incremental span of vectors over a field, by online elimination."""

    def __init__(self, field):
        self.field = field
        self.rows = []          # echelon vectors
        self.pivots = []        # pivot index per row

    def _reduce(self, vec):
        f = self.field
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            coef = v[piv]
            if coef != f.zero:
                v = [f.sub(a, f.mul(coef, b)) for a, b in zip(v, row)]
        return v

    def contains(self, vec):
        return all(v == self.field.zero for v in self._reduce(vec))

    def add(self, vec):
        """Insert a vector; True when it enlarged the span."""
        f = self.field
        v = self._reduce(vec)
        for i, value in enumerate(v):
            if value != f.zero:
                inv = f.inv(value)
                v = [f.mul(inv, u) for u in v]
                self.rows.append(v)
                self.pivots.append(i)
                return True
        return False

    @property
    def dim(self):
        return len(self.rows)


def solve_in_span(basis_cols, targets, field=QQ):
    """Coordinates of each target column in the span of the basis columns.

    The basis columns must be linearly independent and must span every
    target; both are guaranteed by the callers here and asserted.
    """
    k = len(basis_cols)
    t = len(targets)
    if t == 0:
        return []
    m = len(targets[0])
    aug = [
        [basis_cols[c][r] for c in range(k)] + [targets[c][r] for c in range(t)]
        for r in range(m)
    ]
    red, pivots = _rref(aug, field)
    assert all(p < k for p in pivots), "target outside the span"
    assert len(pivots) == k, "basis columns must be independent"
    coords = []
    for s in range(t):
        vec = [field.zero] * k
        for r, c in enumerate(pivots):
            vec[c] = red[r][k + s]
        coords.append(vec)
    return coords
