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
``sparse_invariants`` is the whole-matrix case.  Ranks over a field are
counted from these invariants, so a field enters only as its characteristic
(``characteristic``).
"""

from .errors import InvalidInput

__all__ = [
    "block_invariants",
    "characteristic",
    "prime_factorization",
    "prime_power_factors",
    "reduce_columns",
    "smith_invariants",
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


def prime_factorization(n):
    """Prime factorization of |n| as sorted (prime, exponent) pairs, by trial
    division up to the square root; empty for 0 and 1."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                e += 1
                n //= p
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def prime_power_factors(n):
    """Prime-power decomposition of |n| > 1 as a sorted list, e.g. 12 -> [3, 4]."""
    return sorted(p**e for p, e in prime_factorization(n))


# -------------------------------------------------------------------- fields


def characteristic(name):
    """Characteristic of a field descriptor: 0 for "q", p for "zp:<p>" with p
    a prime below 2**31 written without leading zeros, else InvalidInput.
    The bound keeps the trial-division primality test quick."""
    if name == "q":
        return 0
    digits = name[3:] if name.startswith("zp:") else ""
    if not (digits.isascii() and digits.isdigit()):
        raise InvalidInput(f"not a field descriptor: {name!r}")
    if digits[0] == "0" and len(digits) > 1:
        raise InvalidInput(f"not a field descriptor: {name!r} has a leading zero")
    if len(digits) > 10:    # 2**31 has 10 digits; int() refuses past 4,300
        raise InvalidInput("prime fields need p < 2**31")
    p = int(digits)
    if p >= 2**31:
        raise InvalidInput("prime fields need p < 2**31")
    if p < 2 or prime_factorization(p) != [(p, 1)]:
        raise InvalidInput(f"{p} is not prime")
    return p
