"""The tests' two oracles for ``convolution._spans``.

``convolution._spans`` decides spanning by unit-pivot elimination over a
column index.  The tests compare it with the invariant factors of the
integer Smith normal form computed here, which they check against the
gcd-of-minors definition, and with ``unindexed_spans``: the same
elimination without the index, over integer coordinates, which finds the
rows at each coordinate by scanning all of them.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from cogroups.algebra import accumulate


@dataclass(frozen=True)
class SnfResult:
    """U * M * V = D with U, V unimodular and D in Smith normal form.

    The diagonal entries of D are nonnegative and each divides the next;
    zeros come last.  ``factors`` lists the diagonal of D.
    """

    U: tuple
    D: tuple
    V: tuple

    @property
    def factors(self) -> tuple:
        return tuple(
            self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))
        )


def _identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def smith_normal_form(matrix) -> SnfResult:
    """Smith normal form of an integer matrix, with the transforms.

    Works on any rectangular matrix, including empty ones.  Pure integer
    row and column operations; the same operations are mirrored onto U
    (rows) and V (columns), so U * matrix * V equals the returned D.
    """
    A = [list(map(int, row)) for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("matrix rows have unequal lengths")
    U = _identity(m)
    V = _identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row i += q * row j
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, q):
        # col i += q * col j
        for row in A:
            row[i] += q * row[j]
        for row in V:
            row[i] += q * row[j]

    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            i = next((r for r in range(t + 1, m) if A[r][t]), None)
            if i is not None:
                q = A[i][t] // A[t][t]
                add_row(i, t, -q)
                if A[i][t]:
                    swap_rows(t, i)
                continue
            j = next((c for c in range(t + 1, n) if A[t][c]), None)
            if j is not None:
                q = A[t][j] // A[t][t]
                add_col(j, t, -q)
                if A[t][j]:
                    swap_cols(t, j)
                continue
            # pivot divides everything that remains, or gets fixed up
            p = A[t][t]
            bad = next(
                (
                    (i2, j2)
                    for i2 in range(t + 1, m)
                    for j2 in range(t + 1, n)
                    if A[i2][j2] % p
                ),
                None,
            )
            if bad is None:
                break
            add_row(t, bad[0], 1)
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
        t += 1

    freeze = lambda M: tuple(tuple(row) for row in M)
    return SnfResult(U=freeze(U), D=freeze(A), V=freeze(V))


def unindexed_spans(vectors, k, ring) -> bool:
    """Whether the sparse vectors ``{coordinate: coefficient}`` span R^k.

    Forward elimination over the coordinates 0..k-1 that pivots only on a
    unit of R: a nonzero entry over Q and F_p, +-1 over Z, an entry prime
    to n over Z/n.  Once the coordinates before i are cleared with unit
    pivots, the pivot rows and the coordinates from i on split R^k as a
    direct sum, so the vectors span R^k exactly when the unused ones span
    the coordinates from i on: exactly when, at i and at each later
    coordinate, their entries generate the unit ideal of R (R is a PID or
    a quotient of Z).  Over Z and Z/n a Euclid loop of row operations
    turns entries that generate it into a unit; when it leaves one
    non-unit, or none, they generate a proper ideal.
    """
    n = ring.characteristic()
    if ring.kind == "Z":
        is_unit, inverse = (lambda x: abs(x) == 1), (lambda x: x)
    elif ring.kind == "Q":
        is_unit, inverse = bool, (lambda x: Fraction(1) / x)
    else:  # Z/n and F_p, entries reduced mod n
        is_unit, inverse = (lambda x: gcd(x, n) == 1), (lambda x: pow(x, -1, n))
    rows = []
    for v in vectors:
        row: dict = {}
        _add_row(row, v, 1, n)
        if row:
            rows.append(row)
    for i in range(k):
        live = [r for r in rows if i in r]
        top = next((r for r in live if is_unit(r[i])), None)
        while top is None:
            if len(live) < 2:
                return False
            p = min(live, key=lambda r: abs(r[i]))
            for r in live:
                if r is not p:
                    _add_row(r, p, -(r[i] // p[i]), n)
            live = [r for r in live if i in r]
            top = next((r for r in live if is_unit(r[i])), None)
        inv = inverse(top[i])
        for r in live:
            if r is not top:
                _add_row(r, top, -r[i] * inv, n)
        rows = [r for r in rows if r is not top]
    return True


def _add_row(row: dict, top: dict, f, n: int) -> None:
    """row += f * top, reduced mod n (n = 0: unreduced), zeros dropped."""
    accumulate(row, top, f)
    for c in top:
        x = row[c] % n if n else row[c]
        if x:
            row[c] = x
        else:
            del row[c]
