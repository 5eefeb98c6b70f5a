"""Exact integer matrix utilities shared across the package.

All arithmetic is arbitrary precision: determinants use fraction-free
(Bareiss) elimination.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import index

from .errors import DimensionMismatch, MalformedInput

IntRows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SymIntMatrix:
    """Symmetric matrix with arbitrary-precision integer entries.

    `det` and the record of `forms.diagonalize_over_Q`'s elimination, which
    `forms` keeps in `memo`, are computed at most once per instance.  They
    live on the instance alone: an equal matrix built separately computes
    them again, and neither takes part in equality, hashing or repr.
    """

    n: int
    entries: IntRows
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise DimensionMismatch(f"expected {self.n}x{self.n} entry grid")
        e = self.entries
        if tuple(zip(*e)) != tuple(map(tuple, e)):
            i, j = next((i, j) for i in range(self.n) for j in range(i) if e[i][j] != e[j][i])
            raise MalformedInput(f"matrix not symmetric at ({i},{j})")

    @classmethod
    def from_rows(cls, rows) -> "SymIntMatrix":
        """Rows of integers (anything `operator.index` takes, bool too); a float,
        string or None raises MalformedInput instead of being truncated."""
        try:
            grid = tuple(tuple(map(index, row)) for row in rows)
        except TypeError as exc:
            raise MalformedInput(f"matrix entries must be integers: {exc}") from exc
        return cls(len(grid), grid)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(self.n))

    @cached_property
    def det(self) -> int:
        return bareiss_det(self.rows())

    def is_unimodular(self) -> bool:
        return self.det in (1, -1)


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(rows) -> list[list[int]]:
    return [list(col) for col in zip(*rows)] if rows else []


def mat_mul(a, b) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("matrix product shape mismatch")
    out = []
    for row in a:
        acc = [0] * len(b[0]) if b else []
        for x, brow in zip(row, b):
            if x:  # a row of the product sums rows of b, so zeros of a cost nothing
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(acc)
    return out


def congruence(p, v) -> list[list[int]]:
    """Return p^T v p."""
    return mat_mul(mat_mul(transpose(p), v), p)


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination.

    Step k replaces each row i below the pivot by
    (m_kk * row_i - m_ik * row_k) / prev, where prev is the pivot of step
    k - 1.  Every entry this produces is a minor of the input (Sylvester's
    identity; Bareiss 1968), so each division is exact.

    A row whose multiplier m_ik is 0 would only be rescaled by m_kk / prev,
    so it is left untouched, and `scale[i]` keeps the pivot of the last step
    at which it was current; a row swap carries it along.  The row is
    brought current, over the columns still in play, by x * prev // scale[i]
    when it becomes the pivot row or its multiplier turns out nonzero, and
    the last entry is brought current before it is returned.  That division
    is exact too: the skipped factors telescope to prev / scale[i], so the
    result is the entry's value under the full elimination, a minor.  A
    stored entry is zero exactly when its current value is, so the zero
    tests need no rescaling.  Wirtinger rows have at most three nonzeros,
    so most rows of a knot minor are skipped at most steps.
    """
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("determinant needs a square matrix")
    m = [list(r) for r in rows]
    scale = [1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    scale[k], scale[i] = scale[i], scale[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[k]
        s = scale[k]
        if s != prev:
            for j in range(k, n):
                pivot_row[j] = pivot_row[j] * prev // s
        piv = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            if row[k]:
                s = scale[i]
                if s != prev:
                    for j in range(k, n):
                        row[j] = row[j] * prev // s
                f = row[k]
                for j in range(k + 1, n):
                    row[j] = (row[j] * piv - f * pivot_row[j]) // prev
                scale[i] = piv
        prev = piv
    return sign * (m[n - 1][n - 1] * prev // scale[n - 1])
