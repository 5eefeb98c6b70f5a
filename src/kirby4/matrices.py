"""Exact integer matrix utilities shared across the package.

All arithmetic is arbitrary precision: determinants use fraction-free
(Bareiss) elimination.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import DimensionMismatch, MalformedInput

IntRows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SymIntMatrix:
    """Symmetric matrix with arbitrary-precision integer entries.

    `det` and the analyses other modules keep in `memo` (the `FormClass` of
    `forms.classify`) are computed at most once per instance.  They live on
    the instance alone: an equal matrix built separately computes them again,
    and neither takes part in equality, hashing or repr.
    """

    n: int
    entries: IntRows
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise DimensionMismatch(f"expected {self.n}x{self.n} entry grid")
        for i in range(self.n):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise MalformedInput(f"matrix not symmetric at ({i},{j})")

    @classmethod
    def from_rows(cls, rows) -> "SymIntMatrix":
        grid = tuple(tuple(int(x) for x in row) for row in rows)
        return cls(len(grid), grid)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def neg(self) -> "SymIntMatrix":
        return SymIntMatrix(self.n, tuple(tuple(-x for x in r) for r in self.entries))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(self.n))

    def direct_sum(self, other: "SymIntMatrix") -> "SymIntMatrix":
        n, m = self.n, other.n
        rows = [list(self.entries[i]) + [0] * m for i in range(n)]
        rows += [[0] * n + list(other.entries[i]) for i in range(m)]
        return SymIntMatrix.from_rows(rows)

    @cached_property
    def det(self) -> int:
        return bareiss_det(self.rows())

    def is_unimodular(self) -> bool:
        return self.det in (1, -1)

    def as_dict(self) -> dict:
        return {"n": self.n, "entries": [list(r) for r in self.entries]}


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(rows) -> list[list[int]]:
    return [list(col) for col in zip(*rows)] if rows else []


def mat_mul(a, b) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise DimensionMismatch("matrix product shape mismatch")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v) -> list[int]:
    if a and len(a[0]) != len(v):
        raise DimensionMismatch("matrix-vector shape mismatch")
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def congruence(p, v) -> list[list[int]]:
    """Return p^T v p."""
    return mat_mul(mat_mul(transpose(p), v), p)


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("determinant needs a square matrix")
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
