"""Shared test helpers: independent oracles and random form generators.

The oracles deliberately avoid the library's code paths: congruence is
checked by exhaustive search over small integer matrices, knot determinants
by building the Wirtinger matrix directly at t = -1 and eliminating over
exact rationals, inverses by rational Gauss-Jordan written out here.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from kirby4.matrices import SymIntMatrix


def S(rows) -> SymIntMatrix:
    return SymIntMatrix.from_rows(rows)


def mat_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def tr(a):
    return [list(r) for r in zip(*a)]


def sandwich(p, v):
    return mul(mul(tr(p), v), p)


def block_diag(*blocks):
    """Rows of the block-diagonal matrix with the given square blocks."""
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def fraction_det(rows) -> Fraction:
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def fraction_inverse(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = m[col][col]
        m[col] = [x / f for x in m[col]]
        inv[col] = [x / f for x in inv[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def brute_force_congruent(v: SymIntMatrix, w: SymIntMatrix, bound: int = 2) -> bool:
    """Exhaustive search for A with entries in [-bound, bound], det +-1,
    A^T V A == W.  Candidate columns are enumerated in full; quadratic values
    are precomputed only to skip products that already fail."""
    n = v.n
    if n != w.n:
        return False
    if n == 0:
        return True
    vr = v.rows()
    cols = list(itertools.product(range(-bound, bound + 1), repeat=n))
    vx = {c: [sum(vr[i][j] * c[j] for j in range(n)) for i in range(n)] for c in cols}
    norms = {c: sum(c[i] * vx[c][i] for i in range(n)) for c in cols}

    def extend(chosen):
        i = len(chosen)
        if i == n:
            a = [[chosen[j][r] for j in range(n)] for r in range(n)]
            return abs(fraction_det(a)) == 1
        for c in cols:
            if norms[c] != w[i][i]:
                continue
            if any(
                sum(c[r] * vx[chosen[j]][r] for r in range(n)) != w[i][j]
                for j in range(i)
            ):
                continue
            if extend(chosen + [c]):
                return True
        return False

    return extend([])


def brute_force_characteristic(v: SymIntMatrix):
    """All 0/1 vectors satisfying the characteristic condition mod 2."""
    n = v.n
    out = []
    for bits in itertools.product((0, 1), repeat=n):
        if all(
            sum(bits[r] * v[r][i] for r in range(n)) % 2 == v[i][i] % 2
            for i in range(n)
        ):
            out.append(bits)
    return out


def wirtinger_determinant_recount(crossings) -> int:
    """Knot determinant recomputed from scratch: group arcs into Wirtinger
    generators through over-passages, write the relation matrix directly at
    t = -1 (where positive and negative crossings give the same row), drop
    the last row and column, and eliminate over exact rationals."""
    xs = [tuple(t) for t in crossings]
    if not xs:
        return 1
    parent: dict[int, int] = {}

    def rep(a):
        chain = []
        while a in parent:
            chain.append(a)
            a = parent[a]
        for c in chain:
            parent[c] = a
        return a

    for _, b, _, d in xs:
        ra, rb = rep(b), rep(d)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    gens = sorted({rep(a) for t in xs for a in t})
    col = {g: i for i, g in enumerate(gens)}
    n = len(xs)
    mat = [[0] * len(gens) for _ in range(n)]
    for row, (a, b, c, _) in enumerate(xs):
        mat[row][col[rep(a)]] += -1
        mat[row][col[rep(b)]] += 2
        mat[row][col[rep(c)]] += -1
    minor = [r[: len(gens) - 1] for r in mat[: n - 1]]
    det = fraction_det(minor) if minor else Fraction(1)
    assert det.denominator == 1
    return abs(int(det))


def pd_face_count(crossings) -> int:
    """Faces of the 4-valent map of a PD code, traced from scratch: leave a
    crossing through a slot, walk the arc to its other end, turn to the
    previous slot there.  A connected diagram with n crossings is planar
    exactly when it has n + 2 faces."""
    ends: dict[int, list[tuple[int, int]]] = {}
    for k, t in enumerate(crossings):
        for s, a in enumerate(t):
            ends.setdefault(a, []).append((k, s))
    seen: set[tuple[int, int]] = set()
    faces = 0
    for start in ((k, s) for k in range(len(crossings)) for s in range(4)):
        if start in seen:
            continue
        faces += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            first, second = ends[crossings[cur[0]][cur[1]]]
            k, s = second if first == cur else first
            cur = (k, (s - 1) % 4)
    return faces


def random_unimodular(rng: random.Random, n: int, steps: int = 4):
    """Product of a few elementary matrices: unimodular with small entries."""
    q = mat_identity(n)
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if kind == 0 and i != j:
            s = rng.choice((1, -1))
            for r in range(n):
                q[r][i] += s * q[r][j]
        elif kind == 1 and i != j:
            for r in range(n):
                q[r][i], q[r][j] = q[r][j], q[r][i]
        else:
            for r in range(n):
                q[r][i] = -q[r][i]
    return q


def random_unimodular_symmetric(rng: random.Random, n: int, steps: int = 4,
                                definite: bool = False) -> SymIntMatrix:
    """Q^T D Q for random unimodular Q and D of +-1 and hyperbolic blocks."""
    d = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        if definite:
            d[i][i] = 1
            i += 1
        elif i + 1 < n and rng.random() < 0.4:
            d[i][i + 1] = d[i + 1][i] = 1
            i += 2
        else:
            d[i][i] = rng.choice((1, -1))
            i += 1
    q = random_unimodular(rng, n, steps)
    return S(sandwich(q, d))
