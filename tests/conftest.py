"""Shared test helpers: independent oracles and random form generators.

The oracles deliberately avoid the library's code paths: congruence is
checked by exhaustive search over small integer matrices, Alexander
polynomials and knot determinants by building the Wirtinger matrix directly
at a rational t and eliminating over exact rationals, inverses by rational
Gauss-Jordan written out here, short vectors by walking a whole box, lattice
reduction by a rational Gram-Schmidt and a textbook rational LLL, the
symmetric elimination by one that updates every column in full, and the
first witness of a search by plain backtracking.
"""

from __future__ import annotations

import itertools
import math
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


def wirtinger_minor_at(crossings, t) -> Fraction:
    """Alexander polynomial of a knot's PD code at a nonzero rational t,
    recomputed from scratch: group arcs into Wirtinger generators through
    over-passages, read each crossing's sign off the arc labels (positive
    when the over strand runs from slot 3 to slot 1), write the relation
    matrix at t with t^-1 as an exact fraction (rows t^s, 1 - t^s, -1 at
    the incoming under, over and outgoing under generator for sign s, the
    generators ordered by smallest arc label), drop the last row and column,
    and eliminate over exact rationals."""
    xs = [tuple(t) for t in crossings]
    if not xs:
        return Fraction(1)
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
    mat = [[Fraction(0)] * len(gens) for _ in range(n)]
    for row, (a, b, c, d) in enumerate(xs):
        ts = Fraction(t) if d % (2 * n) + 1 == b else 1 / Fraction(t)
        mat[row][col[rep(a)]] += ts
        mat[row][col[rep(b)]] += 1 - ts
        mat[row][col[rep(c)]] += -1
    minor = [r[: len(gens) - 1] for r in mat[: n - 1]]
    return fraction_det(minor) if minor else Fraction(1)


def wirtinger_determinant_recount(crossings) -> int:
    """Knot determinant |Delta(-1)| from the Wirtinger minor at t = -1, where
    positive and negative crossings give the same row."""
    det = wirtinger_minor_at(crossings, -1)
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


def pd_piece_count(crossings) -> int:
    """Connected pieces of a PD code's diagram: crossings that share an arc
    label lie in one piece, found by a plain graph search over the tuples."""
    at: dict[int, list[int]] = {}
    for k, t in enumerate(crossings):
        for a in t:
            at.setdefault(a, []).append(k)
    seen: set[int] = set()
    pieces = 0
    for start in range(len(crossings)):
        if start in seen:
            continue
        pieces += 1
        todo = [start]
        seen.add(start)
        while todo:
            for a in crossings[todo.pop()]:
                for k in at[a]:
                    if k not in seen:
                        seen.add(k)
                        todo.append(k)
    return pieces


def box_short_vectors(v: SymIntMatrix, r: int):
    """All nonzero x with x^T V x <= r for positive definite V, in canonical
    order (first nonzero entry positive, sorted, each followed by -x), found
    by walking the whole box |x_i| <= sqrt(r (V^-1)_ii).  That bound is
    Cauchy-Schwarz in the inner product V: x_i = (V^-1 e_i)^T V x."""
    n = v.n
    inv = fraction_inverse(v.rows())
    bounds = [math.isqrt(math.floor(r * inv[i][i])) for i in range(n)]
    rows = v.rows()
    found = []
    x = [0] * n

    def walk(i, q):
        if i == n:
            if 1 <= q <= r and next(a for a in x if a) > 0:
                found.append(tuple(x))
            return
        lin = 2 * sum(rows[i][j] * x[j] for j in range(i))
        for t in range(-bounds[i], bounds[i] + 1):
            x[i] = t
            walk(i + 1, q + t * (lin + rows[i][i] * t))
        x[i] = 0

    walk(0, 0)
    return [y for t in sorted(found) for y in (t, tuple(-a for a in t))]


def lll_conditions_hold(v: SymIntMatrix, delta=Fraction(3, 4)) -> bool:
    """Size reduction |mu_ij| <= 1/2 and the Lovasz condition of the basis
    whose Gram matrix is V, from a Gram-Schmidt over exact rationals."""
    n = v.n
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (v[i][j] - sum(mu[j][k] * mu[i][k] * b[k] for k in range(j))) / b[j]
        b[i] = Fraction(v[i][i]) - sum(mu[i][k] ** 2 * b[k] for k in range(i))
    return all(2 * abs(mu[i][j]) <= 1 for i in range(n) for j in range(i)) and all(
        b[i] >= (delta - mu[i][i - 1] ** 2) * b[i - 1] for i in range(1, n)
    )


def textbook_lll(rows, delta=Fraction(3, 4)):
    """(U, U^T V U) of LLL on the basis whose Gram matrix is V, over exact
    rationals (Cohen, Alg. 2.6.3, lazy Gram-Schmidt up to kmax).  Step k
    size-reduces b_k against b_(k-1), then either swaps them (Lovasz test
    failed; k = max(1, k - 1)) or size-reduces b_k against b_(k-2), ..., b_0
    and moves on.  Reduction subtracts q = floor(mu + 1/2) copies and is
    skipped when |mu| <= 1/2.  The columns of U are the reduced basis."""
    n = len(rows)
    basis = [[int(i == j) for j in range(n)] for i in range(n)]  # basis[k] = column k of U

    def dot(i, j):
        return sum(a * sum(r * b for r, b in zip(row, basis[j]))
                   for a, row in zip(basis[i], rows) if a)

    mu = [[Fraction(0)] * n for _ in range(n)]
    big_b = [Fraction(0)] * n

    def red(k, l):
        if 2 * abs(mu[k][l]) <= 1:
            return
        q = math.floor(mu[k][l] + Fraction(1, 2))
        basis[k] = [a - q * b for a, b in zip(basis[k], basis[l])]
        mu[k][l] -= q
        for i in range(l):
            mu[k][i] -= q * mu[l][i]

    def swap(k, kmax):
        basis[k - 1], basis[k] = basis[k], basis[k - 1]
        for j in range(k - 1):
            mu[k - 1][j], mu[k][j] = mu[k][j], mu[k - 1][j]
        m = mu[k][k - 1]
        b = big_b[k] + m * m * big_b[k - 1]
        mu[k][k - 1] = m * big_b[k - 1] / b
        big_b[k] = big_b[k - 1] * big_b[k] / b
        big_b[k - 1] = b
        for i in range(k + 1, kmax + 1):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]

    if n:
        big_b[0] = Fraction(dot(0, 0))
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k):
                s = sum(mu[j][i] * mu[k][i] * big_b[i] for i in range(j))
                mu[k][j] = (dot(k, j) - s) / big_b[j]
            big_b[k] = dot(k, k) - sum(mu[k][j] ** 2 * big_b[j] for j in range(k))
        red(k, k - 1)
        if big_b[k] < (delta - mu[k][k - 1] ** 2) * big_b[k - 1]:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    u = tr(basis)
    return u, sandwich(u, rows)


def symmetric_bareiss(rows):
    """(P, pivot rows, diag D) of the symmetric fraction-free elimination of
    V, with every column of P and the whole block updated at every step.

    Before step i the block holds d_i times the Schur complement.  A zero
    pivot is repaired by the congruence "column i += column k" (and row i +=
    row k) with the first k > i pairing nonzero with i, applied at most
    twice; P takes the same column operation.  Step i then replaces entry
    (k, l) by (piv a_kl - a_ik a_il) / d_i and column k of P by
    (piv p_k - a_ik p_i) / d_i for all k, l > i.  Pivot row i is row i of
    the block from column i on, taken at pivot time."""
    m = len(rows)
    a = [list(r) for r in rows]
    cols = [[int(r == k) for r in range(m)] for k in range(m)]
    pivot_rows, diag, prev = [], [], 1
    for i in range(m):
        k = next((k for k in range(i + 1, m) if a[i][k]), None)
        for _ in range(2):
            if a[i][i] == 0:
                for c in range(m):
                    a[i][c] += a[k][c]
                for r in range(m):
                    a[r][i] += a[r][k]
                cols[i] = [x + y for x, y in zip(cols[i], cols[k])]
        piv = a[i][i]
        pivot_rows.append(a[i][i:])
        for k in range(i + 1, m):
            for l in range(i + 1, m):
                q, rem = divmod(piv * a[k][l] - a[i][k] * a[i][l], prev)
                assert rem == 0
                a[k][l] = q
            cols[k] = [(piv * x - a[i][k] * y) // prev for x, y in zip(cols[k], cols[i])]
        diag.append(prev * piv)
        prev = piv
    return [list(r) for r in zip(*cols)], pivot_rows, diag


def pivot_row_minors(rows, samples):
    """{(i, k): the minor that pivot row i of the symmetric fraction-free
    elimination should hold at column k >= i}, for each (i, k) in `samples`.

    That minor is det M[0..i; 0..i-1, k] of M = E^T V E, where E is the
    congruence of the pivot repairs made up to step i, by the rule of
    `symmetric_bareiss` (column and row i += column and row k for the first
    k > i pairing nonzero with i, at most twice).  The zero pivots are found
    by an ordinary elimination over exact rationals, which the repairs
    commute with because they touch only the trailing indices; each minor is
    a `fraction_det` of M."""
    m = len(rows)
    s = [[Fraction(x) for x in row] for row in rows]
    e = mat_identity(m)  # columns of E
    wanted: dict[int, list[int]] = {}
    for i, k in samples:
        wanted.setdefault(i, []).append(k)
    out = {}
    for i in range(m):
        k = next((k for k in range(i + 1, m) if s[i][k]), None)
        for _ in range(2):
            if s[i][i] == 0:
                for c in range(m):
                    s[i][c] += s[k][c]
                for r in range(m):
                    s[r][i] += s[r][k]
                for r in range(m):
                    e[r][i] += e[r][k]
        if i in wanted:
            mm = sandwich(e, rows)
            for k in wanted[i]:
                cols = list(range(i)) + [k]
                out[i, k] = fraction_det([[mm[r][c] for c in cols] for r in range(i + 1)])
        for r in range(i + 1, m):
            f = s[r][i] / s[i][i]
            if f:
                s[r] = [x - f * y for x, y in zip(s[r], s[i])]
    return out


def first_witness(v_rows, w_rows, cands, placed=None):
    """The first A (as a list of columns) with A^T V A = W whose columns are
    taken from `cands` in order, column 0 from the even positions only,
    found by plain backtracking over every pairing with the placed columns;
    None if there is none.  Each column placed, taken back or not, is
    appended to the list `placed` when one is given."""
    n = len(w_rows)
    images = [[sum(a * x for a, x in zip(row, c)) for row in v_rows] for c in cands]

    def pair(pos, y):
        return sum(a * b for a, b in zip(images[pos], y))

    def place(chosen):
        i = len(chosen)
        if i == n:
            return chosen
        for pos, c in enumerate(cands):
            if i == 0 and pos % 2:
                continue
            if pair(pos, c) == w_rows[i][i] and all(
                    pair(pos, b) == w_rows[i][j] for j, b in enumerate(chosen)):
                if placed is not None:
                    placed.append(c)
                found = place(chosen + [c])
                if found:
                    return found
        return None

    return place([])


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


def transvections(rng: random.Random, n: int, ops: int, window: int = 0,
                 shuffle: bool = False):
    """Unimodular Q from `ops` column additions q_i += +-q_j, each inside a
    run of `window` consecutive indices when one is given, then a column
    permutation when `shuffle` is set."""
    q = mat_identity(n)
    for _ in range(ops):
        lo = rng.randrange(n - window + 1) if window else 0
        i, j = rng.sample(range(lo, lo + (window or n)), 2)
        s = rng.choice((1, -1))
        for r in range(n):
            q[r][i] += s * q[r][j]
    if shuffle:
        perm = rng.sample(range(n), n)
        q = [[row[c] for c in perm] for row in q]
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
