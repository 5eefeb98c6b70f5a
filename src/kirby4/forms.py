"""Exact algebra of integral symmetric unimodular forms.

Covers diagonalization over Q by a symmetric fraction-free (Bareiss)
elimination whose entries stay minors of the form,
signature/parity/definiteness classification, characteristic vectors mod 2,
and the full congruence decision: rank/signature/parity for indefinite
forms; for definite ones, "reduce, then enumerate": integral LLL on both
forms, an integer Fincke-Pohst enumeration of short vectors read from the
same elimination, a rejection when the norm counts differ, and an exhaustive
backtracking search whose witness is the first one in the canonical order
of the *reduced* basis.  The negative definite case is reduced to the
positive one by negation.  A form's determinant, class and elimination are
computed once per `SymIntMatrix` instance: -V takes all three from V's,
and LLL starts from the elimination's pivot rows.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from operator import add, mul, neg
from typing import Optional

from .errors import (
    InternalInvariantViolation,
    MalformedInput,
    NotIndefinite,
    NotPositiveDefinite,
    NotUnimodular,
    ResourceLimitExceeded,
)
from .matrices import (
    IntRows,
    SymIntMatrix,
    bareiss_det,
    congruence,
    identity,
    mat_mul,
    mat_vec,
    transpose,
)

EVEN, ODD = "even", "odd"
POSITIVE, NEGATIVE, INDEFINITE = "positive", "negative", "indefinite"
_FACTOR = "factor"  # memo key of the pivot rows and D of diagonalize_over_Q
_NORMS = "norms"  # (_NORMS, r): norms of short_vectors(v, r)'s representatives


@dataclass(frozen=True)
class FormClass:
    """Derived invariants of a symmetric unimodular form."""

    rank: int
    signature: int
    parity: str
    definiteness: str


def _require_unimodular(v: SymIntMatrix) -> None:
    if not v.is_unimodular():
        raise NotUnimodular(f"determinant {v.det} is not +-1")


def diagonalize_over_Q(v: SymIntMatrix) -> tuple[IntRows, SymIntMatrix]:
    """Return integral P with det(P) != 0 and diagonal D = P^T V P.

    Symmetric fraction-free (Bareiss) elimination.  Before step i the
    trailing block holds d_i * S, where d_i is the leading principal i x i
    minor and S the Schur complement of the leading block; a step multiplies
    by the pivot d_(i+1) and divides exactly by d_i (Sylvester's identity),
    so every entry of the block and of P is a minor of V and stays under
    Hadamard's bound.  D_ii = d_i * d_(i+1), so the signs of D are the signs
    of consecutive leading-minor ratios (Jacobi).  A division that leaves a
    remainder raises InternalInvariantViolation (floor remainders share the
    divisor's sign, so they all vanish iff their sum does).  A zero pivot is
    repaired by adding a trailing row/column pair with nonzero pairing, a
    unimodular congruence of the trailing indices that keeps the invariant;
    if that leaves the corner zero (v_kk = -2 v_ik), a second addition fixes it.

    Before step i, column k >= i of P is d_i e_k plus a combination of rows
    < i, so only those rows are kept, in one list with row k of the block:
    L_k = [a_kk ... a_k,m-1 | P_0k ... P_(i-1)k].  Step i replaces L_k by
    (a_ii L_k - a_ik [a_ik ... a_i,m-1 | P_0i ... P_(i-1)i]) / d_i, the
    suffix of L_i from a_ik on, and appends P_ik = -a_ik.  When a_ik = 0
    that would only rescale L_k and append a zero, so L_k is left at
    d_j = scale[k]: the P entries it lacks are zeros, and `current` appends
    them and rescales by d_i / scale[k] (the skipped factors telescope)
    when the row is next used.  That rescale is a division of its own:
    folded into the step's, the products would be three minors long.

    A repair (column i += column k) keeps P's shape once row k of P loses
    row i, so row k += row i is replayed on P's rows at the end, last repair
    first.  The block rows at pivot time, a_j (from column j on, a_jj =
    d_(j+1)), are kept in `v.memo` with D: when no pivot needed repair, as
    for every positive definite form, x^T V x = sum_j (a_j . x)^2 / D_jj,
    which `short_vectors` enumerates.
    """
    _require_unimodular(v)
    m = v.n
    rows = [list(row[k:]) for k, row in enumerate(v.entries)]
    scale = [1] * m  # rows[k] holds its values for d_j = scale[k]
    factor = []  # row i of the block at pivot time, from column i on
    diag, repairs = [], []
    prev = 1

    def current(k, i):
        row, s = rows[k], scale[k]
        if s != prev:
            row = [prev * x // s for x in row]
            if prev * sum(rows[k]) != s * sum(row):
                raise InternalInvariantViolation("inexact division in Bareiss elimination")
            rows[k], scale[k] = row, prev
        row += [0] * (m - k + i - len(row))
        return row

    def add_col_row(i, k):
        for r in range(i + 1, k + 1):
            current(r, i)
        new = [x + y for x, y in zip(rows[i], [rows[c][k - c] for c in range(i, k)] + rows[k])]
        new[0] += new[k - i]
        rows[i] = new
        repairs.append((i, k))

    for i in range(m):
        if current(i, i)[0] == 0:
            k = next((k for k in range(i + 1, m) if rows[i][k - i] != 0), None)
            if k is None:
                raise NotUnimodular("degenerate block during diagonalization")
            add_col_row(i, k)
            if rows[i][0] == 0:
                add_col_row(i, k)
            if rows[i][0] == 0:
                raise InternalInvariantViolation("pivot repair failed twice")
        row_i, piv = rows[i], rows[i][0]
        factor.append(row_i[:m - i])
        suffix = sum(row_i)  # sum(row_i[k - i:])
        for k in range(i + 1, m):
            f = row_i[k - i]
            suffix -= row_i[k - i - 1]
            if f:
                row_k = current(k, i)
                new = [(piv * x - f * y) // prev for x, y in zip(row_k, row_i[k - i:])]
                if piv * sum(row_k) - f * suffix != prev * sum(new):
                    raise InternalInvariantViolation("inexact division in Bareiss elimination")
                new.append(-f)
                rows[k], scale[k] = new, piv
        row_i.append(prev)
        diag.append(prev * piv)
        prev = piv
    v.memo[_FACTOR] = (factor, diag)
    p = list(zip(*(row[m - k:] + [0] * (m - k - 1) for k, row in enumerate(rows))))
    for i, k in reversed(repairs):
        p[k] = tuple(map(add, p[k], p[i]))
    zero = (0,) * m
    return tuple(p), SymIntMatrix(m, tuple(zero[:i] + (x,) + zero[i + 1:] for i, x in enumerate(diag)))


def classify(v: SymIntMatrix) -> FormClass:
    """Rank, signature, parity, and definiteness of a unimodular form.

    Computed once per matrix instance and kept in its `memo`.
    """
    fc = v.memo.get(FormClass)
    if fc is not None:
        return fc
    diag = diagonalize_over_Q(v)[1].diagonal()
    pos = sum(1 for x in diag if x > 0)
    neg = sum(1 for x in diag if x < 0)
    if pos + neg != v.n:
        raise InternalInvariantViolation("zero diagonal entry after diagonalization")
    parity = EVEN if all(x % 2 == 0 for x in v.diagonal()) else ODD
    definiteness = POSITIVE if neg == 0 else NEGATIVE if pos == 0 else INDEFINITE
    fc = v.memo[FormClass] = FormClass(v.n, pos - neg, parity, definiteness)
    return fc


def characteristic_vector(v: SymIntMatrix) -> tuple[int, ...]:
    """The 0/1 vector c with c^T V x = x^T V x mod 2 for every integer x.

    Since x^T V x = sum V_ii x_i mod 2, c solves V c = diag V mod 2, and as
    det V is odd the solution is unique (Milnor-Husemoller, ch. II).  It is
    found by Gauss-Jordan elimination over GF(2) on rows packed into ints:
    bit j of a row is column j, and bit m (the rank) the right-hand side.
    """
    _require_unimodular(v)
    m = v.n
    rows = [
        sum((x & 1) << j for j, x in enumerate(row)) | (row[i] & 1) << m
        for i, row in enumerate(v.entries)
    ]
    for j in range(m):
        bit = 1 << j
        p = next((r for r in range(j, m) if rows[r] & bit), None)
        if p is None:
            raise InternalInvariantViolation("unimodular form is singular mod 2")
        rows[j], rows[p] = rows[p], rows[j]
        for r in range(m):
            if r != j and rows[r] & bit:
                rows[r] ^= rows[j]
    c = [row >> m & 1 for row in rows]
    for i in range(m):
        lhs = sum(c[r] * v[r][i] for r in range(m)) % 2
        if lhs != v[i][i] % 2:
            raise InternalInvariantViolation("characteristic condition failed")
    return tuple(c)


def congruent_indefinite(v: SymIntMatrix, w: SymIntMatrix) -> bool:
    """Indefinite unimodular forms are congruent iff rank, signature, and parity agree."""
    cv, cw = classify(v), classify(w)
    if cv.definiteness != INDEFINITE or cw.definiteness != INDEFINITE:
        raise NotIndefinite("both forms must be indefinite")
    return (cv.rank, cv.signature, cv.parity) == (cw.rank, cw.signature, cw.parity)


def _enum_cap() -> Optional[int]:
    """KIRBY4_MAX_ENUM as a count; unset or empty means no cap."""
    raw = os.environ.get("KIRBY4_MAX_ENUM", "")
    if raw == "":
        return None
    try:
        cap = int(raw)
    except ValueError as exc:
        raise MalformedInput(f"KIRBY4_MAX_ENUM={raw!r} is not an integer") from exc
    if cap < 0:
        raise MalformedInput(f"KIRBY4_MAX_ENUM={raw!r} is negative")
    return cap


def lll_reduce(v: SymIntMatrix) -> tuple[list[list[int]], list[list[int]], SymIntMatrix]:
    """Integral LLL reduction (delta = 3/4) of a positive definite unimodular form.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7,
    run on the Gram matrix: d[i] is the Gram determinant of the first i
    basis vectors and lam[k][j] = d[j+1] * mu_kj, so every quantity is an
    integer.  It starts from the pivot rows `classify` left in V's memo: a
    definite form needs no pivot repair, so a_jj = d[j+1] and a_jk =
    lam[k][j], and swaps keep every lam current, so d and lam decide every
    step.  Returns (U, U^-1, U^T V U) with U unimodular; the columns of U
    are the reduced basis.  The reduced form is computed once, as U^T V U;
    it takes V's class, and its pivot rows from the final d and lam.
    """
    fc = classify(v)
    if fc.definiteness != POSITIVE:
        raise NotPositiveDefinite("LLL reduction needs a positive definite form")
    n = v.n
    basis = identity(n)  # basis[k] is column k of U
    inv = identity(n)  # rows of U^-1
    rows, _ = v.memo[_FACTOR]
    d = [1] + [row[0] for row in rows]
    lam = [[rows[j][k - j] for j in range(k)] for k in range(n)]

    def red(k, l):  # called only when 2 |lam[k][l]| > d[l + 1]
        q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        basis[k] = [x - q * y for x, y in zip(basis[k], basis[l])]
        inv[l] = [x + q * y for x, y in zip(inv[l], inv[k])]
        lam[k][l] -= q * d[l + 1]
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k):
        basis[k - 1], basis[k] = basis[k], basis[k - 1]
        inv[k - 1], inv[k] = inv[k], inv[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lm = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lm * t) // d[k]
            lam[i][k - 1] = (b * t + lm * lam[i][k]) // d[k + 1]
        d[k] = b

    k = 1
    while k < n:
        if 2 * abs(lam[k][k - 1]) > d[k]:
            red(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                if 2 * abs(lam[k][l]) > d[l + 1]:
                    red(k, l)
            k += 1
    u = transpose(basis)
    reduced = SymIntMatrix.from_rows(congruence(u, v.entries))
    reduced.memo[FormClass] = fc
    reduced.memo[_FACTOR] = ([[d[j + 1]] + [lam[k][j] for k in range(j + 1, n)] for j in range(n)],
                             [d[j] * d[j + 1] for j in range(n)])
    return u, inv, reduced


def short_vectors(v: SymIntMatrix, r: int) -> list[tuple[int, ...]]:
    """All nonzero integer x with 1 <= x^T V x <= r, in canonical order.

    Fincke-Pohst enumeration in integers only.  The factor is the pivot rows
    that `classify` left in V's memo (read off the reduction for a form
    `lll_reduce` returned, carried over for -V): with a_j the row of pivot j
    and D_jj its diagonal entry, x^T V x = sum_j (a_j . x)^2 / D_jj, so after
    scaling by L = lcm(D_jj) each level needs one isqrt and integer bounds.
    Only x whose last nonzero entry is positive are visited; -x follows.

    Canonical order: representatives with first nonzero entry positive are
    sorted lexicographically and each is immediately followed by its
    negation.  `congruent_definite` enumerates the LLL-reduced forms, so its
    witness is the first one in the canonical order of the reduced basis.
    Raises ResourceLimitExceeded as soon as the count of vectors found
    passes KIRBY4_MAX_ENUM.  The leaf reads each norm off the remaining
    bound; `v.memo[_NORMS, r]` keeps them in the order of out[::2].
    """
    if classify(v).definiteness != POSITIVE:
        raise NotPositiveDefinite("enumeration only applies to positive definite forms")
    cap = _enum_cap()
    n = v.n
    if n == 0 or r < 1:
        v.memo[_NORMS, r] = []
        return []
    rows, pivots = v.memo[_FACTOR]
    scale = math.lcm(*pivots)
    weight = [scale // p for p in pivots]
    top = scale * r
    reps: list[tuple[tuple[int, ...], int]] = []
    x = [0] * n
    # One entry per open level j >= 1: (x_j values left, bound left, zero, pivot, centre);
    # zero: x[j+1:] is all zero, so x[j] starts at 0 (sign symmetry).
    stack: list = []
    j, rem, zero = n - 1, top, True
    while True:
        row = rows[j]
        a = row[0]
        c = sum(map(mul, row[1:], x[j + 1:]))
        s = math.isqrt(rem // weight[j])
        xs = range(0 if zero else -((s + c) // a), (s - c) // a + 1)
        if j:
            stack.append((iter(xs), rem, zero, a, c))
        else:
            for xj in xs:
                if xj or not zero:
                    x[0] = xj
                    t = a * xj + c
                    q, qr = divmod(top - rem + weight[0] * t * t, scale)
                    if qr:
                        raise InternalInvariantViolation("enumerated norm is not an integer")
                    t = tuple(x)
                    reps.append((t if _canonical(t) else tuple(map(neg, t)), q))
                    if cap is not None and 2 * len(reps) > cap:
                        raise ResourceLimitExceeded(
                            f"enumeration candidates exceed KIRBY4_MAX_ENUM={cap}")
            x[0] = 0
        while stack:  # the deepest open level with an x_j left; the levels done reset to 0
            j = n - len(stack)
            it, rem, zero, a, c = stack[-1]
            xj = next(it, None)
            if xj is not None:
                break
            x[j] = 0
            stack.pop()
        else:
            break
        x[j] = xj
        t = a * xj + c
        j, rem, zero = j - 1, rem - weight[j] * t * t, zero and not xj
    reps.sort()
    v.memo[_NORMS, r] = [q for _, q in reps]
    return [y for t, _ in reps for y in (t, tuple(map(neg, t)))]


def _canonical(t: tuple[int, ...]) -> bool:
    return next(filter(None, t)) > 0  # t is nonzero; is its first nonzero entry positive?


def congruent_definite(v: SymIntMatrix, w: SymIntMatrix) -> Optional[IntRows]:
    """Search for integral A with A^T V A = W, both forms positive definite.

    Both forms are first LLL-reduced to V' = U_V^T V U_V and W' = U_W^T W U_W.
    Candidate columns are the short vectors x of V' with x^T V' x <= r, the
    maximum diagonal entry of W'.  If the norms of V''s and W''s short
    vectors up to r differ as multisets, the forms are not congruent.
    Otherwise column i must hit the norm W'[i][i] exactly and match the Gram
    pairings with all previously placed columns.  The first witness A' in
    the canonical order of V''s short vectors gives A = U_V A' U_W^-1; None
    if there is none.  Every column placed counts against KIRBY4_MAX_ENUM.

    A candidate c is tested against all placed columns b_j at once: norms <= r
    bound |c^T V' b_j| and |W'_ij| by r (Cauchy-Schwarz), so with digits at
    bits = r.bit_length() + 2, c . sum_j (V' b_j) 2^(bits j) equals
    sum_j W'_ij 2^(bits j) exactly when every pairing matches.
    """
    if classify(v).definiteness != POSITIVE or classify(w).definiteness != POSITIVE:
        raise NotPositiveDefinite("both forms must be positive definite")
    if v.n != w.n:
        return None
    n = v.n
    if n == 0:
        return ()
    u_v, _, v2 = lll_reduce(v)
    _, u_w_inv, w2 = lll_reduce(w)
    r = max(w2.diagonal())
    cands = short_vectors(v2, r)
    short_vectors(w2, r)  # for the norms it leaves in w2.memo
    norms = v2.memo[_NORMS, r]
    if sorted(norms) != sorted(w2.memo[_NORMS, r]):
        return None
    by_norm: dict[int, list[int]] = {}
    for k, q in enumerate(norms):
        by_norm.setdefault(q, []).extend((2 * k, 2 * k + 1))
    by_pos = [by_norm.get(w2[i][i], []) for i in range(n)]
    # -A' is a witness whenever A' is, so column 0 takes representatives only.
    by_pos[0] = by_pos[0][::2]
    bits = r.bit_length() + 2
    targets = [sum(w2[i][j] << bits * j for j in range(i)) for i in range(n)]
    cols: list[int] = []
    cap = _enum_cap()
    placed = 0
    # One entry per open column i: (its candidates left, packed images of columns < i).
    stack = [(iter(by_pos[0]), [0] * n)]
    while stack:
        i = len(stack) - 1
        it, packed = stack[-1]
        target = targets[i]
        for idx in it:
            if sum(map(mul, cands[idx], packed)) == target:
                break
        else:  # column i has no candidate left: take back column i - 1
            stack.pop()
            if cols:
                cols.pop()
            continue
        placed += 1
        if cap is not None and placed > cap:
            raise ResourceLimitExceeded(f"search placements exceed KIRBY4_MAX_ENUM={cap}")
        cols.append(idx)
        if len(cols) == n:
            break
        image = mat_vec(v2.entries, cands[idx])
        stack.append((iter(by_pos[i + 1]), [p + (x << bits * i) for p, x in zip(packed, image)]))
    else:
        return None
    a2 = [[cands[idx][row] for idx in cols] for row in range(n)]
    a = mat_mul(mat_mul(u_v, a2), u_w_inv)
    if congruence(a, v.rows()) != w.rows():
        raise InternalInvariantViolation("assembled witness fails A^T V A == W")
    if bareiss_det(a) not in (1, -1):
        raise InternalInvariantViolation("assembled witness is not unimodular")
    return tuple(tuple(r_) for r_ in a)


def congruent_with_witness(v: SymIntMatrix, w: SymIntMatrix) -> tuple[bool, Optional[IntRows]]:
    """Decide congruence over the integers; return a witness in the definite case."""
    _require_unimodular(v)
    _require_unimodular(w)
    if v.n != w.n:
        return False, None
    if v.n == 0:
        return True, ()
    cv, cw = classify(v), classify(w)
    if cv.definiteness != cw.definiteness:
        return False, None
    if cv.definiteness == INDEFINITE:
        return congruent_indefinite(v, w), None
    if cv.definiteness == NEGATIVE:
        witness = congruent_definite(_negated(v), _negated(w))
    else:
        witness = congruent_definite(v, w)
    return witness is not None, witness


def _negated(v: SymIntMatrix) -> SymIntMatrix:
    """-V for a negative definite V, with its class and pivot rows carried over.

    No pivot of a definite form needs repair, so pivot row j holds (j+1) x (j+1)
    minors and D_jj = d_j d_(j+1); negating V multiplies row j by (-1)^(j+1), D by -1.
    """
    out = SymIntMatrix(v.n, tuple(tuple(map(neg, r)) for r in v.entries))
    c = classify(v)
    out.memo[FormClass] = FormClass(c.rank, -c.signature, c.parity, POSITIVE)
    rows, diag = v.memo[_FACTOR]
    signed = [[-x for x in row] if j % 2 == 0 else list(row) for j, row in enumerate(rows)]
    out.memo[_FACTOR] = (signed, [-x for x in diag])
    return out


def congruent(v: SymIntMatrix, w: SymIntMatrix) -> bool:
    """True iff V = P^T W P for some integral unimodular P."""
    return congruent_with_witness(v, w)[0]
