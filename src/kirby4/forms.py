"""Exact algebra of integral symmetric unimodular forms.

Covers diagonalization D = P^T V P by a symmetric fraction-free (Bareiss)
elimination whose entries stay minors of the form, signature/parity/
definiteness classification, the characteristic vector read off P and D,
and the full congruence decision: rank/signature/parity for indefinite
forms; for definite ones, "reduce, then enumerate": integral LLL on both
forms, an integer Fincke-Pohst enumeration of short vectors read from the
same elimination, a rejection when the norm counts differ, and an exhaustive
backtracking search whose witness is the first one in the canonical order
of the *reduced* basis.  The negative definite case is reduced to the
positive one by negation.  One elimination per `SymIntMatrix` instance
fills one record, P only if read, that every later step reads: -V takes
V's record negated, and an LLL-reduced form one read off the reduction.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
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
    congruence,
    identity,
    mat_mul,
    transpose,
)

EVEN, ODD = "even", "odd"
POSITIVE, NEGATIVE, INDEFINITE = "positive", "negative", "indefinite"


@dataclass(frozen=True)
class FormClass:
    """Derived invariants of a symmetric unimodular form."""

    rank: int
    signature: int
    parity: str
    definiteness: str


@dataclass
class _Analysis:
    """What one elimination of a form yields, kept in the form's `memo`: its
    class, D = P^T V P (diagonal `diag`), the pivot rows (`pivots[j]` is row
    j of the block at pivot time, from column j on) and, per radius r, the
    norms of `short_vectors(v, r)`'s representatives.  P is None after
    `classify` on a fresh form or `lll_reduce`: a caller of P re-eliminates."""

    form_class: FormClass
    p: Optional[IntRows]
    diag: list[int]
    pivots: list[list[int]]
    norms: dict[int, list[int]] = field(default_factory=dict)

    @cached_property
    def d(self) -> SymIntMatrix:
        zero = (0,) * len(self.diag)
        return SymIntMatrix(len(zero), tuple(zero[:i] + (x,) + zero[i + 1:]
                                             for i, x in enumerate(self.diag)))

    def negated(self) -> _Analysis:
        """-V's record: P stays, as P^T (-V) P = -D; pivot row j, made of
        (j+1) x (j+1) minors, is multiplied by (-1)^(j+1); the class flips."""
        c = self.form_class
        flip = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE}.get(c.definiteness, INDEFINITE)
        return _Analysis(FormClass(c.rank, -c.signature, c.parity, flip), self.p,
                         [-x for x in self.diag], [[-x for x in row] if j % 2 == 0 else row
                                                   for j, row in enumerate(self.pivots)])


def _require_unimodular(v: SymIntMatrix) -> None:
    if not v.is_unimodular():
        raise NotUnimodular(f"determinant {v.det} is not +-1")


def diagonalize_over_Q(v: SymIntMatrix, *, transform: bool = True
                       ) -> tuple[Optional[IntRows], SymIntMatrix]:
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
    d_(j+1)), are kept with P, D and the class in V's record: when no pivot
    needed repair, as for every positive definite form,
    x^T V x = sum_j (a_j . x)^2 / D_jj, which `short_vectors` enumerates.
    A second call on the same instance returns the record's P and D.  With
    transform=False, as `classify` calls it, L_k keeps no P part and no repair
    is replayed: the record gets no P and the call returns (None, D).  It is
    a keyword, not a second kernel, so that the benchmark's trace still sees
    every elimination as a call of this function.
    """
    a = v.memo.get(_Analysis)
    if a is not None and (a.p is not None or not transform):
        return a.p, a.d
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
        if transform:
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
                if transform:
                    new.append(-f)
                rows[k], scale[k] = new, piv
        if transform:
            row_i.append(prev)
        diag.append(prev * piv)
        prev = piv
    if transform:
        p = list(zip(*(row[m - k:] + [0] * (m - k - 1) for k, row in enumerate(rows))))
        for i, k in reversed(repairs):
            p[k] = tuple(map(add, p[k], p[i]))
    pos = sum(x > 0 for x in diag)  # every pivot, so every D_ii, is nonzero
    fc = FormClass(m, 2 * pos - m, EVEN if all(x % 2 == 0 for x in v.diagonal()) else ODD,
                   POSITIVE if pos == m else NEGATIVE if pos == 0 else INDEFINITE)
    a = v.memo[_Analysis] = _Analysis(fc, tuple(p) if transform else None, diag, factor)
    return a.p, a.d


def classify(v: SymIntMatrix) -> FormClass:
    """Rank, signature, parity, and definiteness of a unimodular form, from its
    elimination, which builds no P: the signature reads only the signs of D."""
    if _Analysis not in v.memo:
        diagonalize_over_Q(v, transform=False)
    return v.memo[_Analysis].form_class


def characteristic_vector(v: SymIntMatrix) -> tuple[int, ...]:
    """The 0/1 vector c with c^T V x = x^T V x mod 2 for every integer x.

    As x^T V x = sum V_ii x_i mod 2, c solves V c = diag V mod 2, uniquely
    as det V is odd (Milnor-Husemoller, ch. II), so c = V^-1 diag V mod 2.
    V^-1 = P D^-1 P^T is integral, read off V's elimination (run again with P
    after `classify`): over L = lcm(D_ii), c = P (L D^-1) P^T (diag V mod 2) / L mod 2.
    A c that fails the condition raises InternalInvariantViolation.
    """
    p, d = diagonalize_over_Q(v)
    diag = d.diagonal()
    scale = math.lcm(*diag)
    rhs = [x & 1 for x in v.diagonal()]
    y = [scale // q * sum(map(mul, col, rhs)) for q, col in zip(diag, zip(*p))]
    c = tuple(sum(map(mul, row, y)) // scale & 1 for row in p)
    if any(sum(map(mul, c, row)) - row[i] & 1 for i, row in enumerate(v.entries)):
        raise InternalInvariantViolation("characteristic condition failed")
    return c


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
    integer.  It starts from the pivot rows of V's elimination record: a
    definite form needs no pivot repair, so a_jj = d[j+1] and a_jk =
    lam[k][j], and swaps keep every lam current, so d and lam decide every
    step.  Returns (U, U^-1, U^T V U) with U unimodular; the columns of U
    are the reduced basis.  The reduced form's record takes V's class, no
    P, and its pivot rows a_j (a_jj = d[j+1], a_jk = lam[k][j]) and
    D_jj = d[j] d[j+1] from the final d and lam; its entries are read off
    them too, as G_kl = sum_(j <= k, l) a_jk a_jl / D_jj over
    L = lcm(D_jj), skipping the j with lam[k][j] = 0.  A division that
    leaves a remainder raises InternalInvariantViolation.
    """
    fc = classify(v)
    if fc.definiteness != POSITIVE:
        raise NotPositiveDefinite("LLL reduction needs a positive definite form")
    n = v.n
    basis = identity(n)  # basis[k] is column k of U
    inv = identity(n)  # rows of U^-1
    rows = v.memo[_Analysis].pivots
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
    factor = [[d[j + 1]] + [lam[k][j] for k in range(j + 1, n)] for j in range(n)]
    diag = [d[j] * d[j + 1] for j in range(n)]
    scale = math.lcm(*diag)
    weight = [scale // p for p in diag]
    padded = [[0] * j + row for j, row in enumerate(factor)]
    # L G = A^T diag(L / D_jj) A, and mat_mul skips the zero a_jk
    scaled = mat_mul([list(map(mul, col, weight)) for col in transpose(padded)], padded)
    gram = [[s // scale for s in row] for row in scaled]
    # floor remainders are >= 0, so a row's vanish iff their sum does
    if any(scale * sum(row) != sum(srow) for row, srow in zip(gram, scaled)):
        raise InternalInvariantViolation("reduced Gram matrix is not integral")
    reduced = SymIntMatrix.from_rows(gram)
    reduced.memo[_Analysis] = _Analysis(fc, None, diag, factor)
    return transpose(basis), inv, reduced


def short_vectors(v: SymIntMatrix, r: int) -> list[tuple[int, ...]]:
    """All nonzero integer x with 1 <= x^T V x <= r, in canonical order.

    Canonical order: representatives with first nonzero entry positive are
    sorted lexicographically and each is immediately followed by its
    negation.  `congruent_definite` enumerates the LLL-reduced forms, so its
    witness is the first one in the canonical order of the reduced basis.
    The vectors come from `_walk`, which raises ResourceLimitExceeded as
    soon as the count of vectors found passes KIRBY4_MAX_ENUM; V's record
    keeps their norms in the order of out[::2].
    """
    reps = _walk(v, r, True)
    reps.sort()
    v.memo[_Analysis].norms[r] = [q for _, _, q in reps]
    return [y for t, nt, _ in reps for y in (t, nt)]


def _walk(v: SymIntMatrix, r: int, keep: bool) -> list:
    """One entry per +-pair {x, -x} with 1 <= x^T V x <= r, in the order found:
    (x, -x, norm) with x's first nonzero entry positive if `keep`, else the norm.

    Fincke-Pohst enumeration in integers only.  The factor is the pivot rows
    of V's elimination record (read off the reduction for a form
    `lll_reduce` returned, V's negated for -V): with a_j the row of pivot j
    and D_jj its diagonal entry, x^T V x = sum_j (a_j . x)^2 / D_jj, so after
    scaling by L = lcm(D_jj) each level needs one isqrt and integer bounds.
    Only x whose last nonzero entry is positive are visited.  Level j keeps
    x_j, its last value hi, its centre sum_(k>j) a_jk x_k and the bound left
    in flat lists; nz, the highest level above j with x nonzero (-1 if none),
    ends the centre's sum and starts x_j at 0 while x[j+1:] is zero.  The leaf
    reads each norm off the remaining bound and checks that it is an integer.
    Raises ResourceLimitExceeded as soon as the count of vectors found passes
    KIRBY4_MAX_ENUM.
    """
    if classify(v).definiteness != POSITIVE:
        raise NotPositiveDefinite("enumeration only applies to positive definite forms")
    cap = _enum_cap()
    n = v.n
    out: list = []
    if n == 0 or r < 1:
        return out
    a = v.memo[_Analysis]
    scale = math.lcm(*a.diag)
    weight = [scale // p for p in a.diag]
    heads = [row[0] for row in a.pivots]
    tails = [row[1:] for row in a.pivots]
    top = scale * r
    x, hi, ctr, rem = [0] * n, [0] * n, [0] * n, [0] * n
    j, b, nz = n - 1, top, -1  # enter level j with bound b left
    while True:
        a = heads[j]
        c = sum(map(mul, tails[j], x[j + 1:nz + 1])) if nz >= 0 else 0
        s = math.isqrt(b // weight[j])
        last = (s - c) // a
        # sign symmetry: x_j >= 0 while x[j+1:] is zero; and x = 0 is no leaf
        lo = -((s + c) // a) if nz >= 0 else 0 if j else 1
        if j and lo <= last:
            x[j], hi[j], ctr[j], rem[j] = lo, last, c, b
        else:
            if not j:
                w, used = weight[0], top - b
                for x0 in range(lo, last + 1):
                    t = a * x0 + c
                    q, qr = divmod(used + w * t * t, scale)
                    if qr:
                        raise InternalInvariantViolation("enumerated norm is not an integer")
                    if keep:
                        x[0] = x0
                        y = tuple(x)
                        z = tuple(map(neg, y))
                        out.append((y, z, q) if _canonical(y) else (z, y, q))
                    else:
                        out.append(q)
                    if cap is not None and 2 * len(out) > cap:
                        raise ResourceLimitExceeded(
                            f"enumeration candidates exceed KIRBY4_MAX_ENUM={cap}")
            while True:  # step back up to the deepest level with an x_j left
                j += 1
                if j == n:
                    return out
                if nz == j:
                    nz = -1
                x[j] += 1
                if x[j] <= hi[j]:
                    break
        t = heads[j] * x[j] + ctr[j]
        b = rem[j] - weight[j] * t * t
        if nz < 0 and x[j]:
            nz = j
        j -= 1


def _canonical(t: tuple[int, ...]) -> bool:
    return next(filter(None, t)) > 0  # t is nonzero; is its first nonzero entry positive?


def congruent_definite(v: SymIntMatrix, w: SymIntMatrix) -> Optional[IntRows]:
    """Search for integral A with A^T V A = W, both forms positive definite.

    Both forms are first LLL-reduced to V' = U_V^T V U_V and W' = U_W^T W U_W.
    Candidate columns are the short vectors x of V' with x^T V' x <= r, the
    maximum diagonal entry of W'.  If the norms of V''s and W''s short
    vectors up to r differ as multisets, the forms are not congruent; W''s
    are only counted (`_walk` without its vectors).  Otherwise column i must
    hit the norm W'[i][i] exactly and match the Gram pairings with all
    previously placed columns.  The first witness A' in the canonical order
    of V''s short vectors gives A = U_V A' U_W^-1; None if there is none.
    Every column placed counts against KIRBY4_MAX_ENUM.

    A candidate c is tested against all placed columns b_j at once: norms <= r
    bound |c^T V' b_j| and |W'_ij| by r (Cauchy-Schwarz), so with digits at
    bits = r.bit_length() + 2, c . sum_j (V' b_j) 2^(bits j) equals
    sum_j W'_ij 2^(bits j) exactly when every pairing matches.  One dot
    product decides c and -c, which come next to each other in the order:
    c fits if it equals the target, -c if it equals minus the target, and
    when the target is 0 both do, so -c is tried once c is taken back.  A
    placed column's packed image adds c_t V'[t] 2^(bits i) for the t with
    c_t != 0.
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
    norms = v2.memo[_Analysis].norms[r]
    if sorted(norms) != sorted(_walk(w2, r, False)):
        return None
    by_norm: dict[int, list[int]] = {}
    for k, q in enumerate(norms):
        by_norm.setdefault(q, []).append(k)
    by_pos = [by_norm.get(w2[i][i], []) for i in range(n)]
    bits = r.bit_length() + 2
    targets = [sum(w2[i][j] << bits * j for j in range(i)) for i in range(n)]

    def fitting(i, packed):  # column i's candidates that fit, in canonical order
        target = targets[i]
        for k in by_pos[i]:
            p = sum(map(mul, cands[2 * k], packed))
            if p == target:
                yield 2 * k
                # -c fits too; column 0 takes c only, as -A' is a witness whenever A' is
                if i and not target:
                    yield 2 * k + 1
            elif p == -target:
                yield 2 * k + 1

    cols: list[int] = []
    cap = _enum_cap()
    placed = 0
    # One entry per open column i: (its fitting candidates left, packed images of columns < i).
    stack = [(fitting(0, [0] * n), [0] * n)]
    while stack:
        i = len(stack) - 1
        gen, packed = stack[-1]
        idx = next(gen, None)
        if idx is None:  # column i has no candidate left: take back column i - 1
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
        for row, ct in zip(v2.entries, cands[idx]):  # packed + (V' c) 2^(bits i), by c's nonzeros
            if ct:
                f = ct << bits * i
                packed = [p + f * y for p, y in zip(packed, row)]
        stack.append((fitting(i + 1, packed), packed))
    else:
        return None
    a2 = [[cands[idx][row] for idx in cols] for row in range(n)]
    a = mat_mul(mat_mul(u_v, a2), u_w_inv)
    if congruence(a, v.rows()) != w.rows():
        raise InternalInvariantViolation("assembled witness fails A^T V A == W")
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
        v, w = _negated(v), _negated(w)
    witness = congruent_definite(v, w)
    return witness is not None, witness


def _negated(v: SymIntMatrix) -> SymIntMatrix:
    """-V, with V's elimination record negated."""
    classify(v)
    out = SymIntMatrix(v.n, tuple(tuple(map(neg, r)) for r in v.entries))
    out.memo[_Analysis] = v.memo[_Analysis].negated()
    return out


def congruent(v: SymIntMatrix, w: SymIntMatrix) -> bool:
    """True iff V = P^T W P for some integral unimodular P."""
    return congruent_with_witness(v, w)[0]
