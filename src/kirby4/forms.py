"""Exact algebra of integral symmetric unimodular forms.

Covers rational diagonalization by simultaneous row/column pivoting,
signature/parity/definiteness classification, characteristic vectors mod 2,
and the full congruence decision: rank/signature/parity for indefinite
forms, exhaustive short-vector enumeration for definite ones, with the
negative definite case reduced to the positive one by negation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
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
    mat_vec,
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

    def as_dict(self) -> dict:
        return {
            "rank": self.rank,
            "signature": self.signature,
            "parity": self.parity,
            "definiteness": self.definiteness,
        }


def _require_unimodular(v: SymIntMatrix) -> None:
    if not v.is_unimodular():
        raise NotUnimodular(f"determinant {v.det()} is not +-1")


def diagonalize_over_Q(v: SymIntMatrix) -> tuple[IntRows, SymIntMatrix]:
    """Return integral P with det(P) != 0 and diagonal D = P^T V P.

    Simultaneous row/column pivoting: the k-th column is scaled by the pivot
    and the pivot column subtracted, and likewise for rows.  A zero pivot is
    repaired by adding a row/column pair with nonzero pairing; one addition
    can leave the corner zero again (when v_kk = -2 v_ik), in which case a
    second addition is guaranteed to fix it.
    """
    _require_unimodular(v)
    m = v.n
    a = v.rows()
    p = identity(m)

    def add_col_row(i, k):
        for r in range(m):
            a[r][i] += a[r][k]
            p[r][i] += p[r][k]
        for c in range(m):
            a[i][c] += a[k][c]

    for i in range(m):
        if a[i][i] == 0:
            k = next((k for k in range(i + 1, m) if a[i][k] != 0), None)
            if k is None:
                raise NotUnimodular("degenerate block during diagonalization")
            add_col_row(i, k)
            if a[i][i] == 0:
                add_col_row(i, k)
            if a[i][i] == 0:
                raise InternalInvariantViolation("pivot repair failed twice")
        piv = a[i][i]
        for k in range(i + 1, m):
            f = a[i][k]
            if f == 0:
                continue
            for r in range(m):
                a[r][k] = piv * a[r][k] - f * a[r][i]
                p[r][k] = piv * p[r][k] - f * p[r][i]
            for c in range(m):
                a[k][c] = piv * a[k][c] - f * a[i][c]
    d = SymIntMatrix.from_rows(
        [[a[i][j] if i == j else 0 for j in range(m)] for i in range(m)]
    )
    return tuple(tuple(row) for row in p), d


def classify(v: SymIntMatrix) -> FormClass:
    """Rank, signature, parity, and definiteness of a unimodular form."""
    _, d = diagonalize_over_Q(v)
    diag = d.diagonal()
    pos = sum(1 for x in diag if x > 0)
    neg = sum(1 for x in diag if x < 0)
    if pos + neg != v.n:
        raise InternalInvariantViolation("zero diagonal entry after diagonalization")
    parity = EVEN if all(x % 2 == 0 for x in v.diagonal()) else ODD
    if neg == 0:
        definiteness = POSITIVE
    elif pos == 0:
        definiteness = NEGATIVE
    else:
        definiteness = INDEFINITE
    return FormClass(v.n, pos - neg, parity, definiteness)


def characteristic_vector(v: SymIntMatrix) -> tuple[int, ...]:
    """A 0/1 vector c with c^T V x = x^T V x mod 2 for every integer x.

    Works modulo 2: odd diagonal entries are split off one at a time by
    simultaneous row/column operations, leaving an even block; the vector
    with 1s at the split positions is characteristic for the transformed
    matrix, and the accumulated basis change maps it back.
    """
    _require_unimodular(v)
    m = v.n
    a = [[x % 2 for x in row] for row in v.entries]
    q = identity(m)
    k = 0
    for i in range(m):
        j = next((j for j in range(i, m) if a[j][j] == 1), None)
        if j is None:
            break
        if j != i:
            for r in range(m):
                a[r][i], a[r][j] = a[r][j], a[r][i]
                q[r][i], q[r][j] = q[r][j], q[r][i]
            a[i], a[j] = a[j], a[i]
        for l in range(i + 1, m):
            if a[i][l] == 1:
                for r in range(m):
                    a[r][l] = (a[r][l] + a[r][i]) % 2
                    q[r][l] = (q[r][l] + q[r][i]) % 2
                for c in range(m):
                    a[l][c] = (a[l][c] + a[i][c]) % 2
        k = i + 1
    c_split = [1] * k + [0] * (m - k)
    c = [x % 2 for x in mat_vec(q, c_split)]
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
    raw = os.environ.get("KIRBY4_MAX_ENUM")
    if raw is None or raw == "":
        return None
    try:
        cap = int(raw)
    except ValueError as exc:
        raise MalformedInput(f"KIRBY4_MAX_ENUM={raw!r} is not an integer") from exc
    return cap if cap >= 0 else None


def _ldl(v: SymIntMatrix):
    """V = L D L^T with L unit lower triangular, exact over the rationals."""
    n = v.n
    lower = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for j in range(n):
        s = Fraction(v[j][j]) - sum(lower[j][k] ** 2 * diag[k] for k in range(j))
        if s <= 0:
            raise NotPositiveDefinite("LDL pivot not positive")
        diag[j] = s
        lower[j][j] = Fraction(1)
        for i in range(j + 1, n):
            t = Fraction(v[i][j]) - sum(
                lower[i][k] * lower[j][k] * diag[k] for k in range(j)
            )
            lower[i][j] = t / s
    return lower, diag


def short_vectors(v: SymIntMatrix, r: int) -> list[tuple[int, ...]]:
    """All nonzero integer x with 1 <= x^T V x <= r, in canonical order.

    Canonical order: representatives with first nonzero entry positive are
    sorted lexicographically and each is immediately followed by its
    negation.  Raises ResourceLimitExceeded when KIRBY4_MAX_ENUM caps the
    candidate count.
    """
    if classify(v).definiteness != POSITIVE:
        raise NotPositiveDefinite("enumeration only applies to positive definite forms")
    n = v.n
    if n == 0 or r < 1:
        return []
    lower, diag = _ldl(v)
    found: list[tuple[int, ...]] = []
    x = [0] * n

    def descend(j: int, budget: Fraction):
        if j < 0:
            if any(x):
                found.append(tuple(x))
            return
        c = sum(lower[i][j] * x[i] for i in range(j + 1, n))
        radius = math.isqrt(int(budget / diag[j])) + 1
        lo = math.floor(-c - radius)
        hi = math.ceil(-c + radius)
        for xi in range(lo, hi + 1):
            y = xi + c
            used = diag[j] * y * y
            if used <= budget:
                x[j] = xi
                descend(j - 1, budget - used)
        x[j] = 0

    descend(n - 1, Fraction(r))
    reps = sorted(t for t in found if _canonical(t))
    out: list[tuple[int, ...]] = []
    for t in reps:
        out.append(t)
        out.append(tuple(-a for a in t))
    cap = _enum_cap()
    if cap is not None and len(out) > cap:
        raise ResourceLimitExceeded(
            f"{len(out)} enumeration candidates exceed KIRBY4_MAX_ENUM={cap}"
        )
    return out


def _canonical(t: tuple[int, ...]) -> bool:
    for a in t:
        if a != 0:
            return a > 0
    return False


def congruent_definite(v: SymIntMatrix, w: SymIntMatrix) -> Optional[IntRows]:
    """Search for integral A with A^T V A = W, both forms positive definite.

    Candidate columns are the vectors x with x^T V x <= max diag(W); column i
    must hit the norm value W[i][i] exactly and match the Gram pairings with
    all previously placed columns.  Returns the first witness in canonical
    enumeration order, or None.
    """
    for m_ in (v, w):
        _require_unimodular(m_)
        if classify(m_).definiteness != POSITIVE:
            raise NotPositiveDefinite("both forms must be positive definite")
    if v.n != w.n:
        return None
    n = v.n
    if n == 0:
        return ()
    r = max(w.diagonal())
    cands = short_vectors(v, r)
    vcand = [mat_vec(v.rows(), list(c)) for c in cands]
    by_pos = [
        [idx for idx, c in enumerate(cands)
         if sum(a * b for a, b in zip(c, vcand[idx])) == w[i][i]]
        for i in range(n)
    ]
    cols: list[int] = []

    def place(i: int) -> bool:
        for idx in by_pos[i]:
            c = cands[idx]
            if any(
                sum(a * b for a, b in zip(c, vcand[jdx])) != w[i][jpos]
                for jpos, jdx in enumerate(cols)
            ):
                continue
            cols.append(idx)
            if len(cols) == n or place(i + 1):
                return True
            cols.pop()
        return False

    if not place(0):
        return None
    a = tuple(tuple(cands[idx][row] for idx in cols) for row in range(n))
    check = congruence([list(r_) for r_ in a], v.rows())
    if [list(r_) for r_ in w.entries] != check:
        raise InternalInvariantViolation("assembled witness fails A^T V A == W")
    if bareiss_det([list(r_) for r_ in a]) not in (1, -1):
        raise InternalInvariantViolation("assembled witness is not unimodular")
    return a


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
        witness = congruent_definite(v.neg(), w.neg())
    else:
        witness = congruent_definite(v, w)
    return witness is not None, witness


def congruent(v: SymIntMatrix, w: SymIntMatrix) -> bool:
    """True iff V = P^T W P for some integral unimodular P."""
    ok, _ = congruent_with_witness(v, w)
    return ok
