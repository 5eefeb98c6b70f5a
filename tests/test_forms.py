"""Form algebra: diagonalization, classification, congruence."""

import inspect
import json
import sys

import pytest

from kirby4 import forms
from kirby4.errors import (
    NotIndefinite,
    NotPositiveDefinite,
    NotUnimodular,
    ResourceLimitExceeded,
)
from kirby4.fixtures import E8_MATRIX
from kirby4.forms import (
    EVEN,
    INDEFINITE,
    NEGATIVE,
    ODD,
    POSITIVE,
    characteristic_vector,
    classify,
    congruent,
    congruent_definite,
    congruent_indefinite,
    congruent_with_witness,
    diagonalize_over_Q,
    lll_reduce,
    short_vectors,
)
from kirby4.matrices import SymIntMatrix, bareiss_det

from conftest import (
    S,
    block_diag,
    box_short_vectors,
    brute_force_characteristic,
    first_witness,
    fraction_det,
    fraction_inverse,
    lll_conditions_hold,
    mat_identity,
    mul,
    random_unimodular,
    random_unimodular_symmetric,
    sandwich,
    symmetric_bareiss,
    textbook_lll,
    transvections,
)

H = S([[0, 1], [1, 0]])
I = lambda n: S([[int(i == j) for j in range(n)] for i in range(n)])  # noqa: E741
DIAG = lambda *xs: S([[xs[i] if i == j else 0 for j in range(len(xs))] for i in range(len(xs))])


class TestDiagonalize:
    def test_already_diagonal(self):
        p, d = diagonalize_over_Q(DIAG(1, -1))
        assert p == ((1, 0), (0, 1))
        assert d.entries == ((1, 0), (0, -1))

    def test_hyperbolic_opposite_signs(self):
        p, d = diagonalize_over_Q(H)
        diag = d.diagonal()
        assert sorted(x > 0 for x in diag) == [False, True]
        assert sandwich([list(r) for r in p], H.rows()) == d.rows()

    def test_e8_all_positive(self):
        p, d = diagonalize_over_Q(E8_MATRIX)
        assert all(x > 0 for x in d.diagonal())
        assert sandwich([list(r) for r in p], E8_MATRIX.rows()) == d.rows()

    def test_awkward_zero_pivot_repair(self):
        # v_kk == -2*v_1k defeats a single row/column addition
        v = S([[0, 1], [1, -2]])
        p, d = diagonalize_over_Q(v)
        assert sandwich([list(r) for r in p], v.rows()) == d.rows()
        assert all(x != 0 for x in d.diagonal())
        assert fraction_det([list(r) for r in p]) != 0

    def test_not_unimodular_rejected(self):
        with pytest.raises(NotUnimodular):
            diagonalize_over_Q(S([[2]]))


MINUS_E8 = [[-x for x in row] for row in E8_MATRIX.rows()]


def k3_windowed(seed):
    """-E8 + -E8 + 3H under 5 seeded transvections inside windows of 4 indices."""
    import random

    q = transvections(random.Random(seed), 22, 5, 4)
    return sandwich(q, block_diag(MINUS_E8, MINUS_E8, *[H.rows()] * 3))


def benchmark_shaped_forms():
    """Forms of the ranks and shapes the indefinite decisions take: odd forms
    under rank/2 transvections, E8 + kH and K3 under transvections inside
    windows of 4 indices, and a dense odd basis of rank 24."""
    import random

    rng = random.Random(24)
    odd = lambda p, q: block_diag(*([[1]],) * p, *([[-1]],) * q)  # noqa: E731
    out = []
    for n in (16, 20, 24):
        for p in (n // 2 - 3, n // 2, n // 2 + 2):
            out.append(sandwich(transvections(rng, n, n // 2, shuffle=True), odd(p, n - p)))
    for e8s, hs, e8 in ((1, 4, E8_MATRIX.rows()), (1, 4, MINUS_E8), (1, 6, E8_MATRIX.rows()),
                        (2, 4, MINUS_E8)):
        b = block_diag(*[e8] * e8s, *[H.rows()] * hs)
        out += [sandwich(transvections(rng, len(b), len(b) // 4, 4, shuffle=True), b)
                for _ in range(2)]
    out += [k3_windowed(seed) for seed in range(3, 9)]
    out.append(sandwich(transvections(random.Random(1026), 24, 24, 8, shuffle=True), odd(12, 12)))
    return out


class TestAgainstFullColumnElimination:
    """P keeps only the rows of each column that can be nonzero, and replays
    the zero-pivot repairs on its rows at the end; it must equal the
    elimination that updates every column in full."""

    @pytest.mark.parametrize("rows", [
        H.rows(), [[0, 1], [1, -2]], k3_windowed(0), k3_windowed(1), k3_windowed(2),
        block_diag(H.rows(), [[0, 1], [1, -2]], [[1]]),
    ])
    def test_zero_pivot_repairs(self, rows):
        from kirby4 import forms

        v = S(rows)
        p, d = diagonalize_over_Q(v)
        oracle_p, pivot_rows, diag = symmetric_bareiss(rows)
        assert [list(r) for r in p] == oracle_p
        assert list(d.diagonal()) == diag
        assert v.memo[forms._FACTOR] == (pivot_rows, diag)

    def test_benchmark_shaped_forms(self):
        repaired = 0
        for rows in benchmark_shaped_forms():
            v = S(rows)
            p, d = diagonalize_over_Q(v)
            oracle_p, pivot_rows, diag = symmetric_bareiss(rows)
            assert [list(r) for r in p] == oracle_p
            assert v.memo[forms._FACTOR] == (pivot_rows, diag)
            repaired += any(p[r][c] for r in range(v.n) for c in range(r))
        assert repaired > 0

    def test_seeded_forms(self):
        import random

        repaired = 0
        for seed in range(300):
            rng = random.Random(seed)
            v = random_unimodular_symmetric(rng, 1 + seed % 10, steps=2 + seed % 9,
                                            definite=seed % 5 == 0)
            p, d = diagonalize_over_Q(v)
            oracle_p, _, diag = symmetric_bareiss(v.rows())
            assert [list(r) for r in p] == oracle_p, seed
            assert list(d.diagonal()) == diag
            repaired += any(p[r][c] for r in range(v.n) for c in range(r))
        assert repaired > 100  # a repair is what makes P leave upper triangular form


def hadamard_bits(v: SymIntMatrix) -> int:
    """2 * sum_j ceil(log2 ||row_j||) + 2: bits of any product of two minors of v."""
    ceil_log2_norm = lambda sq: ((sq - 1).bit_length() + 1) // 2  # noqa: E731
    return 2 * sum(ceil_log2_norm(sum(x * x for x in row)) for row in v.entries) + 2


class TestBoundedGrowth:
    """The elimination keeps every entry a minor of V (Hadamard bound): D,
    P and the pivot rows it keeps stay within the bits of two minors."""

    @pytest.mark.parametrize("name", ["dense_rank24", "k3_heavy"])
    def test_diagonal_within_hadamard_bound(self, name):
        import random

        from conftest import block_diag, random_unimodular

        if name == "dense_rank24":
            base, signature = block_diag(*([[[1]]] * 13 + [[[-1]]] * 11)), 2
            q = random_unimodular(random.Random(1), 24, steps=200)
        else:
            minus_e8 = [[-x for x in row] for row in E8_MATRIX.rows()]
            base, signature = block_diag(minus_e8, minus_e8, *[H.rows()] * 3), -16
            q = random_unimodular(random.Random(1), 22, steps=22)
        v = S(sandwich(q, base))
        p, d = diagonalize_over_Q(v)
        assert sandwich([list(r) for r in p], v.rows()) == d.rows()
        diag = d.diagonal()
        assert sum(x > 0 for x in diag) - sum(x < 0 for x in diag) == signature
        pivot_rows, _ = v.memo[forms._FACTOR]
        bits = max(abs(x).bit_length() for row in (diag, *p, *pivot_rows) for x in row)
        assert bits <= hadamard_bits(v)


@pytest.fixture
def calls(monkeypatch):
    """Counts of diagonalize_over_Q and bareiss_det calls, by function name."""
    from collections import Counter

    from kirby4 import forms, matrices

    counts = Counter()
    for mod, name in ((forms, "diagonalize_over_Q"), (matrices, "bareiss_det")):
        def counted(*args, _fn=getattr(mod, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(mod, name, counted)
    return counts


class TestComputedOncePerInstance:
    def test_classify_twice_diagonalizes_once(self, calls):
        v = S([[0, 1, 0], [1, 0, 1], [0, 1, 1]])
        assert classify(v) == classify(v)
        assert calls["diagonalize_over_Q"] == 1
        assert calls["bareiss_det"] == 1

    def test_equal_distinct_instance_is_analysed_again(self, calls):
        rows = [[0, 1, 0], [1, 0, 1], [0, 1, 1]]
        v, w = S(rows), S(rows)
        assert classify(v) == classify(w)
        assert calls["diagonalize_over_Q"] == 2
        assert v == w and hash(v) == hash(w) and repr(v) == repr(w)

    def test_indefinite_congruence_analyses_each_form_once(self, calls):
        import random

        from conftest import random_unimodular

        base = [[int(i == j) * (1 if i < 5 else -1) for j in range(8)] for i in range(8)]
        v = S(sandwich(random_unimodular(random.Random(2), 8, steps=12), base))
        w = S(sandwich(random_unimodular(random.Random(3), 8, steps=12), base))
        assert congruent_with_witness(v, w) == (True, None)
        assert calls["diagonalize_over_Q"] <= 2
        assert calls["bareiss_det"] <= 2

    def test_negation_keeps_the_analysis(self, calls):
        e8 = E8_MATRIX.rows()
        assert congruent_with_witness(S(e8), S(e8))[0]
        positive = dict(calls)
        calls.clear()
        minus_e8 = [[-x for x in row] for row in e8]
        assert congruent_with_witness(S(minus_e8), S(minus_e8))[0]
        assert dict(calls) == positive == {"diagonalize_over_Q": 2, "bareiss_det": 2}


class TestClassify:
    def test_hyperbolic(self):
        fc = classify(H)
        assert (fc.rank, fc.signature, fc.parity, fc.definiteness) == (2, 0, EVEN, INDEFINITE)

    def test_e8(self):
        fc = classify(E8_MATRIX)
        assert (fc.rank, fc.signature, fc.parity, fc.definiteness) == (8, 8, EVEN, POSITIVE)

    def test_rank_one(self):
        fc = classify(S([[1]]))
        assert (fc.rank, fc.signature, fc.parity, fc.definiteness) == (1, 1, ODD, POSITIVE)

    def test_negative_definite(self):
        fc = classify(DIAG(-1, -1))
        assert (fc.signature, fc.definiteness) == (-2, NEGATIVE)


class TestCharacteristicVector:
    def test_even_form_zero(self):
        assert characteristic_vector(H) == (0, 0)

    def test_diag_plus_minus(self):
        assert characteristic_vector(DIAG(1, -1)) == (1, 1)

    def test_rank_one(self):
        assert characteristic_vector(S([[1]])) == (1,)

    def test_against_brute_force(self):
        for v in [H, DIAG(1, -1), S([[1, 2], [2, 3]]), E8_MATRIX,
                  S([[1, 1, 0], [1, 2, 1], [0, 1, 2]])]:
            c = characteristic_vector(v)
            assert c in brute_force_characteristic(v)

    def test_unique_on_seeded_conjugates(self):
        # A unimodular form has exactly one characteristic vector mod 2.
        import random

        bases = [E8_MATRIX.rows(), I(9).rows(), block_diag(H.rows(), H.rows()),
                 block_diag(I(3).rows(), DIAG(-1, -1, -1, -1).rows())]
        for seed, base in enumerate(bases):
            rng = random.Random(seed)
            for _ in range(3):
                n = len(base)
                v = S(sandwich(random_unimodular(rng, n, steps=3 * n), base))
                assert [characteristic_vector(v)] == brute_force_characteristic(v)


class TestIndefinite:
    def test_parity_distinguishes(self):
        assert congruent_indefinite(H, DIAG(1, -1)) is False

    def test_reflexive(self):
        assert congruent_indefinite(H, H) is True

    def test_guard(self):
        with pytest.raises(NotIndefinite):
            congruent_indefinite(I(2), I(2))


class TestShortVectors:
    def test_identity_unit_vectors(self):
        vecs = short_vectors(I(4), 1)
        assert sorted(vecs) == sorted(
            [tuple(s * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
        )
        assert len(vecs) == 8

    def test_within_euclidean_bound(self):
        # Every x with x^T V x <= R has euclidean norm at most ||V^{-1}||_1 * R.
        v = S([[2, 1], [1, 1]])
        inv = fraction_inverse(v.rows())
        bound = 2 * max(sum(abs(inv[i][j]) for i in range(2)) for j in range(2))
        assert bound == 6
        for x in short_vectors(v, 2):
            assert sum(a * a for a in x) <= bound * bound

    def test_e8_roots(self):
        vecs = short_vectors(E8_MATRIX, 2)
        assert len(vecs) == 240  # the E8 root system

    def test_canonical_order(self):
        vecs = short_vectors(I(2), 2)
        reps = vecs[::2]
        assert reps == sorted(reps)
        assert all(vecs[2 * i + 1] == tuple(-a for a in vecs[2 * i]) for i in range(len(reps)))

    def test_cap_respected(self, monkeypatch):
        monkeypatch.setenv("KIRBY4_MAX_ENUM", "3")
        with pytest.raises(ResourceLimitExceeded):
            short_vectors(I(2), 1)

    def test_cap_stops_the_enumeration(self, monkeypatch):
        # E8 has 117,360 vectors of norm <= 12; each one found passes through
        # _canonical once, together with its negation.
        from kirby4 import forms

        found = []
        canonical = forms._canonical
        monkeypatch.setattr(forms, "_canonical", lambda t: found.append(t) or canonical(t))
        monkeypatch.setenv("KIRBY4_MAX_ENUM", "10")
        with pytest.raises(ResourceLimitExceeded):
            short_vectors(E8_MATRIX, 12)
        assert 10 < 2 * len(found) <= 10 + 2

    @pytest.mark.parametrize("name,r", [("I5", 3), ("E8", 4), ("E8_dual", 4), ("E8+I1", 2)])
    def test_memoised_norms(self, name, r):
        from kirby4 import forms

        base = {"I5": mat_identity(5), "E8": E8_MATRIX.rows(),
                "E8+I1": block_diag(E8_MATRIX.rows(), [[1]]),
                "E8_dual": [[int(x) for x in row] for row in fraction_inverse(E8_MATRIX.rows())]}[name]
        for seed in range(3):
            v = seeded_conjugate(base, seed)
            reps = short_vectors(v, r)[::2]
            assert v.memo[forms._NORMS, r] == [
                sum(x[i] * v[i][j] * x[j] for i in range(v.n) for j in range(v.n)) for x in reps]
        assert short_vectors(v, 0) == [] and v.memo[forms._NORMS, 0] == []

    @pytest.mark.parametrize("case", range(30))
    def test_matches_box_oracle(self, case):
        import random

        rng = random.Random(case)
        if case < 27:
            n = 1 + case % 6
            v = S(sandwich(random_unimodular(rng, n, steps=2 + case % 5), mat_identity(n)))
            r = 1 + case % 3
        else:
            # the dual basis of E8 (diagonal up to 30) under a signed permutation
            dual = [[int(x) for x in row] for row in fraction_inverse(E8_MATRIX.rows())]
            perm = rng.sample(range(8), 8)
            p = [[rng.choice((1, -1)) * int(perm[j] == i) for j in range(8)] for i in range(8)]
            v, r = S(sandwich(p, dual)), case - 26
        assert short_vectors(v, r) == box_short_vectors(v, r)


def seeded_conjugate(base, seed):
    import random

    n = len(base)
    return S(sandwich(random_unimodular(random.Random(seed), n, steps=4 * n), base))


class TestLLL:
    @pytest.mark.parametrize("name", ["I12", "E8", "E8+I1", "E8_dual"])
    def test_reduced_congruent_form(self, name):
        from kirby4 import forms

        base = {"I12": mat_identity(12), "E8": E8_MATRIX.rows(),
                "E8+I1": block_diag(E8_MATRIX.rows(), [[1]]),
                "E8_dual": [[int(x) for x in row] for row in fraction_inverse(E8_MATRIX.rows())]}[name]
        n = len(base)
        for seed in range(5):
            v = seeded_conjugate(base, seed)
            u, u_inv, reduced = lll_reduce(v)
            # the textbook LLL's basis, on which the canonical witness order rests
            assert (u, reduced.rows()) == textbook_lll(v.rows())
            assert mul(u, u_inv) == mat_identity(n)
            assert sandwich(u, v.rows()) == reduced.rows()
            assert lll_conditions_hold(reduced)
            assert max(reduced.diagonal()) <= 2
            # the factor handed to the reduced form is its own elimination's
            fresh = S(reduced.rows())
            diagonalize_over_Q(fresh)
            assert reduced.memo[forms._FACTOR] == fresh.memo[forms._FACTOR]


NEGATIVE_BASES = {
    name: [[-x for x in row] for row in base]
    for name, base in (("-E8", E8_MATRIX.rows()), ("-I9", mat_identity(9)),
                       ("-(E8+I1)", block_diag(E8_MATRIX.rows(), [[1]])))
}


class TestNegatedFactor:
    @pytest.mark.parametrize("name", list(NEGATIVE_BASES))
    def test_pivot_rows_are_a_fresh_elimination(self, name):
        from kirby4 import forms

        for seed in range(14):
            v = seeded_conjugate(NEGATIVE_BASES[name], seed)
            assert classify(v).definiteness == NEGATIVE
            fresh = S([[-x for x in row] for row in v.entries])
            diagonalize_over_Q(fresh)
            assert forms._negated(v).memo[forms._FACTOR] == fresh.memo[forms._FACTOR]

    @pytest.mark.parametrize("name", list(NEGATIVE_BASES))
    def test_enumerating_minus_v_eliminates_nothing(self, name, calls):
        from kirby4 import forms

        v = seeded_conjugate(NEGATIVE_BASES[name], 0)
        expected = short_vectors(S([[-x for x in row] for row in v.entries]), 2)
        classify(v)
        calls.clear()
        assert short_vectors(forms._negated(v), 2) == expected
        assert calls["diagonalize_over_Q"] == 0


class TestCongruentDefinite:
    def test_identity_signed_permutation(self):
        for n in range(1, 13):
            w = congruent_definite(I(n), I(n))
            assert w is not None
            assert all(sum(1 for x in row if x) == 1 for row in w)

    def test_e8_vs_identity_none(self):
        assert congruent_definite(E8_MATRIX, I(8)) is None

    def test_small_witness(self):
        w = congruent_definite(S([[2, 1], [1, 1]]), I(2))
        assert w is not None
        assert sandwich([list(r) for r in w], [[2, 1], [1, 1]]) == I(2).rows()

    def test_rank_mismatch_is_none(self):
        assert congruent_definite(I(2), I(3)) is None

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            congruent_definite(H, H)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_pairing_at_the_bound_identity(self, n):
        # r = 1: the candidates +-b_j of a placed column b_j pair with it at
        # +-r, the extremes the packed pairing must keep apart from 0
        witness = congruent_definite(I(n), I(n))
        assert witness == tuple(tuple(int(i + j == n - 1) for j in range(n)) for i in range(n))
        oracle = first_witness(mat_identity(n), mat_identity(n), box_short_vectors(I(n), 1))
        assert [list(c) for c in zip(*witness)] == [list(c) for c in oracle]

    def test_pairing_at_the_bound_e8(self):
        # an LLL-reduced E8 is its own reduction, so its witness is the first
        # one among its 240 roots (r = 2), found here by plain backtracking
        _, reduced = textbook_lll(E8_MATRIX.rows())
        witness = congruent_definite(S(reduced), S(reduced))
        oracle = first_witness(reduced, reduced, box_short_vectors(S(reduced), 2))
        assert [list(c) for c in zip(*witness)] == [list(c) for c in oracle]

    def test_i9_vs_e8_plus_i1_both_orders(self):
        e8_i1 = S(block_diag(E8_MATRIX.rows(), [[1]]))
        assert congruent_with_witness(I(9), e8_i1) == (False, None)
        assert congruent_with_witness(e8_i1, I(9)) == (False, None)

    def test_e8_vs_max_diagonal_12_conjugate_both_orders(self, monkeypatch):
        import random

        from kirby4 import forms

        sizes = []
        enumerate_ = forms.short_vectors
        monkeypatch.setattr(forms, "short_vectors",
                            lambda v, r: sizes.append(len(out := enumerate_(v, r))) or out)
        q = random_unimodular(random.Random(15), 8, steps=5)
        conj = S(sandwich(q, E8_MATRIX.rows()))
        assert max(conj.diagonal()) == 12
        for v, w in ((E8_MATRIX, conj), (conj, E8_MATRIX)):
            ok, witness = congruent_with_witness(v, w)
            assert ok
            a = [list(r) for r in witness]
            assert sandwich(a, v.rows()) == w.rows()
            assert abs(fraction_det(a)) == 1
        # both forms reduce to a basis of roots: only the 240 roots are enumerated
        assert sizes == [240] * 4


GOLDEN_BASES = {"E8": E8_MATRIX.rows(), "I12": mat_identity(12),
                "E8+I1": block_diag(E8_MATRIX.rows(), [[1]])}


class TestGoldenWitnesses:
    """Witnesses of seeded conjugates, both orders and negated, as recorded
    in tests/golden_witnesses.json before the search packed its pairings."""

    @pytest.mark.parametrize("name", list(GOLDEN_BASES))
    def test_witnesses_unchanged(self, name):
        from pathlib import Path

        golden = json.loads((Path(__file__).parent / "golden_witnesses.json").read_text())
        base = GOLDEN_BASES[name]
        for seed in range(3):
            conj = seeded_conjugate(base, seed).rows()
            for sign in "+-":
                s = 1 if sign == "+" else -1
                v, b = ([[s * x for x in row] for row in m] for m in (conj, base))
                for order, (x, y) in (("vb", (v, b)), ("bv", (b, v))):
                    ok, witness = congruent_with_witness(S(x), S(y))
                    assert ok
                    assert [list(r) for r in witness] == golden[f"{name}/{seed}/{sign}/{order}"]


def e8_e8_and_d16_plus():
    """E8+E8 and D16+: even, unimodular, rank 16, same theta series, not
    congruent (Milnor 1964).  D16+ = D16 + Z h with h = (1/2, ..., 1/2) has
    the basis e2 - e3, ..., e15 - e16, e15 + e16, h: 2h is e1 - e2 plus an
    even combination of the others."""
    e = lambda i: [2 * int(j == i) for j in range(16)]  # noqa: E731 (doubled)
    basis = [[x - y for x, y in zip(e(i), e(i + 1))] for i in range(1, 15)]
    basis += [[x + y for x, y in zip(e(14), e(15))], [1] * 16]
    d16 = [[sum(x * y for x, y in zip(b, c)) // 4 for c in basis] for b in basis]
    return block_diag(E8_MATRIX.rows(), E8_MATRIX.rows()), d16


class TestSearchBudget:
    def test_isospectral_pair_stops_within_cap(self, monkeypatch):
        import time

        e8e8, d16 = e8_e8_and_d16_plus()
        assert fraction_det(d16) == 1 and all(d16[i][i] % 2 == 0 for i in range(16))
        monkeypatch.setenv("KIRBY4_MAX_ENUM", "1000")
        outcomes = []
        for v, w in ((e8e8, d16), (d16, e8e8)):
            start = time.perf_counter()
            try:
                outcomes.append(congruent_with_witness(S(v), S(w)))
            except ResourceLimitExceeded as exc:
                outcomes.append(str(exc))
            assert time.perf_counter() - start < 1.0
        assert all(o == (False, None) or "KIRBY4_MAX_ENUM" in o for o in outcomes)
        # With E8+E8 on the right, r = 2 and both forms have 480 roots: the
        # norm counts agree, and only the search's own budget stops it.
        assert "search" in outcomes[1]

    def test_search_cap_exits_2(self, monkeypatch, tmp_path, capsys):
        from kirby4.cli import run

        e8e8, d16 = e8_e8_and_d16_plus()
        paths = []
        for name, m in (("d16.json", d16), ("e8e8.json", e8e8)):
            paths.append(str(tmp_path / name))
            (tmp_path / name).write_text(json.dumps({"entries": m}))
        monkeypatch.setenv("KIRBY4_MAX_ENUM", "1000")
        assert run(["form-compare", *paths]) == 2
        assert "search placements exceed KIRBY4_MAX_ENUM=1000" in capsys.readouterr().err


def limit_recursion(frames):
    """Set Python's recursion limit `frames` above the caller's depth."""
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)


class TestRecursionLimit:
    """The enumeration and the search keep explicit stacks, so a definite form
    whose rank passes Python's recursion limit still gets a decision."""

    RANK = 120

    @pytest.fixture(autouse=True)
    def restore_limit(self):
        old = sys.getrecursionlimit()
        yield
        sys.setrecursionlimit(old)

    def test_short_vectors_past_the_limit(self):
        limit_recursion(self.RANK // 2)
        assert sys.getrecursionlimit() < self.RANK
        units = short_vectors(I(self.RANK), 1)
        assert len(units) == 2 * self.RANK
        assert sorted(units) == sorted(
            tuple(s * int(i == j) for j in range(self.RANK)) for i in range(self.RANK) for s in (1, -1))

    def test_witness_past_the_limit(self):
        expected = congruent_with_witness(I(self.RANK), I(self.RANK))
        limit_recursion(self.RANK // 2)
        assert sys.getrecursionlimit() < self.RANK
        ok, witness = congruent_with_witness(I(self.RANK), I(self.RANK))
        assert (ok, witness) == expected
        assert sandwich([list(r) for r in witness], I(self.RANK).rows()) == I(self.RANK).rows()

    def test_reject_past_the_limit(self):
        e8_i112 = S(block_diag(E8_MATRIX.rows(), I(self.RANK - 8).rows()))
        limit_recursion(self.RANK // 2)
        assert sys.getrecursionlimit() < self.RANK
        assert congruent_with_witness(e8_i112, I(self.RANK)) == (False, None)

    def test_cli_exits_0(self, tmp_path, capsys):
        from kirby4.cli import run

        path = tmp_path / "i.json"
        path.write_text(json.dumps({"entries": I(self.RANK).rows()}))
        limit_recursion(self.RANK // 2)
        assert run(["form-compare", str(path), str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["congruent"] is True


class TestCongruent:
    def test_odd_indefinite_rank3(self):
        left = DIAG(1, 1, -1)
        right = S([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert congruent(left, right) is True

    def test_e8_vs_identity(self):
        assert congruent(E8_MATRIX, I(8)) is False

    def test_signature_flip(self):
        assert congruent(S([[1]]), S([[-1]])) is False

    def test_negative_definite_branch(self):
        ok, witness = congruent_with_witness(S([[-2, -1], [-1, -1]]), DIAG(-1, -1))
        assert ok and witness is not None
        assert sandwich([list(r) for r in witness], [[-2, -1], [-1, -1]]) == DIAG(-1, -1).rows()

    def test_empty_forms(self):
        assert congruent(S([]), S([])) is True

    def test_rank_mismatch(self):
        assert congruent(S([[1]]), I(2)) is False

    def test_not_unimodular_rejected(self):
        with pytest.raises(NotUnimodular):
            congruent(S([[2]]), S([[1]]))


def test_congruence_is_an_equivalence_relation():
    import random

    from conftest import random_unimodular, random_unimodular_symmetric

    rng = random.Random(99)
    fixtures = [I(2), S([[2, 1], [1, 1]]), S([[5, 3], [3, 2]]), H, DIAG(1, -1),
                S([[1, 2], [2, 3]]), E8_MATRIX]
    for v in fixtures:
        assert congruent(v, v) is True
    for v in fixtures:
        for w in fixtures:
            if v.n == w.n:
                assert congruent(v, w) == congruent(w, v)
    # transitivity on known-congruent triples
    triples = [
        (I(2), S([[2, 1], [1, 1]]), S([[5, 3], [3, 2]])),
        (H, S(sandwich(random_unimodular(rng, 2), H.rows())),
         S(sandwich(random_unimodular(rng, 2), H.rows()))),
    ]
    for a, b, c in triples:
        assert congruent(a, b) and congruent(b, c) and congruent(a, c)


def test_formclass_internal_coherence():
    import random

    from conftest import random_unimodular_symmetric

    rng = random.Random(5)
    forms = [random_unimodular_symmetric(rng, 1 + t % 5) for t in range(60)]
    for v in forms + [S([])]:
        fc = classify(v)
        assert abs(fc.signature) <= fc.rank
        assert (fc.signature - fc.rank) % 2 == 0
        if fc.rank > 0:
            assert (fc.definiteness == POSITIVE) == (fc.signature == fc.rank)
            assert (fc.definiteness == NEGATIVE) == (fc.signature == -fc.rank)


def test_witness_always_unimodular():
    w = congruent_definite(E8_MATRIX, E8_MATRIX)
    assert w is not None
    assert bareiss_det([list(r) for r in w]) in (1, -1)
    assert sandwich([list(r) for r in w], E8_MATRIX.rows()) == E8_MATRIX.rows()


def test_transformed_e8_recognized():
    import random

    from conftest import random_unimodular

    rng = random.Random(11)
    q = random_unimodular(rng, 8, steps=3)
    v = S(sandwich(q, E8_MATRIX.rows()))
    assert v.entries != E8_MATRIX.entries
    ok, witness = congruent_with_witness(v, E8_MATRIX)
    assert ok and witness is not None
    assert sandwich([list(r) for r in witness], v.rows()) == E8_MATRIX.rows()
