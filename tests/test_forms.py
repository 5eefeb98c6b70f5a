"""Form algebra: diagonalization, classification, congruence."""

import inspect
import json
import sys

import pytest

from kirby4 import forms
from kirby4.errors import (
    InternalInvariantViolation,
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
    pivot_row_minors,
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


def record(v):
    """The record of v's elimination that `forms` keeps."""
    return v.memo[forms._Analysis]


def factor(v):
    """The pivot rows and diagonal of D in v's elimination record."""
    return record(v).pivots, record(v).diag


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
        assert factor(v) == (pivot_rows, diag)

    def test_benchmark_shaped_forms(self):
        repaired = 0
        for rows in benchmark_shaped_forms():
            v = S(rows)
            p, d = diagonalize_over_Q(v)
            oracle_p, pivot_rows, diag = symmetric_bareiss(rows)
            assert [list(r) for r in p] == oracle_p
            assert factor(v) == (pivot_rows, diag)
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


class TestWithoutTransform:
    """`classify` runs the elimination with transform=False: it must fill the
    record with the same class, D and pivot rows as the run that builds P,
    and leave P out, so that the first caller of P eliminates once more."""

    @staticmethod
    def forms_to_compare():
        import random

        yield from (H.rows(), [[0, 1], [1, -2]], block_diag(H.rows(), [[0, 1], [1, -2]], [[1]]))
        yield from benchmark_shaped_forms()  # 24 forms, some needing pivot repairs
        for n in range(1, 25):
            for seed in range(3):
                rng = random.Random(100 * n + seed)
                yield random_unimodular_symmetric(rng, n, steps=n, definite=seed == 2).rows()

    def test_same_record_as_the_run_with_p(self):
        repaired = 0
        for rows in self.forms_to_compare():
            with_p, without = S(rows), S(rows)
            p, d = diagonalize_over_Q(with_p)
            assert diagonalize_over_Q(without, transform=False) == (None, d)
            assert record(without).p is None
            assert record(without).form_class == record(with_p).form_class
            assert factor(without) == factor(with_p)
            repaired += any(p[r][c] for r in range(len(rows)) for c in range(r))
        assert repaired >= 20

    @pytest.mark.parametrize("transform", [True, False])
    def test_degenerate_blocks_raise_on_both(self, transform, monkeypatch):
        with pytest.raises(NotUnimodular):
            diagonalize_over_Q(S([[2, 1], [1, 2]]), transform=transform)
        # past the determinant check, the elimination meets the zero block itself
        monkeypatch.setattr(forms, "_require_unimodular", lambda v: None)
        for rows in ([[0, 0], [0, 1]], [[1, 1], [1, 1]], [[1, 0, 0], [0, 0, 0], [0, 0, -1]]):
            with pytest.raises(NotUnimodular, match="degenerate block"):
                diagonalize_over_Q(S(rows), transform=transform)

    def test_classify_builds_no_p_and_characteristic_vector_eliminates_once(self, calls):
        for rows in ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], k3_windowed(1), E8_MATRIX.rows()):
            v = S(rows)
            classify(v)
            without = record(v)
            assert without.p is None
            c = characteristic_vector(v)
            with_p = record(v)
            assert with_p is not without and with_p.p is not None
            assert (with_p.form_class, with_p.diag, with_p.pivots) == (
                without.form_class, without.diag, without.pivots)
            assert characteristic_vector(v) == c == characteristic_vector(S(rows))
            assert record(v) is with_p  # the second call reads P off the record
        assert calls["bareiss_det"] == 6  # one per instance: the re-elimination reuses det


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
        pivot_rows = record(v).pivots
        bits = max(abs(x).bit_length() for row in (diag, *p, *pivot_rows) for x in row)
        assert bits <= hadamard_bits(v)
        # The exact size: eight sampled pivot-row entries and the largest one
        # equal the minors of the repaired form they stand for.
        entries = [(abs(x), i, i + c) for i, row in enumerate(pivot_rows) for c, x in enumerate(row)]
        samples = random.Random(2).sample(entries, 8) + [max(entries)]
        minors = pivot_row_minors(v.rows(), [(i, k) for _, i, k in samples])
        assert all(pivot_rows[i][k - i] == minors[i, k] for _, i, k in samples)


@pytest.fixture
def calls(monkeypatch):
    """Counts of diagonalize_over_Q and bareiss_det calls, by function name."""
    from collections import Counter

    from kirby4 import forms, matrices

    counts = Counter()
    for mod, name in ((forms, "diagonalize_over_Q"), (matrices, "bareiss_det")):
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

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

    def test_characteristic_vector_and_classify_share_one_elimination(self, calls):
        v = S([[0, 1, 0], [1, 0, 0], [0, 0, 1]])  # H + <1>: pivot 0 needs a repair
        assert characteristic_vector(v) == (0, 0, 1)
        assert classify(v).signature == 1
        assert calls["diagonalize_over_Q"] == 1
        assert calls["bareiss_det"] == 1

    def test_ks_runs_one_elimination(self, calls):
        from kirby4 import fixtures
        from kirby4.invariants import kirby_siebenmann

        for name in ("e8", "chern", "s2xs2", "clasp_12_23_trefoil"):
            calls.clear()
            kirby_siebenmann(fixtures.corpus()[name])
            assert calls["diagonalize_over_Q"] == 1, name

    def test_negated_forms_run_no_elimination(self, calls):
        v, w = (seeded_conjugate(NEGATIVE_BASES["-(E8+I1)"], seed) for seed in (0, 1))
        assert congruent_with_witness(v, w)[0]
        assert calls["diagonalize_over_Q"] == 2  # V's and W's, none for -V or -W
        # V was only classified, so -V inherits no P: its c eliminates -V once
        negated = forms._negated(v)
        assert record(negated).p is None
        c = characteristic_vector(negated)
        assert record(negated).p is not None
        # once V's record has P, -V inherits it and reads c off the record
        assert characteristic_vector(v) == c
        negated = forms._negated(v)
        kept = record(negated)
        assert kept.p is record(v).p
        assert characteristic_vector(negated) == c
        assert record(negated) is kept  # read off the record, not a new elimination

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

    def test_a_wrong_factor_fails_the_condition(self):
        # c is checked against V itself: with P off in one entry, P D^-1 P^T
        # is not I2^-1 and gives c = (1, 0)
        v = I(2)
        diagonalize_over_Q(v)
        record(v).p = ((1, 1), (0, 1))
        with pytest.raises(InternalInvariantViolation, match="characteristic condition"):
            characteristic_vector(v)

    def test_unique_on_seeded_conjugates(self):
        # A unimodular form has exactly one characteristic vector mod 2.
        import random

        # H + <1> and E8 + H need pivot repairs as written
        bases = [E8_MATRIX.rows(), I(9).rows(), block_diag(H.rows(), H.rows()),
                 block_diag(I(3).rows(), DIAG(-1, -1, -1, -1).rows()),
                 block_diag(H.rows(), [[1]]), block_diag(E8_MATRIX.rows(), H.rows())]
        repaired = 0
        for seed, base in enumerate(bases):
            rng = random.Random(seed)
            for steps in (0, 3, 3, 3):  # the base as written, then three conjugates
                n = len(base)
                v = S(sandwich(random_unimodular(rng, n, steps=steps * n), base))
                assert [characteristic_vector(v)] == brute_force_characteristic(v)
                p, _ = diagonalize_over_Q(v)
                repaired += any(p[r][c] for r in range(n) for c in range(r))
        assert repaired >= 2


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
            assert record(v).norms[r] == [
                sum(x[i] * v[i][j] * x[j] for i in range(v.n) for j in range(v.n)) for x in reps]
        assert short_vectors(v, 0) == [] and record(v).norms[0] == []

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

    @pytest.mark.parametrize("seed", range(30))
    def test_walk_matches_box_oracle(self, seed):
        # Both modes of the walk on a seeded form, on its LLL reduction (pivot
        # rows read off d and lambda) and on -(-V) (pivot rows carried over).
        import random

        rng = random.Random(seed)
        n, r = 1 + seed % 6, 1 + seed % 4
        raw = random_unimodular_symmetric(rng, n, steps=2 + seed % 5, definite=True)
        _, _, reduced = lll_reduce(raw)
        carried = forms._negated(S([[-x for x in row] for row in raw.entries]))
        for v in (raw, reduced, carried):
            expected = box_short_vectors(v, r)
            assert short_vectors(v, r) == expected
            norms = record(v).norms[r]
            assert norms == [sum(x[i] * v[i][j] * x[j] for i in range(n) for j in range(n))
                             for x in expected[::2]]
            assert sorted(forms._walk(v, r, False)) == sorted(norms)


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
            # the factor handed to the reduced form is its own elimination's;
            # it carries no P, so a direct call runs that elimination
            fresh = S(reduced.rows())
            diagonalize_over_Q(fresh)
            assert factor(reduced) == factor(fresh) and record(reduced).p is None
            assert diagonalize_over_Q(reduced) == diagonalize_over_Q(fresh)
            assert factor(reduced) == factor(fresh)

    def test_gram_off_the_factor_must_be_integral(self):
        # The reduced form is read off d and lambda; pivot rows that are not
        # V's own (here a_12 off by one) leave a remainder, which raises.
        v = S(E8_MATRIX.rows())
        classify(v)
        record(v).pivots = [row[:] for row in record(v).pivots]
        record(v).pivots[1][1] += 1
        with pytest.raises(InternalInvariantViolation, match="not integral"):
            lll_reduce(v)


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
            if seed % 2:
                diagonalize_over_Q(v)  # V's record gets P; classify built none
            assert (record(v).p is None) == (seed % 2 == 0)
            fresh = S([[-x for x in row] for row in v.entries])
            diagonalize_over_Q(fresh)
            negated = forms._negated(v)
            assert factor(negated) == factor(fresh)
            assert classify(negated) == classify(fresh)
            # -V inherits P only when V's record has one, as P^T (-V) P = -D;
            # otherwise asking for P eliminates -V afresh
            assert record(negated).p is record(v).p
            p, d = diagonalize_over_Q(negated)
            assert p == (record(v).p or record(fresh).p)
            assert list(d.diagonal()) == [-x for x in record(v).diag]
            assert sandwich([list(r) for r in p], negated.rows()) == d.rows()

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

        # Every enumeration, V''s (through short_vectors) and W''s (norms only),
        # runs _walk, which returns one entry per +-pair.
        sizes = []
        walk = forms._walk

        def counted(v, r, keep):
            out = walk(v, r, keep)
            sizes.append((keep, 2 * len(out)))
            return out

        monkeypatch.setattr(forms, "_walk", counted)
        q = random_unimodular(random.Random(15), 8, steps=5)
        conj = S(sandwich(q, E8_MATRIX.rows()))
        assert max(conj.diagonal()) == 12
        for v, w in ((E8_MATRIX, conj), (conj, E8_MATRIX)):
            ok, witness = congruent_with_witness(v, w)
            assert ok
            a = [list(r) for r in witness]
            assert sandwich(a, v.rows()) == w.rows()
            assert abs(fraction_det(a)) == 1
        # both forms reduce to a basis of roots: each of the four enumerations
        # finds the 240 roots, never the 117,360 vectors of norm <= 12
        assert sizes == [(True, 240), (False, 240)] * 2


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

    @pytest.fixture(scope="class")
    def backtracking_pair(self):
        """E8+I2 and a conjugate whose search backtracks: it places 500 columns
        for rank 10, more than the 248 vectors each enumeration finds, so the
        cap meets the placements first.  The count is plain backtracking's."""
        import random

        base = block_diag(E8_MATRIX.rows(), mat_identity(2))
        conj = sandwich(random_unimodular(random.Random(12), 10, steps=10), base)
        _, reduced_v = textbook_lll(base)
        _, reduced_w = textbook_lll(conj)
        # the box oracle takes seconds at rank 10; TestShortVectors holds the two equal
        cands = short_vectors(S(reduced_v), max(reduced_w[i][i] for i in range(10)))
        placed = []
        assert first_witness(reduced_v, reduced_w, cands, placed) is not None
        assert (len(cands), len(placed)) == (248, 500)
        return base, conj, len(placed)

    def test_cap_at_the_placement_count_decides(self, monkeypatch, backtracking_pair):
        base, conj, placements = backtracking_pair
        monkeypatch.setenv("KIRBY4_MAX_ENUM", str(placements))
        ok, witness = congruent_with_witness(S(base), S(conj))
        assert ok and sandwich([list(r) for r in witness], base) == conj

    def test_cap_one_below_the_placement_count_stops(self, monkeypatch, backtracking_pair):
        base, conj, placements = backtracking_pair
        monkeypatch.setenv("KIRBY4_MAX_ENUM", str(placements - 1))
        with pytest.raises(ResourceLimitExceeded, match="search placements exceed"):
            congruent_with_witness(S(base), S(conj))

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
