"""Form algebra: diagonalization, classification, congruence."""

import pytest

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
    short_vectors,
)
from kirby4.matrices import SymIntMatrix, bareiss_det

from conftest import (
    S,
    brute_force_characteristic,
    fraction_det,
    fraction_inverse,
    sandwich,
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


class TestCongruentDefinite:
    def test_identity_signed_permutation(self):
        for n in range(1, 6):
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
