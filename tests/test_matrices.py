"""bareiss_det against the rational elimination oracle."""

import random

import pytest

from kirby4.errors import DimensionMismatch, MalformedInput
from kirby4.matrices import SymIntMatrix, bareiss_det

from conftest import fraction_det


def random_matrix(rng, n, density):
    return [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)]


def wirtinger_rows(rng, n, x):
    """n rows over n + 1 generators, each x, 1 - x, -1 (or 1, x - 1, -x) at
    three random generators, which may coincide and merge; the last
    generator's column is dropped, as in the Alexander minor."""
    rows = []
    for _ in range(n):
        row = [0] * (n + 1)
        terms = (x, 1 - x, -1) if rng.random() < 0.5 else (1, x - 1, -x)
        for value in terms:
            row[rng.randrange(n + 1)] += value
        rows.append(row[:n])
    return rows


class TestBareissDet:
    def test_empty_is_one(self):
        assert bareiss_det([]) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            bareiss_det([[1, 2], [3]])

    def test_input_left_unchanged(self):
        rows = [[0, 2, 1], [3, 0, 4], [5, 6, 0]]
        copy = [r[:] for r in rows]
        bareiss_det(rows)
        assert rows == copy

    def test_matches_oracle_on_seeded_random(self):
        rng = random.Random(20260801)
        for n in range(11):
            for density in (0.1, 0.25, 0.5, 1.0):
                for _ in range(12):
                    m = random_matrix(rng, n, density)
                    assert bareiss_det(m) == fraction_det(m), m

    def test_singular(self):
        rng = random.Random(7)
        for n in range(2, 11):
            for density in (0.1, 0.25, 0.5, 1.0):
                m = random_matrix(rng, n, density)
                # row i becomes a combination of two other rows (or zero)
                i = rng.randrange(n)
                others = [r for r in range(n) if r != i]
                j, k = rng.choice(others), rng.choice(others)
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                m[i] = [a * y + b * z for y, z in zip(m[j], m[k])]
                assert fraction_det(m) == 0
                assert bareiss_det(m) == 0, m

    @pytest.mark.parametrize("rows, det", [
        # step 0 defers row 2 (its column-0 entry is 0) and zeroes the pivot
        # of row 1, so step 1 swaps in the deferred row
        ([[2, 1, 0], [4, 2, 1], [0, 3, 5]], -6),
        # row 3 is deferred at steps 0 and 1 and swapped in at step 2; the
        # row it displaces was deferred at step 1 and stays deferred to the end
        ([[2, 1, 0, 0], [1, 3, 1, 0], [4, 2, 0, 1], [0, 0, 5, 1]], -25),
    ])
    def test_zero_pivot_swapped_with_deferred_row(self, rows, det):
        assert fraction_det(rows) == det
        assert bareiss_det(rows) == det

    def test_wirtinger_shaped_rows(self):
        rng = random.Random(41)
        x = 1 << 40
        for n in range(1, 11):
            for _ in range(15):
                m = wirtinger_rows(rng, n, x)
                assert bareiss_det(m) == fraction_det(m), m


class TestFromRows:
    @pytest.mark.parametrize("bad", [1.5, 3.0, "3", None])
    def test_non_integer_entry_rejected(self, bad):
        with pytest.raises(MalformedInput):
            SymIntMatrix.from_rows([[1, 0], [0, bad]])

    def test_non_iterable_row_rejected(self):
        with pytest.raises(MalformedInput):
            SymIntMatrix.from_rows([1, 2])

    def test_bool_is_an_integer(self):
        assert SymIntMatrix.from_rows([[True]]).entries == ((1,),)


@pytest.mark.parametrize("rows,at", [
    ([[1, 2, 3], [2, 1, 0], [4, 0, 1]], "(2,0)"),
    ([[1, 2, 3], [2, 1, 5], [3, 0, 1]], "(2,1)"),
    ([[1, 7], [2, 1]], "(1,0)"),
])
def test_asymmetric_matrix_names_the_first_entry(rows, at):
    with pytest.raises(MalformedInput) as info:
        SymIntMatrix.from_rows(rows)
    assert str(info.value) == f"matrix not symmetric at {at}"
