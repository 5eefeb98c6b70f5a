"""Acceptance criteria, one test per criterion.

Every check is exact (integer equality); runtime budgets are asserted with
the stated limits.  Each criterion prints one pass/fail line.
"""

import random
import time

import pytest

from kirby4.classify import homeomorphic_oriented, homeomorphic_unoriented
from kirby4.diagram import FramedLink, linking_matrix
from kirby4.fixtures import (
    E8_MATRIX,
    FIGURE_EIGHT_PD,
    TREFOIL_PD,
    clasp_link,
    e8_link,
    tie_trefoil,
    trefoil,
    unknot,
)
from kirby4.forms import (
    characteristic_vector,
    classify,
    congruent,
    congruent_definite,
    diagonalize_over_Q,
)
from kirby4.invariants import kirby_siebenmann
from kirby4.knot import (
    alexander_at_minus_one,
    arf_invariant,
    band_sum,
    characteristic_sublink,
)
from kirby4.matrices import SymIntMatrix, bareiss_det

from conftest import (
    S,
    block_diag,
    brute_force_congruent,
    random_unimodular,
    random_unimodular_symmetric,
    sandwich,
    wirtinger_determinant_recount,
)

H = S([[0, 1], [1, 0]])


def I(n):  # noqa: E741
    return S([[int(i == j) for j in range(n)] for i in range(n)])


def DIAG(*xs):
    return S([[xs[i] if i == j else 0 for j in range(len(xs))] for i in range(len(xs))])


class _Budget:
    def __init__(self, limit_s):
        self.limit = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeds the {self.limit}s budget"
            )
        return False


def report(num, text, budget=None):
    timing = f" ({budget.elapsed:.2f}s)" if budget else ""
    print(f"PASS criterion {num}: {text}{timing}")


def test_criterion_1_cp2_vs_chern():
    with _Budget(1.0) as budget:
        verdict = homeomorphic_oriented(unknot(1), trefoil(1))
        assert verdict.homeomorphic is False
        assert verdict.reason == "KsDiffer"
        assert verdict.left.form.entries == ((1,),)
        assert verdict.right.form.entries == ((1,),)
        assert verdict.left.ks == 0 and verdict.right.ks == 1
    report(1, "CP^2 vs Chern manifold: KsDiffer with equal forms [[1]]", budget)


def test_criterion_2_e8_manifold():
    with _Budget(1.0) as budget:
        inv = kirby_siebenmann(e8_link())
        assert inv.signature == 8
        assert classify(inv.form).parity == "even"
        assert inv.characteristic == (0,) * 8
        assert inv.ks == 1
        assert inv.ks == (inv.signature // 8) % 2
    report(2, "E8 manifold: sigma 8, even, c = 0, ks = 1", budget)


def test_criterion_3_indefinite_classification():
    with _Budget(1.0) as budget:
        assert congruent(S(block_diag([[1]], H.rows())), DIAG(1, 1, -1)) is True
        assert congruent(H, DIAG(1, -1)) is False
        assert congruent(S(block_diag(E8_MATRIX.rows(), [[-1]])), DIAG(*([1] * 8 + [-1]))) is True
    report(3, "indefinite forms decided by rank/signature/parity", budget)


def test_criterion_4_definite_enumeration():
    with _Budget(60.0) as budget:
        for n in range(1, 9):
            witness = congruent_definite(I(n), I(n))
            assert witness is not None
            assert all(sum(1 for x in row if x) == 1 for row in witness)
            assert all(abs(x) == 1 for row in witness for x in row if x)
        assert congruent_definite(E8_MATRIX, I(8)) is None
        witness = congruent_definite(E8_MATRIX, E8_MATRIX)
        assert witness is not None
        a = [list(r) for r in witness]
        assert sandwich(a, E8_MATRIX.rows()) == E8_MATRIX.rows()
        assert bareiss_det(a) in (1, -1)
    report(4, "definite enumeration: I_n witnesses, E8 vs I8 none, E8 self-witness", budget)


def test_criterion_5_arf_oracle_agreement():
    diagrams = {
        "unknot": FramedLink.build([], unknots=1, framings=[0]),
        "trefoil": FramedLink.build(TREFOIL_PD, framings=[0]),
        "figure-eight": FramedLink.build(FIGURE_EIGHT_PD, framings=[0]),
    }
    expected = {"unknot": (0, 1), "trefoil": (1, 3), "figure-eight": (1, 5)}
    for name, k in diagrams.items():
        arf, det = expected[name]
        assert arf_invariant(k) == arf, name
        assert alexander_at_minus_one(k) == det, name
        assert wirtinger_determinant_recount(k.crossings) == det, name
    report(5, "Arf 0/1/1 and determinants 1/3/5 confirmed by the independent recount")


def test_criterion_6_property_suite():
    with _Budget(300.0) as budget:
        rng = random.Random(20240)
        checked = {"diag": 0, "char": 0, "congr": 0, "class": 0, "div8": 0, "ks": 0}

        # six ranks cycling, mixed definite and indefinite
        forms = []
        for trial in range(200):
            n = 1 + trial % 6
            definite = trial % 3 == 0
            v = random_unimodular_symmetric(
                rng, min(n, 4) if definite else n, steps=3 if definite else 4,
                definite=definite,
            )
            forms.append(v)

        for v in forms:
            p, d = diagonalize_over_Q(v)
            assert sandwich([list(r) for r in p], v.rows()) == d.rows()
            assert bareiss_det([list(r) for r in p]) != 0
            checked["diag"] += 1

            c = characteristic_vector(v)
            assert all(x in (0, 1) for x in c)
            for i in range(v.n):
                lhs = sum(c[r] * v[r][i] for r in range(v.n)) % 2
                assert lhs == v[i][i] % 2
            checked["char"] += 1

            q = random_unimodular(rng, v.n, steps=3)
            w = S(sandwich(q, v.rows()))
            assert congruent(w, v) is True
            checked["congr"] += 1
            assert classify(w) == classify(v)
            checked["class"] += 1

            sigma = classify(v).signature
            cvc = sum(c[i] * v[i][j] * c[j] for i in range(v.n) for j in range(v.n))
            assert (cvc - sigma) % 8 == 0
            checked["div8"] += 1

        # ks stability across band-sum choices, end to end
        multi_fixtures = [
            clasp_link(S([[1, 2], [2, 3]])),
            tie_trefoil(clasp_link(S([[1, 2], [2, 3]])), 0),
            tie_trefoil(clasp_link(S([[1, 2], [2, 3]])), 1),
            clasp_link(S([[1, 2, 0], [2, 1, 2], [0, 2, -1]])),
            clasp_link(S([[-5, 2, 0, 0], [2, 1, 2, 0], [0, 2, 3, 2], [0, 0, 2, 5]])),
        ]
        for link in multi_fixtures:
            v = linking_matrix(link)
            c = characteristic_vector(v)
            assert sum(c) >= 2, "fixture must band several components"
            sub = characteristic_sublink(link, c)
            sigma = classify(v).signature
            cvc = sum(c[i] * v[i][j] * c[j] for i in range(v.n) for j in range(v.n))
            m = sub.component_count()
            variants = [
                {},
                {"arc_offset": 1},
                {"arc_offset": 2},
                {"order": list(reversed(range(m)))},
                {"order": list(reversed(range(m))), "arc_offset": 1},
            ]
            ks_values = set()
            for kwargs in variants:
                arf = arf_invariant(band_sum(sub, **kwargs))
                ks_values.add((arf + (cvc - sigma) // 8) % 2)
                checked["ks"] += 1
            assert len(ks_values) == 1, "ks depended on the band-sum choice"
            assert ks_values == {kirby_siebenmann(link).ks}

        assert all(v >= 200 for k, v in checked.items() if k not in ("ks",))
        assert checked["ks"] >= 3 * len(multi_fixtures)
    report(
        6,
        "property suite: 200x diagonalize/charvec/congruence/classify/8-div,"
        " ks stable over band choices",
        budget,
    )


def test_criterion_7_brute_force_oracle():
    pairs = [
        (S([[1]]), S([[1]]), True),
        (S([[1]]), S([[-1]]), False),
        (S([[-1]]), S([[-1]]), True),
        (H, DIAG(1, -1), False),
        (H, H, True),
        (DIAG(1, 1), S([[2, 1], [1, 1]]), True),
        (DIAG(1, -1), S([[1, 2], [2, 3]]), True),
        (DIAG(1, 1), DIAG(1, -1), False),
        (DIAG(-1, -1), S([[-2, -1], [-1, -1]]), True),
        (DIAG(1, 1, -1), S(block_diag([[1]], H.rows())), True),
        (DIAG(1, 1, 1), S([[2, 1, 0], [1, 1, 0], [0, 0, 1]]), True),
        (DIAG(1, 1, 1), DIAG(1, 1, -1), False),
        (DIAG(1, -1, -1), DIAG(1, 1, -1), False),
        (S(block_diag([[1]], H.rows())), S(block_diag([[-1]], H.rows())), False),
    ]
    for v, w, expected in pairs:
        assert congruent(v, w) is expected
        assert brute_force_congruent(v, w) is expected
        assert brute_force_congruent(w, v) is expected
    report(7, f"brute-force congruence oracle agrees on {len(pairs)} rank<=3 pairs")


def test_criterion_8_unoriented_mode():
    cp2, cp2_bar = unknot(1), unknot(-1)
    oriented = homeomorphic_oriented(cp2, cp2_bar)
    assert oriented.homeomorphic is False
    unoriented = homeomorphic_unoriented(cp2, cp2_bar)
    assert unoriented.homeomorphic is True
    assert unoriented.reason == "MatchAfterReversal"
    report(8, "CP^2 vs -CP^2: homeomorphic only in unoriented mode")
