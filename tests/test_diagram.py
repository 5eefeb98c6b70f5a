"""Diagram layer: parsing, signs, linking matrices, mirrors."""

import json
import random
import sys

import pytest

from kirby4.diagram import (
    FramedLink,
    crossing_sign,
    linking_matrix,
    mirror,
    parse_framed_link,
)
from kirby4.errors import (
    FramingCountMismatch,
    IndexOutOfRange,
    InputError,
    InvalidPD,
    MalformedInput,
    NotAKnot,
)
from kirby4.knot import alexander_polynomial
from kirby4 import fixtures
from kirby4.fixtures import E8_MATRIX, e8_link
from conftest import S, pd_face_count, pd_piece_count

HOPF = [[1, 3, 2, 4], [3, 1, 4, 2]]
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit


def encode(pd, framings, unknots=None, **extra):
    data = {"pd": pd, "framings": framings}
    if unknots is not None:
        data["unknots"] = unknots
    data.update(extra)
    return json.dumps(data).encode()


class TestParse:
    def test_hopf(self):
        link = parse_framed_link(encode(HOPF, [0, 0]))
        assert link.component_count() == 2
        assert link.components == ((1, 2), (3, 4))
        assert link.framings == (0, 0)

    def test_crossingless_unknot(self):
        link = parse_framed_link(encode([], [1], unknots=1))
        assert link.component_count() == 1
        assert link.components == ((),)

    def test_arc_appearing_once_rejected(self):
        with pytest.raises(InvalidPD):
            parse_framed_link(encode([[1, 3, 2, 4]], [0]))

    def test_framing_count_mismatch(self):
        with pytest.raises(FramingCountMismatch):
            parse_framed_link(encode(HOPF, [0]))

    def test_malformed_json(self):
        with pytest.raises(MalformedInput):
            parse_framed_link(b"{not json")

    @pytest.mark.parametrize("value", [
        b"[" * 100_000 + b"]" * 100_000,
        pytest.param(b"[[" + b"1" * (DIGIT_LIMIT + 1) + b"]]",
                     marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer string limit")),
    ], ids=["nested_too_deep", "integer_too_long"])
    def test_json_the_decoder_refuses(self, value):
        with pytest.raises(MalformedInput):
            parse_framed_link(b'{"pd": ' + value + b', "framings": []}')

    def test_malformed_schema(self):
        with pytest.raises(MalformedInput):
            parse_framed_link(b'{"pd": [], "framings": "zero"}')
        with pytest.raises(MalformedInput):
            parse_framed_link(encode(HOPF, [0, 0], bogus_key=1))

    def test_broken_under_strand_succession_rejected(self):
        with pytest.raises(InvalidPD):
            parse_framed_link(encode([[1, 2, 4, 3], [4, 1, 3, 2]], [0, 0]))

    def test_name_round_trip(self):
        link = parse_framed_link(encode(HOPF, [0, 0], name="hopf"))
        assert link.name == "hopf"
        assert link.as_dict()["name"] == "hopf"


class TestBuild:
    @pytest.mark.parametrize("bad", [0.5, 1.0, "1", None])
    def test_non_integer_framing_rejected(self, bad):
        with pytest.raises(MalformedInput):
            FramedLink.build([], unknots=1, framings=[bad])

    @pytest.mark.parametrize("bad", [1.0, "1", None])
    def test_non_integer_unknot_count_rejected(self, bad):
        with pytest.raises(MalformedInput):
            FramedLink.build([], unknots=bad, framings=[0])

    def test_bool_is_an_integer(self):
        assert FramedLink.build([], unknots=True, framings=[False]).framings == (0,)


class TestInputBoundary:
    """Parsing and `FramedLink.build` validate every code that comes in."""

    CASES = {
        "label_zero": ([[0, 3, 2, 4], [3, 1, 4, 2]], [0, 0], MalformedInput),
        "negative_label": ([[-1, 3, 2, 4], [3, 1, 4, 2]], [0, 0], MalformedInput),
        "label_above_2n": ([[1, 3, 2, 5], [3, 1, 4, 2]], [0, 0], InvalidPD),
        "float_label": ([[1.0, 3, 2, 4], [3, 1, 4, 2]], [0, 0], MalformedInput),
        "non_planar": ([[4, 3, 1, 2], [1, 3, 2, 4]], [1], InvalidPD),
        "broken_under_strand": ([[1, 2, 4, 3], [4, 1, 3, 2]], [0, 0], InvalidPD),
        # A planar Hopf link beside a virtual piece: 6 faces, 4 crossings and
        # 2 pieces, so a validator that counted one piece would accept it.
        "planar_beside_virtual": (
            [[1, 3, 2, 4], [3, 1, 4, 2], [8, 7, 5, 6], [5, 7, 6, 8]], [0, 0, 1], InvalidPD),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_parse_and_build_reject(self, case):
        pd, framings, error = self.CASES[case]
        with pytest.raises(error):
            parse_framed_link(encode(pd, framings))
        with pytest.raises(error):
            FramedLink.build(pd, framings=framings)

    @staticmethod
    def outcome(make):
        try:
            return make()
        except InputError as exc:
            return type(exc)

    def test_mutated_fixture_codes(self):
        """Seeded mutations of fixture codes: parsing and `FramedLink.build`
        agree on every one, every accepted code is planar by an independent
        face and piece count, and `alexander_polynomial` raises NotAKnot on
        an accepted code exactly when it has other than one component."""
        rng = random.Random(18)
        codes = [(list(link.crossings), len(link.framings)) for link in fixtures.corpus().values()
                 if link.crossings and not link.unknots]
        accepted = 0
        for _ in range(2000):
            code, m = rng.choice(codes)
            xs = [list(t) for t in code]
            for _ in range(rng.randint(1, 2)):
                k, kind = rng.randrange(len(xs)), rng.randrange(4)
                if kind == 0:  # swap two labels everywhere
                    x, y = rng.sample(range(1, 2 * len(code) + 1), 2)
                    xs = [[y if a == x else x if a == y else a for a in t] for t in xs]
                elif kind == 1:  # rotate one tuple
                    r = rng.randint(1, 3)
                    xs[k] = xs[k][r:] + xs[k][:r]
                elif kind == 2:  # swap two slots of one tuple
                    i, j = rng.sample(range(4), 2)
                    xs[k][i], xs[k][j] = xs[k][j], xs[k][i]
                elif len(xs) > 1:  # drop one crossing
                    del xs[k]
            parsed = self.outcome(lambda: parse_framed_link(encode(xs, [0] * m)))
            assert parsed == self.outcome(lambda: FramedLink.build(xs, framings=[0] * m)), xs
            if isinstance(parsed, FramedLink):
                accepted += 1
                assert pd_face_count(xs) == len(xs) + 2 * pd_piece_count(xs), xs
                not_a_knot = self.outcome(lambda: alexander_polynomial(parsed)) is NotAKnot
                assert not_a_knot == (parsed.component_count() != 1), xs
        assert accepted > 100

    def test_boolean_label_rejected_by_parse(self):
        with pytest.raises(MalformedInput):
            parse_framed_link(encode([[True, 3, 2, 4], [3, 1, 4, 2]], [0, 0]))

    def test_boolean_label_rejected_by_build(self):
        # as_dict would write it as JSON true, which parsing rejects
        with pytest.raises(MalformedInput):
            FramedLink.build([(True, 3, 2, 4), (3, 1, 4, 2)], framings=[0, 0])

    @pytest.mark.parametrize("name", [5, b"hopf", ["hopf"], True])
    def test_name_that_is_no_string_rejected_by_build(self, name):
        # as_dict would write it, and parsing rejects a name that is not a string
        with pytest.raises(MalformedInput):
            FramedLink.build([], 1, [0], name=name)

    def test_component_of_arc_out_of_range(self):
        link = FramedLink.build(HOPF, framings=[0, 0])
        assert [link.component_of_arc(a) for a in range(1, 5)] == [0, 0, 1, 1]
        for arc in (0, 5, 1.5):
            with pytest.raises(InvalidPD):
                link.component_of_arc(arc)
        unknots = FramedLink.build([], unknots=2, framings=[1, 1])
        for arc in (0, 1, 2):
            with pytest.raises(InvalidPD):
                unknots.component_of_arc(arc)


class TestCrossingSign:
    def test_hopf_positive(self):
        link = FramedLink.build(HOPF, framings=[0, 0])
        assert crossing_sign(link, 0) == 1
        assert crossing_sign(link, 1) == 1

    def test_mirror_hopf_negative(self):
        link = mirror(FramedLink.build(HOPF, framings=[0, 0]))
        assert crossing_sign(link, 0) == -1

    def test_kink_chiralities(self):
        positive = FramedLink.build([(1, 1, 2, 2)], framings=[0])
        negative = FramedLink.build([(1, 2, 2, 1)], framings=[0])
        assert crossing_sign(positive, 0) == 1
        assert crossing_sign(negative, 0) == -1

    def test_component_never_passing_under_enters_at_slot_3(self):
        # The second unknot only passes over, so the code leaves it unoriented.
        assert fixtures.overlapped_unknots(1, 1).over_in == (3, 1)

    def test_out_of_range(self):
        link = FramedLink.build(HOPF, framings=[0, 0])
        with pytest.raises(IndexOutOfRange):
            crossing_sign(link, 2)


class TestLinkingMatrix:
    def test_hopf(self):
        link = FramedLink.build(HOPF, framings=[0, 0])
        assert linking_matrix(link).entries == ((0, 1), (1, 0))

    def test_crossingless_unknot(self):
        link = FramedLink.build([], unknots=1, framings=[1])
        assert linking_matrix(link).entries == ((1,),)

    def test_split_unknots(self):
        link = FramedLink.build([], unknots=2, framings=[1, 1])
        assert linking_matrix(link).entries == ((1, 0), (0, 1))

    def test_symmetric_on_corpus(self):
        for link in corpus_links():
            v = linking_matrix(link)
            assert v.entries == tuple(tuple(r) for r in zip(*v.entries))

    def test_e8_plumbing(self):
        assert linking_matrix(e8_link()).entries == E8_MATRIX.entries

    def test_label_rotation_invariance(self):
        # Relabelling each component's cyclic block is another valid code
        # for the same link; linking data must not change.
        for link in [
            FramedLink.build(HOPF, framings=[0, 0]),
            fixtures.trefoil(1),
            fixtures.clasp_link(S([[1, 2], [2, 3]])),
            e8_link(),
        ]:
            rotated = rotate_labels(link)
            assert linking_matrix(rotated).entries == linking_matrix(link).entries


class TestUnimodular:
    def test_hopf_true(self):
        assert S([[0, 1], [1, 0]]).is_unimodular()

    def test_two_false(self):
        assert not S([[2]]).is_unimodular()

    def test_e8_true(self):
        assert E8_MATRIX.is_unimodular()

    def test_empty_true(self):
        assert S([]).is_unimodular()


class TestMirror:
    def test_unknot_framing_negated(self):
        link = FramedLink.build([], unknots=1, framings=[1])
        assert mirror(link).framings == (-1,)

    def test_hopf_negates_matrix(self):
        link = FramedLink.build(HOPF, framings=[0, 0])
        assert linking_matrix(mirror(link)).entries == ((0, -1), (-1, 0))

    def test_involution_on_corpus(self):
        for link in corpus_links():
            v = linking_matrix(link)
            assert linking_matrix(mirror(mirror(link))).entries == v.entries
            assert linking_matrix(mirror(link)).entries == tuple(
                tuple(-x for x in row) for row in v.entries
            )


def corpus_links():
    return [link for link in fixtures.corpus().values()]


def rotate_labels(link):
    """Shift every component's arc labels one step along the cycle."""
    new_label = {}
    for comp in link.components:
        if not comp:
            continue
        lo, hi = comp[0], comp[-1]
        for a in comp:
            new_label[a] = a + 1 if a < hi else lo
    xs = [tuple(new_label[a] for a in t) for t in link.crossings]
    return FramedLink.build(xs, unknots=link.unknots, framings=link.framings)


class TestReidemeisterPairs:
    def test_pairs_share_linking_matrices(self):
        c = fixtures.corpus()
        for i in (1, 2, 3):
            va = linking_matrix(c[f"rm{i}_a"])
            vb = linking_matrix(c[f"rm{i}_b"])
            assert va.entries == vb.entries, f"rm{i} pair disagrees"

    def test_pairs_differ_as_diagrams(self):
        c = fixtures.corpus()
        for i in (1, 2, 3):
            assert c[f"rm{i}_a"].crossings != c[f"rm{i}_b"].crossings
