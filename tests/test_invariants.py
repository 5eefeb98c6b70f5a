"""Manifold invariant pipeline: intersection form and Kirby-Siebenmann."""

import pytest

from kirby4.diagram import FramedLink, mirror
from kirby4.errors import NotUnimodular
from kirby4.fixtures import (
    E8_MATRIX,
    clasp_link,
    corpus,
    e8_link,
    hopf_link,
    insert_kink,
    split_union,
    tie_trefoil,
    trefoil,
    unknot,
)
from kirby4.invariants import intersection_form, kirby_siebenmann

from conftest import S


class TestIntersectionForm:
    def test_cp2(self):
        assert intersection_form(unknot(1)).entries == ((1,),)

    def test_s2xs2(self):
        assert intersection_form(hopf_link(0, 0)).entries == ((0, 1), (1, 0))

    def test_non_unimodular_rejected(self):
        with pytest.raises(NotUnimodular):
            intersection_form(unknot(2))


class TestKirbySiebenmann:
    def test_cp2(self):
        inv = kirby_siebenmann(unknot(1))
        assert (inv.ks, inv.signature, inv.characteristic, inv.arf) == (0, 1, (1,), 0)
        assert inv.knot_determinant == 1

    def test_chern_manifold(self):
        inv = kirby_siebenmann(trefoil(1))
        assert (inv.ks, inv.signature, inv.characteristic, inv.arf) == (1, 1, (1,), 1)
        assert inv.knot_determinant == 3

    def test_e8_manifold(self):
        inv = kirby_siebenmann(e8_link())
        assert inv.form.entries == E8_MATRIX.entries
        assert inv.signature == 8
        assert inv.characteristic == (0,) * 8
        assert (inv.arf, inv.ks) == (0, 1)

    def test_s4(self):
        inv = kirby_siebenmann(FramedLink.build([], framings=[]))
        assert (inv.ks, inv.signature) == (0, 0)

    def test_tying_trefoil_into_characteristic_component_flips_ks(self):
        base = clasp_link(S([[1, 2], [2, 3]]))
        tied = tie_trefoil(base, 0)
        assert kirby_siebenmann(tied).ks == 1 - kirby_siebenmann(base).ks

    def test_even_forms_use_signature_only(self):
        for link in (hopf_link(0, 0), e8_link(), tie_trefoil(e8_link(), 0)):
            inv = kirby_siebenmann(link)
            if all(x % 2 == 0 for x in inv.form.diagonal()):
                assert inv.ks == (inv.signature // 8) % 2

    def test_mirror_preserves_ks(self):
        for name, link in corpus().items():
            if name.startswith("invalid"):
                continue
            assert kirby_siebenmann(mirror(link)).ks == kirby_siebenmann(link).ks, name

    @staticmethod
    def seeded_chains(seed, count):
        """Clasp chains with unimodular linking matrices, some with a trefoil
        tied in and some with kinks of either sign."""
        import random

        from kirby4.matrices import bareiss_det

        rng = random.Random(seed)
        while count:
            n = rng.randrange(2, 6)
            rows = [[rng.randrange(-3, 4) if i == j else 0 for j in range(n)] for i in range(n)]
            for j in range(1, n):
                rows[j - 1][j] = rows[j][j - 1] = rng.choice([1, -1])
            if abs(bareiss_det([r[:] for r in rows])) != 1:
                continue
            link = clasp_link(S(rows))
            if rng.random() < 0.4:
                link = tie_trefoil(link, rng.randrange(n))
            for _ in range(rng.randrange(3)):
                link = insert_kink(link, rng.randint(1, 2 * len(link.crossings)),
                                   rng.choice([1, -1]))
            yield link
            count -= 1

    def test_mirror_invariants_follow_from_the_links_own(self):
        # -M has form -V, so sigma is negated; ks, the characteristic vector,
        # Arf and the knot determinant are the same
        links = [link for name, link in corpus().items() if not name.startswith("invalid")]
        for link in links + list(self.seeded_chains(23, 60)):
            inv, mir = kirby_siebenmann(link), kirby_siebenmann(mirror(link))
            assert mir.form.rows() == [[-x for x in row] for row in inv.form.rows()], link
            assert mir.signature == -inv.signature, link
            assert (mir.ks, mir.characteristic, mir.arf, mir.knot_determinant) == (
                inv.ks, inv.characteristic, inv.arf, inv.knot_determinant), link

    def test_reidemeister_pairs_share_all_invariants(self):
        # same framed link drawn differently: identical invariant bundles
        c = corpus()
        for i in (1, 2, 3):
            a = kirby_siebenmann(c[f"rm{i}_a"])
            b = kirby_siebenmann(c[f"rm{i}_b"])
            assert a.form.entries == b.form.entries
            assert (a.ks, a.signature, a.arf, a.knot_determinant) == (
                b.ks,
                b.signature,
                b.arf,
                b.knot_determinant,
            ), f"rm{i}"

    def test_ks_additive_under_split_union(self):
        # disjoint diagrams present connected sums, where ks adds mod 2
        cases = [
            (unknot(1), trefoil(1)),
            (trefoil(1), trefoil(1)),
            (e8_link(), trefoil(1)),
            (clasp_link(S([[1, 2], [2, 3]])), unknot(1)),
            (hopf_link(0, 0), trefoil(1)),
        ]
        for a, b in cases:
            total = kirby_siebenmann(split_union(a, b)).ks
            assert total == (kirby_siebenmann(a).ks + kirby_siebenmann(b).ks) % 2

    def test_random_clasp_manifolds(self):
        # random unimodular clasp forests, some with a trefoil tied in:
        # ks must survive mirroring and add under split union with Chern
        import random

        from kirby4.matrices import bareiss_det

        rng = random.Random(17)
        chern_ks = kirby_siebenmann(trefoil(1)).ks
        tested = 0
        while tested < 60:
            n = rng.randrange(2, 5)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.randrange(-4, 5)
            for j in range(1, n):
                i = rng.randrange(0, j)
                w = rng.choice([1, 1, 2, -1, -2])
                rows[i][j] = rows[j][i] = w
            if abs(bareiss_det([r[:] for r in rows])) != 1:
                continue
            link = clasp_link(S(rows))
            if rng.random() < 0.3:
                link = tie_trefoil(link, rng.randrange(n))
            inv = kirby_siebenmann(link)
            assert kirby_siebenmann(mirror(link)).ks == inv.ks
            union = split_union(link, trefoil(1))
            assert kirby_siebenmann(union).ks == (inv.ks + chern_ks) % 2
            tested += 1

    def test_divisibility_assembled(self):
        for name, link in corpus().items():
            if name.startswith("invalid"):
                continue
            inv = kirby_siebenmann(link)
            v, c = inv.form, inv.characteristic
            cvc = sum(c[i] * v[i][j] * c[j] for i in range(v.n) for j in range(v.n))
            assert (cvc - inv.signature) % 8 == 0
            assert inv.ks == (inv.arf + (cvc - inv.signature) // 8) % 2
