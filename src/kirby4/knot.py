"""Characteristic sublinks, band sums, and the Arf invariant via Fox calculus.

The band sum machinery works on a strand-level model of the diagram:
crossings hold working arc ids in their four slots, every arc knows its two
end slots, and components are cyclic arc sequences.  A component that
shares a crossing with the running knot is banded onto it in the face
corner between slots 0 and 1 of that crossing, which the two crossing arcs
bound, so the band meets no strand; it takes one half-twist crossing when
the over strand enters at slot 1.  A component sharing no crossing lies in
a separate diagram piece and is joined by a split fusion.  Each fusion thus
adds at most one crossing.

The Alexander polynomial, from which the knot determinant and the Arf
invariant are read, is one integer determinant by Kronecker substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .diagram import (
    Crossing,
    FramedLink,
    PDCode,
    _pd_components,
    _resolve_over_directions,
    _swap_over_under,
)
from .errors import (
    InternalInvariantViolation,
    LengthMismatch,
    MalformedInput,
    NotAKnot,
)
from .matrices import bareiss_det


@dataclass(frozen=True)
class KnotDiagram:
    """A one-component diagram plus a record of how it was produced."""

    pd: PDCode
    over_in: tuple[int, ...]
    derivation: tuple[str, ...] = ()

    @classmethod
    def build(cls, crossings, derivation: tuple[str, ...] = ()) -> "KnotDiagram":
        xs = tuple(tuple(int(x) for x in t) for t in crossings)
        comps, succ = _pd_components(xs)
        if xs and len(comps) != 1:
            raise NotAKnot(f"diagram has {len(comps)} components")
        over_in = _resolve_over_directions(xs, succ)
        return cls(PDCode(xs, 2 * len(xs)), over_in, derivation)

    @classmethod
    def unknot(cls, derivation: tuple[str, ...] = ()) -> "KnotDiagram":
        return cls(PDCode((), 0), (), derivation)

    @property
    def crossings(self) -> tuple[Crossing, ...]:
        return self.pd.crossings


@dataclass(frozen=True)
class IntPolynomial:
    """Laurent polynomial in t with integer coefficients; no zero terms stored."""

    coeffs: tuple[tuple[int, int], ...]  # sorted (exponent, coefficient) pairs

    @classmethod
    def from_map(cls, d: dict[int, int]) -> "IntPolynomial":
        return cls(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    def as_map(self) -> dict[int, int]:
        return dict(self.coeffs)

    def at_minus_one(self) -> int:
        return sum(-c if e % 2 else c for e, c in self.coeffs)


def mirror_knot(k: KnotDiagram) -> KnotDiagram:
    """Swap over and under strands at every crossing of a knot diagram."""
    new = _swap_over_under(k.crossings, k.over_in)
    return KnotDiagram.build(new, derivation=k.derivation + ("mirrored",))


def _arc_ends(crossings, over_in):
    """Map each arc to its head (incoming) and tail (outgoing) end slots."""
    ends: dict[int, dict[str, tuple[int, int]]] = {}
    for k, t in enumerate(crossings):
        oi = over_in[k]
        oo = 4 - oi
        for kind, slot in (("head", 0), ("tail", 2), ("head", oi), ("tail", oo)):
            ends.setdefault(t[slot], {})[kind] = (k, slot)
    return ends


def characteristic_sublink(link: FramedLink, c: Sequence[int]) -> FramedLink:
    """The sub-diagram of the components marked 1 in the 0/1 vector c.

    Crossings touching a deleted component disappear, the surviving strands
    merge through them, and arcs are relabelled consecutively.  Components
    left with no crossings become explicit crossingless unknots.
    """
    cvec = tuple(int(x) for x in c)
    if len(cvec) != link.component_count():
        raise LengthMismatch(
            f"vector of length {len(cvec)} for {link.component_count()} components"
        )
    if any(x not in (0, 1) for x in cvec):
        raise MalformedInput("characteristic vector entries must be 0 or 1")
    keep = {i for i, x in enumerate(cvec) if x == 1}

    surviving = []
    for k, t in enumerate(link.crossings):
        cu = link.component_of_arc(t[0])
        co = link.component_of_arc(t[1])
        if cu in keep and co in keep:
            surviving.append(k)
    surv = set(surviving)
    ends = _arc_ends(link.crossings, link.over_in)

    arc_map: dict[int, int] = {}
    next_label = 1
    kept_framings: list[int] = []
    unknot_framings: list[int] = []
    for i in sorted(keep):
        comp = link.components[i]
        if not comp:
            unknot_framings.append(link.framings[i])
            continue
        boundaries = [idx for idx, a in enumerate(comp) if ends[a]["head"][0] in surv]
        if not boundaries:
            unknot_framings.append(link.framings[i])
            continue
        kept_framings.append(link.framings[i])
        # One new arc per surviving boundary, walked in traversal order.
        m = len(comp)
        for bpos in range(len(boundaries)):
            start = (boundaries[bpos - 1] + 1) % m
            end = boundaries[bpos]
            idx = start
            while True:
                arc_map[comp[idx]] = next_label + bpos
                if idx == end:
                    break
                idx = (idx + 1) % m
        next_label += len(boundaries)
    new_crossings = [
        tuple(arc_map[a] for a in link.crossings[k]) for k in surviving
    ]
    return FramedLink.build(
        new_crossings,
        unknots=len(unknot_framings),
        framings=kept_framings + unknot_framings,
        name=None,
    )


class _Surgery:
    """Mutable strand-level diagram state used while banding components."""

    def __init__(self, link: FramedLink):
        self.crossings: list[list[int]] = [list(t) for t in link.crossings]
        self.over_in: list[int] = list(link.over_in)
        self.ends = _arc_ends(link.crossings, link.over_in)
        self.comps: list[list[int]] = [list(c) for c in link.components]
        self._next = link.pd.arc_count + 1
        self.derivation: list[str] = []

    def fresh(self) -> int:
        a = self._next
        self._next += 1
        return a

    def rewire(self, pos: tuple[int, int], arc: int, kind: str) -> None:
        self.crossings[pos[0]][pos[1]] = arc
        self.ends.setdefault(arc, {})[kind] = pos

    def join(self, ci: int, cj: int, alpha: int, alphap: int, twist_in=None) -> None:
        """Band arc alpha of component ci to arc alphap of component cj.

        The band sides replace both arcs: g runs from alpha's tail to
        alphap's head, h from alphap's tail to alpha's head.  With twist_in
        set, the sides cross once in a half-twist, h over g and entering at
        slot twist_in.
        """
        ta, ha = self.ends[alpha]["tail"], self.ends[alpha]["head"]
        tb, hb = self.ends[alphap]["tail"], self.ends[alphap]["head"]
        g, h = [self.fresh()], [self.fresh()]
        if twist_in is not None:
            g.append(self.fresh())
            h.insert(0, self.fresh())
            kt = len(self.crossings)
            self.crossings.append([0, 0, 0, 0])
            self.over_in.append(twist_in)
            self.rewire((kt, 0), g[0], "head")
            self.rewire((kt, 2), g[1], "tail")
            self.rewire((kt, twist_in), h[0], "head")
            self.rewire((kt, 4 - twist_in), h[1], "tail")
        self.rewire(ta, g[0], "tail")
        self.rewire(hb, g[-1], "head")
        self.rewire(tb, h[0], "tail")
        self.rewire(ha, h[-1], "head")
        a_arcs, b_arcs = self.comps[ci], self.comps[cj]
        ia, ib = a_arcs.index(alpha), b_arcs.index(alphap)
        rot_a = a_arcs[ia:] + a_arcs[:ia]
        rot_b = b_arcs[ib:] + b_arcs[:ib]
        self.comps[ci] = g + rot_b[1:] + h + rot_a[1:]
        del self.comps[cj]

    def fuse_trivial(self, ci: int, cj: int, alpha, alphap) -> None:
        """Band two components whose diagrams share no face: a split fusion."""
        a_arcs, b_arcs = self.comps[ci], self.comps[cj]
        if not b_arcs:
            self.derivation.append("absorbed crossingless unknot")
            del self.comps[cj]
            return
        if not a_arcs:
            self.derivation.append("absorbed crossingless unknot")
            self.comps[ci] = b_arcs
            del self.comps[cj]
            return
        self.join(ci, cj, alpha, alphap)
        self.derivation.append(f"split fusion at arcs ({alpha},{alphap})")

    def fuse_banded(self, ci: int, cj: int, k: int) -> None:
        """Band two components in the face corner between slots 0 and 1 of crossing k.

        The arcs in slots 0 and 1, one from each component, bound that
        corner, so the band crosses no strand.  When the over strand enters
        at slot 1 both arcs run into the crossing, the corner lies on
        opposite sides of them, and the band takes a half-twist, whose
        chirality depends on which of the two arcs the running knot holds.
        """
        t = self.crossings[k]
        alpha, alphap = (t[0], t[1]) if t[0] in self.comps[ci] else (t[1], t[0])
        twist_in = None
        if self.over_in[k] == 1:
            twist_in = 3 if alpha == t[1] else 1
        self.join(ci, cj, alpha, alphap, twist_in)
        self.derivation.append(
            f"banded fusion at crossing {k}, arcs ({alpha},{alphap}),"
            f" half-twist={'no' if twist_in is None else 'yes'}"
        )


def band_sum(
    sub: FramedLink,
    *,
    order: Optional[Sequence[int]] = None,
    arc_offset: int = 0,
) -> KnotDiagram:
    """Join all components of a diagram into one knot by band sums.

    The first component is the running knot.  Each step bands onto it the
    earliest remaining component that shares a crossing with it, at one of
    their shared crossings, which adds at most one crossing; a component
    sharing none is joined by a split fusion at one arc of each side.
    `order` permutes the components first, which picks the starting
    component and the preference among candidates; `arc_offset` rotates the
    shared crossing used (in crossing order), or the attachment arcs of a
    split fusion (in arc order).  Any choice yields a valid band sum, so
    invariants downstream must not depend on it.  The empty diagram yields
    the crossingless unknot.
    """
    st = _Surgery(sub)
    if order is not None:
        if sorted(order) != list(range(len(st.comps))):
            raise MalformedInput("order must be a permutation of the components")
        st.comps = [st.comps[i] for i in order]
        st.derivation.append(f"component order {list(order)}")
    if not st.comps:
        return KnotDiagram.unknot(derivation=("empty sublink represents the unknot",))

    def pick(arcs):
        return sorted(arcs)[arc_offset % len(arcs)] if arcs else None

    while len(st.comps) > 1:
        owner = {a: i for i, comp in enumerate(st.comps) for a in comp}
        shared: dict[int, list[int]] = {}
        for k, t in enumerate(st.crossings):
            pair = {owner[t[0]], owner[t[1]]}
            if 0 in pair and len(pair) == 2:
                shared.setdefault(max(pair), []).append(k)
        if shared:
            j = min(shared)
            st.fuse_banded(0, j, shared[j][arc_offset % len(shared[j])])
        else:
            st.fuse_trivial(0, 1, pick(st.comps[0]), pick(st.comps[1]))

    cyc = st.comps[0]
    if not cyc:
        return KnotDiagram.unknot(derivation=tuple(st.derivation))
    start = cyc.index(min(cyc))
    cyc = cyc[start:] + cyc[:start]
    label = {arc: i + 1 for i, arc in enumerate(cyc)}
    tuples = [tuple(label[a] for a in t) for t in st.crossings]
    kd = KnotDiagram.build(tuples, derivation=tuple(st.derivation))
    if kd.over_in != tuple(st.over_in):
        raise InternalInvariantViolation("banded diagram signs disagree with construction")
    return kd


# --- Alexander polynomial via the Wirtinger presentation and Fox calculus ---


def alexander_polynomial(k: KnotDiagram) -> IntPolynomial:
    """Alexander polynomial from Fox derivatives of the Wirtinger presentation.

    Well-defined up to units +-t^k; the crossingless unknot gives 1.  Row i
    of the matrix is crossing i: t, 1 - t, -1 at its incoming under, over and
    outgoing under generators if it is positive, t^-1, 1 - t^-1, -1 if not.
    Delta is the minor without the last row and column.

    Kronecker substitution makes it one integer determinant.  The `shift`
    negative rows times t read 1, t - 1, -t, so the minor's determinant is
    P(t) = t^shift Delta(t) of degree < n.  On |t| = 1 every row has squared
    norm <= 1 + 4 + 1 = 6 (the under generators differ for n >= 2, and an
    over generator equal to one of them merges two entries into 1, t, -t or
    -1), so by Hadamard's inequality |P| <= 6^((n-1)/2) there, and so is
    every coefficient of P, a mean of P(t) t^-j over the circle.  That is
    below 2^(B-1) for B = bit_length(6^(n-1)) // 2 + 2, so the balanced
    base-2^B digits of P(2^B), lowest first, are the coefficients of
    t^-shift, t^(1-shift), ... of Delta.
    """
    n = len(k.crossings)
    if n == 0:
        return IntPolynomial.from_map({0: 1})
    parent = list(range(2 * n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for t in k.crossings:
        ra, rb = find(t[1]), find(t[3])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    gens = sorted({find(a) for a in range(1, 2 * n + 1)})
    col = {g: i for i, g in enumerate(gens)}
    if len(gens) != n:
        raise InternalInvariantViolation(
            f"{len(gens)} Wirtinger generators for {n} crossings"
        )
    bits = (6 ** (n - 1)).bit_length() // 2 + 2
    x = 1 << bits
    shift, minor = 0, []
    for t, oi in zip(k.crossings[: n - 1], k.over_in):
        if oi == 3:
            terms = ((t[0], x), (t[1], 1 - x), (t[2], -1))
        else:
            terms = ((t[0], 1), (t[1], x - 1), (t[2], -x))
            shift += 1
        row = [0] * n
        for arc, value in terms:
            row[col[find(arc)]] += value
        minor.append(row[: n - 1])
    p = bareiss_det(minor)
    coeffs = {}
    for e in range(-shift, n - shift):
        coeffs[e] = digit = ((p + (x >> 1)) & (x - 1)) - (x >> 1)
        p = (p - digit) >> bits
    if p:
        raise InternalInvariantViolation("Alexander coefficient exceeds its Hadamard bound")
    return IntPolynomial.from_map(coeffs)


def _arf_from_determinant(d: int) -> int:
    """Arf invariant from the knot determinant: 1 or 7 mod 8 gives 0, 3 or 5 give 1."""
    d %= 8
    if d in (1, 7):
        return 0
    if d in (3, 5):
        return 1
    raise InternalInvariantViolation(f"knot determinant is {d} mod 8")


def alexander_at_minus_one(k: KnotDiagram) -> int:
    """The knot determinant |Delta(-1)|; always an odd positive integer."""
    value = abs(alexander_polynomial(k).at_minus_one())
    if value % 2 == 0:
        raise InternalInvariantViolation(f"even knot determinant {value}")
    return value


def arf_invariant(k: KnotDiagram) -> int:
    """Arf invariant of a knot, from its determinant."""
    return _arf_from_determinant(alexander_at_minus_one(k))
