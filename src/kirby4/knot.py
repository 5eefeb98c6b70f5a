"""Characteristic sublinks, band sums, and the Arf invariant via Fox calculus.

The band sum machinery works on a strand-level model of the diagram:
crossings hold working arc ids in their four slots, every arc knows its two
end slots, and components are cyclic arc sequences.  A component that
shares a crossing with the running knot is banded onto it in the face
corner between slots 0 and 1 of that crossing, which the two crossing arcs
bound, so the band meets no strand; it takes one half-twist crossing when
the over strand enters at slot 1.  A component sharing no crossing lies in
a separate diagram piece and is joined by a split fusion.  Each fusion thus
adds at most one crossing.  Deleting components and banding in a face
corner or between pieces keep a diagram planar and its labels in blocks, so
sublinks and band sums re-derive only their orientation; the component
search and face check are for codes read from input.

The Alexander polynomial, from which the knot determinant and the Arf
invariant are read, is one integer determinant by Kronecker substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Optional, Sequence

from .diagram import (
    Crossing,
    FramedLink,
    _check_planar,
    _normalize_crossings,
    _pd_components,
    _resolve_over_directions,
    _root,
    _successors,
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
    """A one-component diagram."""

    crossings: tuple[Crossing, ...]
    over_in: tuple[int, ...]

    @classmethod
    def build(cls, crossings) -> "KnotDiagram":
        """Validate a raw knot code as `FramedLink.build` does; a valid link raises NotAKnot."""
        xs = _normalize_crossings(crossings)
        comps = _pd_components(xs)
        _check_planar(xs)
        over_in = _resolve_over_directions(xs, _successors(comps, 2 * len(xs)))
        if xs and len(comps) != 1:
            raise NotAKnot(f"diagram has {len(comps)} components")
        return cls(xs, over_in)

    @classmethod
    def unknot(cls) -> "KnotDiagram":
        return cls((), ())


def characteristic_sublink(link: FramedLink, c: Sequence[int]) -> FramedLink:
    """The sub-diagram of the components marked 1 in the 0/1 vector c.

    Crossings touching a deleted component disappear, the surviving strands
    merge through them, and arcs are relabelled consecutively.  Components
    left with no crossings become explicit crossingless unknots.
    """
    try:
        cvec = tuple(map(index, c))
    except TypeError as exc:
        raise MalformedInput(f"characteristic vector entries must be integers: {exc}") from exc
    if len(cvec) != link.component_count():
        raise LengthMismatch(
            f"vector of length {len(cvec)} for {link.component_count()} components"
        )
    if any(x not in (0, 1) for x in cvec):
        raise MalformedInput("characteristic vector entries must be 0 or 1")

    xs, comp_of = link.crossings, link._arc_component
    surviving = []
    closes = [False] * len(comp_of)  # an old arc ends a new one at a surviving crossing
    for t, oi in zip(xs, link.over_in):
        if cvec[comp_of[t[0]]] and cvec[comp_of[t[1]]]:
            surviving.append(t)
            closes[t[0]] = closes[t[oi]] = True

    arc_map = [0] * len(comp_of)
    label = 1
    comps: list[tuple[int, ...]] = []
    kept_framings: list[int] = []
    unknot_framings: list[int] = []
    for i, x in enumerate(cvec):
        if not x:
            continue
        comp = link.components[i]
        cuts = [idx for idx, a in enumerate(comp) if closes[a]]
        if not cuts:
            unknot_framings.append(link.framings[i])
            continue
        kept_framings.append(link.framings[i])
        # One new arc per cut, numbered in traversal order.
        lo, start = label, cuts[-1] + 1
        for a in comp[start:] + comp[:start]:
            arc_map[a] = label
            label += closes[a]
        comps.append(tuple(range(lo, label)))
    new_crossings = tuple(
        (arc_map[a], arc_map[b], arc_map[c], arc_map[d]) for a, b, c, d in surviving
    )
    return FramedLink._derived(
        new_crossings, comps, len(unknot_framings), tuple(kept_framings + unknot_framings)
    )


class _Surgery:
    """Mutable strand-level diagram state used while banding components.

    Components are keyed by their place after `order`: the running knot is
    key 0, and every other key lasts until its component is banded onto it.
    Tables indexed by arc hold each arc's head and tail end, as (crossing,
    slot), and the key of the component it lies on.
    """

    def __init__(self, link: FramedLink, order):
        self.crossings: list[list[int]] = [list(t) for t in link.crossings]
        self.over_in: list[int] = list(link.over_in)
        size = 2 * len(link.crossings) + 1  # arcs are 1..2n; entry 0 is unused
        self.head: list = [None] * size
        self.tail: list = [None] * size
        for k, (t, oi) in enumerate(zip(link.crossings, link.over_in)):
            self.head[t[0]], self.tail[t[2]] = (k, 0), (k, 2)
            self.head[t[oi]], self.tail[t[4 - oi]] = (k, oi), (k, 4 - oi)
        comps = link.components if order is None else [link.components[i] for i in order]
        self.comps = {key: list(comp) for key, comp in enumerate(comps)}
        self.owner = [0] * size
        for key, comp in self.comps.items():
            for a in comp:
                self.owner[a] = key

    def fresh(self) -> int:
        self.head.append(None)
        self.tail.append(None)
        self.owner.append(0)
        return len(self.owner) - 1

    def rewire(self, pos: tuple[int, int], arc: int, ends: list) -> None:
        self.crossings[pos[0]][pos[1]] = arc
        ends[arc] = pos

    def absorb(self, cj: int) -> list[int]:
        """Remove component cj and hand its arcs to the running knot."""
        arcs = self.comps.pop(cj)
        for a in arcs:
            self.owner[a] = 0
        return arcs

    def join(self, cj: int, alpha: int, alphap: int, twist_in=None) -> None:
        """Band arc alpha of the running knot to arc alphap of component cj.

        The band sides replace both arcs: g runs from alpha's tail to
        alphap's head, h from alphap's tail to alpha's head.  With twist_in
        set, the sides cross once in a half-twist, h over g and entering at
        slot twist_in.
        """
        ta, ha = self.tail[alpha], self.head[alpha]
        tb, hb = self.tail[alphap], self.head[alphap]
        g, h = [self.fresh()], [self.fresh()]
        if twist_in is not None:
            g.append(self.fresh())
            h.insert(0, self.fresh())
            kt = len(self.crossings)
            self.crossings.append([0, 0, 0, 0])
            self.over_in.append(twist_in)
            self.rewire((kt, 0), g[0], self.head)
            self.rewire((kt, 2), g[1], self.tail)
            self.rewire((kt, twist_in), h[0], self.head)
            self.rewire((kt, 4 - twist_in), h[1], self.tail)
        self.rewire(ta, g[0], self.tail)
        self.rewire(hb, g[-1], self.head)
        self.rewire(tb, h[0], self.tail)
        self.rewire(ha, h[-1], self.head)
        a_arcs, b_arcs = self.comps[0], self.absorb(cj)
        ia, ib = a_arcs.index(alpha), b_arcs.index(alphap)
        self.comps[0] = g + b_arcs[ib + 1:] + b_arcs[:ib] + h + a_arcs[ia + 1:] + a_arcs[:ia]

    def fuse_trivial(self, cj: int, alpha, alphap) -> None:
        """Band component cj on, sharing no face with the running knot: a split fusion."""
        if not self.comps[cj]:
            del self.comps[cj]
        elif not self.comps[0]:
            self.comps[0] = self.absorb(cj)
        else:
            self.join(cj, alpha, alphap)

    def fuse_banded(self, cj: int, k: int) -> None:
        """Band component cj on in the face corner between slots 0 and 1 of crossing k.

        The arcs in slots 0 and 1, one from each component, bound that
        corner, so the band crosses no strand.  When the over strand enters
        at slot 1 both arcs run into the crossing, the corner lies on
        opposite sides of them, and the band takes a half-twist, whose
        chirality depends on which of the two arcs the running knot holds.
        """
        t = self.crossings[k]
        alpha, alphap = (t[0], t[1]) if self.owner[t[0]] == 0 else (t[1], t[0])
        twist_in = None
        if self.over_in[k] == 1:
            twist_in = 3 if alpha == t[1] else 1
        self.join(cj, alpha, alphap, twist_in)


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
    if order is not None and sorted(order) != list(range(sub.component_count())):
        raise MalformedInput("order must be a permutation of the components")
    if not sub.components:
        return KnotDiagram.unknot()
    st = _Surgery(sub, order)

    def pick(arcs):
        return sorted(arcs)[arc_offset % len(arcs)] if arcs else None

    owner = st.owner
    while len(st.comps) > 1:
        shared: dict[int, list[int]] = {}
        for k, t in enumerate(st.crossings):
            o, p = owner[t[0]], owner[t[1]]
            if o != p and not (o and p):  # exactly one strand on the running knot
                shared.setdefault(o or p, []).append(k)
        if shared:
            j = min(shared)
            st.fuse_banded(j, shared[j][arc_offset % len(shared[j])])
        else:
            j = min(st.comps.keys() - {0})
            st.fuse_trivial(j, pick(st.comps[0]), pick(st.comps[j]))

    cyc = st.comps[0]
    if not cyc:
        return KnotDiagram.unknot()
    start = cyc.index(min(cyc))
    label = [0] * len(owner)
    for i, a in enumerate(cyc[start:] + cyc[:start], 1):
        label[a] = i
    xs = tuple((label[a], label[b], label[c], label[d]) for a, b, c, d in st.crossings)
    # K_c is one cycle of labels 1..2n, so only its orientation is derived.
    over_in = _resolve_over_directions(xs, _successors([range(1, len(cyc) + 1)], len(cyc)))
    if over_in != tuple(st.over_in):
        raise InternalInvariantViolation("banded diagram signs disagree with construction")
    return KnotDiagram(xs, over_in)


# --- Alexander polynomial via the Wirtinger presentation and Fox calculus ---


def alexander_polynomial(k: KnotDiagram) -> dict[int, int]:
    """Alexander polynomial from Fox derivatives of the Wirtinger presentation.

    Returned as {exponent: coefficient} with no zero terms, and well-defined
    up to units +-t^k; the crossingless unknot gives {0: 1}.  Row i
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
        return {0: 1}
    parent = list(range(2 * n + 1))
    for t in k.crossings:
        ra, rb = _root(parent, t[1]), _root(parent, t[3])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    gens = sorted({_root(parent, a) for a in range(1, 2 * n + 1)})
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
            row[col[_root(parent, arc)]] += value
        minor.append(row[: n - 1])
    p = bareiss_det(minor)
    coeffs = {}
    for e in range(-shift, n - shift):
        digit = ((p + (x >> 1)) & (x - 1)) - (x >> 1)
        if digit:
            coeffs[e] = digit
        p = (p - digit) >> bits
    if p:
        raise InternalInvariantViolation("Alexander coefficient exceeds its Hadamard bound")
    return coeffs


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
    value = abs(sum(-c if e % 2 else c for e, c in alexander_polynomial(k).items()))
    if value % 2 == 0:
        raise InternalInvariantViolation(f"even knot determinant {value}")
    return value


def arf_invariant(k: KnotDiagram) -> int:
    """Arf invariant of a knot, from its determinant."""
    return _arf_from_determinant(alexander_at_minus_one(k))
