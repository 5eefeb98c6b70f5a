"""Framed link diagrams: PD codes, crossing signs, linking matrices, mirrors.

PD convention: each crossing is a 4-tuple of arc labels listed
counterclockwise starting from the incoming under-strand, so slot 0 is the
incoming under-arc and slot 2 the outgoing under-arc; the over-strand
occupies slots 1 and 3.  Arc labels run 1..N and are consecutive along each
component in traversal order, which is how orientation is encoded.
Crossingless unknot components cannot be expressed in a PD code, so a
framed link carries an explicit count of them, listed after the PD
components.  A knot is a framed link with one component.  A code must be
planar; `FramedLink.build` and `parse_framed_link` count its faces and
reject a virtual diagram.  Only a code that comes in is validated: mirrors,
sublinks and band sums are derived from a validated link and keep it
planar, so they skip the label, component and face checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import index
from typing import Optional

from .errors import (
    FramingCountMismatch,
    IndexOutOfRange,
    InvalidPD,
    MalformedInput,
)
from .matrices import SymIntMatrix

Crossing = tuple[int, int, int, int]


@dataclass(frozen=True)
class FramedLink:
    """An ordered, oriented link diagram with one integer framing per component.

    `components` lists each component's arcs in traversal order (empty tuple
    for a crossingless unknot; those come last).  `over_in` records, for each
    crossing, which over-slot (1 or 3) the over-strand enters through; it is
    derived during validation and determines every crossing sign.
    """

    crossings: tuple[Crossing, ...]
    unknots: int
    framings: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    over_in: tuple[int, ...]
    name: Optional[str] = None

    @classmethod
    def build(cls, crossings, unknots: int = 0, framings=(), name: Optional[str] = None) -> "FramedLink":
        """Validate a raw PD code and assemble the link with derived data."""
        xs = _normalize_crossings(crossings)
        try:
            unknots, framings = index(unknots), tuple(map(index, framings))
        except TypeError as exc:
            raise MalformedInput(f"unknots and framings must be integers: {exc}") from exc
        return cls._validated(xs, unknots, framings, name)

    @classmethod
    def _validated(cls, xs, unknots: int, framings: tuple[int, ...], name) -> "FramedLink":
        """Validate a code whose labels are known to be positive integers."""
        if unknots < 0:
            raise MalformedInput("unknot count must be non-negative")
        comps = _pd_components(xs)
        _check_planar(xs)
        return cls._derived(xs, comps, unknots, framings, name)

    @classmethod
    def _derived(cls, xs, comps, unknots: int, framings: tuple[int, ...],
                 name=None) -> "FramedLink":
        """Assemble a link from a planar code whose PD components are `comps`.

        Only the orientation is derived here, from the label order of
        `comps`, which checks every strand's succession and that each arc
        has one incoming end.
        """
        over_in = _resolve_over_directions(xs, comps)
        total = len(comps) + unknots
        if len(framings) != total:
            raise FramingCountMismatch(
                f"{len(framings)} framings for {total} components"
            )
        components = tuple(comps) + ((),) * unknots
        return cls(xs, unknots, framings, components, over_in, name)

    def component_count(self) -> int:
        return len(self.components)

    @cached_property
    def _arc_component(self) -> list[int]:
        """Component index of every arc 1..2n; entry 0 is unused."""
        table = [-1] * (2 * len(self.crossings) + 1)
        for i, comp in enumerate(self.components):
            for a in comp:
                table[a] = i
        return table

    def component_of_arc(self, arc: int) -> int:
        if not (isinstance(arc, int) and 0 < arc <= 2 * len(self.crossings)):
            raise InvalidPD(f"arc {arc} belongs to no component")
        return self._arc_component[arc]

    def as_dict(self) -> dict:
        data = {
            "pd": [list(t) for t in self.crossings],
            "unknots": self.unknots,
            "framings": list(self.framings),
        }
        if self.name is not None:
            data["name"] = self.name
        return data


def _normalize_crossings(crossings) -> tuple[Crossing, ...]:
    xs = []
    for t in crossings:
        t = tuple(t)
        if len(t) != 4 or not all(isinstance(x, int) and x >= 1 for x in t):
            raise MalformedInput(f"crossing {t!r} is not a 4-tuple of positive arcs")
        xs.append(t)
    return tuple(xs)


def _root(parent: list[int], a: int) -> int:
    """The union-find root of `a`, halving the path on the way."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _pd_components(xs: tuple[Crossing, ...]) -> list[tuple[int, ...]]:
    """Partition arcs into components, each in label order.

    Arcs must be exactly 1..2n, each appearing twice, and a component's
    labels must form one consecutive block.  `_resolve_over_directions`
    checks each strand's label succession.
    """
    if not xs:
        return []
    counts: dict[int, int] = {}
    for t in xs:
        for a in t:
            counts[a] = counts.get(a, 0) + 1
    n_arcs = 2 * len(xs)
    for a in range(1, n_arcs + 1):
        if counts.get(a, 0) != 2:
            raise InvalidPD(f"arc {a} appears {counts.get(a, 0)} times, expected 2")

    # Strand continuity: the two arcs of a passage belong to one component.
    parent = list(range(n_arcs + 1))
    for a, b, c, d in xs:
        parent[_root(parent, a)] = _root(parent, c)
        parent[_root(parent, b)] = _root(parent, d)

    # Arcs are visited in increasing order, so each group is sorted and the
    # groups come out ordered by their smallest arc.
    groups: dict[int, list[int]] = {}
    for a in range(1, n_arcs + 1):
        groups.setdefault(_root(parent, a), []).append(a)
    comps = list(groups.values())
    for comp in comps:
        if comp[-1] - comp[0] + 1 != len(comp):
            raise InvalidPD(f"component arcs {comp} are not a consecutive block")
    return [tuple(c) for c in comps]


def _check_planar(xs: tuple[Crossing, ...]) -> None:
    """Reject a PD code whose crossings and arcs do not form a plane diagram.

    A corner is a (crossing, slot) pair.  Going from a corner along its arc
    to the arc's other end and turning one slot counterclockwise there walks
    the corners of one face.  By Euler's formula a connected piece with v
    crossings and 2v arcs lies in the plane exactly when it has v + 2 faces,
    and no piece has more, so the code is planar iff F = n + 2 * pieces.
    The loop that pairs the two corners of each arc also joins their
    crossings, so the pieces are the union-find roots left.  The arc labels
    must already be known to be 1..2n, each used twice.
    """
    n = len(xs)
    first, mate = [-1] * (2 * n + 1), [0] * (4 * n)
    parent = list(range(n))  # crossings joined by an arc
    for corner, arc in enumerate(chain.from_iterable(xs)):
        other = first[arc]
        if other < 0:
            first[arc] = corner
        else:
            mate[corner], mate[other] = other, corner
            parent[_root(parent, corner // 4)] = _root(parent, other // 4)
    pieces = sum(parent[k] == k for k in range(n))
    faces = 0
    unseen = [True] * (4 * n)
    for start in range(4 * n):
        faces += unseen[start]
        corner = start
        while unseen[corner]:
            unseen[corner] = False
            end = mate[corner]
            corner = end + 1 if end % 4 != 3 else end - 3
    if faces != n + 2 * pieces:
        raise InvalidPD(f"not a planar diagram: {faces} faces, {n} crossings, {pieces} pieces")


def _resolve_over_directions(xs: tuple[Crossing, ...], comps) -> tuple[int, ...]:
    """Decide, per crossing, whether the over-strand enters at slot 1 or 3.

    Each PD component in `comps` is one consecutive block of labels, whose
    last label is followed by its first.  Every strand must follow this
    label succession: the under-strand runs a -> c, and succession settles
    a crossing when exactly one of b -> d, d -> b follows it.  When both
    do, the strand lies on a one- or two-arc component; walking these
    crossings in order, it enters by the arc with no incoming end yet, or
    at slot 3 if neither has one (a component that never passes under is
    unoriented by the code, and the choice cannot affect any linking
    number).  Each arc must get exactly one incoming end.
    """
    succ = list(range(1, 2 * len(xs) + 2))
    for comp in comps:
        succ[comp[-1]] = comp[0]
    heads = [0] * (2 * len(xs) + 1)  # incoming ends seen per arc
    over_in = [0] * len(xs)  # 0 until settled
    for k, (a, b, c, d) in enumerate(xs):
        if succ[a] != c:
            raise InvalidPD(f"under-strand {a}->{c} breaks label succession")
        heads[a] += 1
        fwd_b, fwd_d = succ[b] == d, succ[d] == b
        if not (fwd_b or fwd_d):
            raise InvalidPD(f"over-strand at crossing {k} breaks label succession")
        if fwd_b != fwd_d:
            over_in[k] = 1 if fwd_b else 3
            heads[b if fwd_b else d] += 1
    for k, t in enumerate(xs):
        if not over_in[k]:
            over_in[k] = 1 if heads[t[3]] and not heads[t[1]] else 3
            heads[t[over_in[k]]] += 1
    if any(h != 1 for h in heads[1:]):
        raise InvalidPD("an arc cannot have two incoming or two outgoing ends")
    return tuple(over_in)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # JSON true is no number


def parse_framed_link(text: bytes) -> FramedLink:
    """Parse the JSON framed-link file format.

    Schema: {"pd": [[a,b,c,d], ...], "unknots": k (optional, default 0),
    "framings": [f_1, ..., f_m], "name": string (optional)}.
    """
    try:
        data = json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too many digits
        raise MalformedInput(f"not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedInput("top-level JSON value must be an object")
    unknown = set(data) - {"pd", "unknots", "framings", "name"}
    if unknown:
        raise MalformedInput(f"unknown keys: {sorted(unknown)}")
    pd = data.get("pd")
    framings = data.get("framings")
    unknots = data.get("unknots", 0)
    name = data.get("name")
    if not isinstance(pd, list) or not all(isinstance(t, list) for t in pd):
        raise MalformedInput('"pd" must be a list of 4-element lists')
    if not isinstance(framings, list) or not all(_is_int(f) for f in framings):
        raise MalformedInput('"framings" must be a list of integers')
    if not _is_int(unknots):
        raise MalformedInput('"unknots" must be an integer')
    if name is not None and not isinstance(name, str):
        raise MalformedInput('"name" must be a string')
    for t in pd:  # JSON gives exact ints, and type() rules out true and false
        if len(t) != 4 or not all(type(x) is int and x >= 1 for x in t):
            raise MalformedInput(f"crossing {t!r} is not a 4-list of positive integers")
    return FramedLink._validated(tuple(map(tuple, pd)), unknots, tuple(framings), name)


def crossing_sign(link: FramedLink, crossing_index: int) -> int:
    """Sign of a crossing: +1 when the over-strand enters at slot 3."""
    if not 0 <= crossing_index < len(link.crossings):
        raise IndexOutOfRange(f"crossing {crossing_index} out of range")
    return 1 if link.over_in[crossing_index] == 3 else -1


def linking_matrix(link: FramedLink) -> SymIntMatrix:
    """Framings on the diagonal, pairwise linking numbers off it.

    lk(L_i, L_j) is half the signed count of crossings between components i
    and j; an odd count means the code is corrupt.
    """
    m = link.component_count()
    comp = link._arc_component
    sums = [[0] * m for _ in range(m)]
    for t, oi in zip(link.crossings, link.over_in):
        cu, co = comp[t[0]], comp[t[1]]
        if cu != co:
            s = 1 if oi == 3 else -1
            sums[cu][co] += s
            sums[co][cu] += s
    entries = [[0] * m for _ in range(m)]
    for i in range(m):
        entries[i][i] = link.framings[i]
        for j in range(i + 1, m):
            if sums[i][j] % 2 != 0:
                raise InvalidPD(
                    f"odd signed crossing count {sums[i][j]} between components {i} and {j}"
                )
            entries[i][j] = entries[j][i] = sums[i][j] // 2
    return SymIntMatrix.from_rows(entries)


def mirror(link: FramedLink) -> FramedLink:
    """Swap over/under at every crossing and negate all framings.

    Each tuple is rotated so that the old incoming over-arc becomes the new
    incoming under-arc, which keeps every strand's orientation intact; the
    linking matrix of the result is the negation of the original.  The
    rotation keeps each crossing's counterclockwise order and the labels,
    so the mirror is planar with the same components.
    """
    xs = tuple(
        (d, a, b, c) if oi == 3 else (b, c, d, a)
        for (a, b, c, d), oi in zip(link.crossings, link.over_in)
    )
    return FramedLink._derived(
        xs,
        link.components[: len(link.components) - link.unknots],
        link.unknots,
        tuple(-f for f in link.framings),
        link.name,
    )
