"""Characteristic sublinks, band sums, and the Arf invariant via Fox calculus.

A knot is a `FramedLink` with one component.  A band sum fuses the
components of a diagram into one knot: it smooths crossings between
components and joins separate diagram pieces by swapping two arcs' head
slots.  Deleting components, smoothing and split fusions keep a diagram
planar, so sublinks and band sums re-derive only their orientation; the
component search and face check of `FramedLink.build` are for codes read
from input.

The Alexander polynomial, from which the knot determinant and the Arf
invariant are read, is one integer determinant by Kronecker substitution.
"""

from __future__ import annotations

from operator import index
from typing import Optional, Sequence

from .diagram import FramedLink, _root
from .errors import (
    InternalInvariantViolation,
    LengthMismatch,
    MalformedInput,
    NotAKnot,
)
from .matrices import bareiss_det


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


def band_sum(
    sub: FramedLink,
    *,
    order: Optional[Sequence[int]] = None,
    arc_offset: int = 0,
) -> FramedLink:
    """Join all components of a diagram into one knot by fusion bands.

    The oriented smoothing of a crossing between two components is a
    fusion whose band is a small rectangle around the crossing itself.
    The crossings are scanned cyclically from index `arc_offset`, and each
    one whose strands lie on components not fused yet is smoothed, so the
    smoothed crossings form one spanning tree per diagram piece.  The
    pieces are then joined by split fusions in `order`, a permutation of
    the components: one arc of the running knot and one arc of the next
    piece swap their head slots.  Crossingless components drop out, and the
    empty diagram yields the crossingless unknot.  The knot is returned as
    a one-component link of framing 0, since the Arf invariant does not
    read framings.

    Any choice yields a valid fusion of the same link.  Robertello (Comm.
    Pure Appl. Math. 18, 1965) shows that every knot fused from a proper
    link, such as a characteristic sublink, has the same Arf invariant.
    Two closed plane curves cross an even number of times, so a crossing
    between two of them is no cut vertex, and smoothing it never
    disconnects a piece.  With n crossings and mu_p components in piece p,
    the knot therefore has n' = n - sum_p (mu_p - 1) crossings, and as a
    connected plane diagram it has n' + 2 faces.
    """
    m = sub.component_count()
    try:
        arc_offset = index(arc_offset)
        order = range(m) if order is None else list(map(index, order))
    except TypeError as exc:
        raise MalformedInput(f"order and arc_offset must be integers: {exc}") from exc
    if sorted(order) != list(range(m)):
        raise MalformedInput("order must be a permutation of the components")
    xs, over_in, comp_of = sub.crossings, sub.over_in, sub._arc_component
    n = len(xs)
    fused = list(range(m))  # union-find over components
    arc = list(range(2 * n + 1))  # union-find over the arcs smoothings merge
    smoothed = [False] * n
    for i in range(n):
        k = (i + arc_offset) % n
        a, b, c, d = xs[k]
        ra, rb = _root(fused, comp_of[a]), _root(fused, comp_of[b])
        if ra == rb:
            continue
        fused[ra] = rb
        smoothed[k] = True
        # Each incoming arc runs on along the outgoing arc next to it.
        for x, y in ((a, d), (b, c)) if over_in[k] == 1 else ((a, b), (d, c)):
            arc[_root(arc, x)] = _root(arc, y)

    kept = [k for k in range(n) if not smoothed[k]]
    ys = [[_root(arc, a) for a in xs[k]] for k in kept]
    signs = tuple(over_in[k] for k in kept)
    head: list = [None] * (2 * n + 1)  # kept crossing and slot where an arc ends
    pieces: dict[int, list[int]] = {}  # fused component -> its arcs
    for j, (t, oi) in enumerate(zip(ys, signs)):
        for s in (0, oi):
            head[t[s]] = (j, s)
            pieces.setdefault(_root(fused, comp_of[t[s]]), []).append(t[s])
    ends = []
    for i in order:
        arcs = pieces.pop(_root(fused, i), None)
        if arcs:
            ends.append(arcs[arc_offset % len(arcs)])
    if not ends:
        return FramedLink._derived((), [], 1, (0,))
    alpha = ends[0]
    for beta in ends[1:]:
        (ja, sa), (jb, sb) = head[alpha], head[beta]
        ys[ja][sa], ys[jb][sb] = beta, alpha
        head[alpha], head[beta] = (jb, sb), (ja, sa)

    # Relabel along the knot from its smallest arc; an arc ending at slot s
    # continues from slot s + 2 of the same crossing.
    label = [0] * (2 * n + 1)
    x, size = min(map(min, ys)), 0
    while not label[x]:
        size += 1
        label[x] = size
        j, s = head[x]
        x = ys[j][(s + 2) % 4]
    if size != 2 * len(ys):
        raise InternalInvariantViolation(f"fused diagram closes after {size} of {2 * len(ys)} arcs")
    kc = tuple((label[a], label[b], label[c], label[d]) for a, b, c, d in ys)
    # K_c is one cycle of labels 1..2n', so only its orientation is derived.
    knot = FramedLink._derived(kc, [tuple(range(1, size + 1))], 0, (0,))
    if knot.over_in != signs:
        raise InternalInvariantViolation("fused diagram signs disagree with construction")
    return knot


# --- Alexander polynomial via the Wirtinger presentation and Fox calculus ---


def alexander_polynomial(k: FramedLink) -> dict[int, int]:
    """Alexander polynomial from Fox derivatives of the Wirtinger presentation.

    Returned as {exponent: coefficient} with no zero terms, and well-defined
    up to units +-t^k; the crossingless unknot gives {0: 1}.  A diagram
    with other than one component raises NotAKnot.  Row i
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
    if k.component_count() != 1:
        raise NotAKnot(f"a knot diagram needs one component, got {k.component_count()}")
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


def alexander_at_minus_one(k: FramedLink) -> int:
    """The knot determinant |Delta(-1)|; always an odd positive integer."""
    value = abs(sum(-c if e % 2 else c for e, c in alexander_polynomial(k).items()))
    if value % 2 == 0:
        raise InternalInvariantViolation(f"even knot determinant {value}")
    return value


def arf_invariant(k: FramedLink) -> int:
    """Arf invariant of a knot, from its determinant."""
    return _arf_from_determinant(alexander_at_minus_one(k))
