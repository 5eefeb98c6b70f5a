"""Builders for the fixture corpus: standard diagrams and diagram surgeries.

The clasp construction realizes any symmetric integer matrix whose
off-diagonal support graph is a forest (counting multiplicity separately):
components are round unknots, each pair (i, j) is joined by |v_ij| clasps
of sign v_ij, and diagonal entries become framings.  Tree plumbings like
the E8 link are exactly this shape.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .diagram import Crossing, FramedLink, _root
from .errors import MalformedInput
from .matrices import SymIntMatrix

# Left-handed trefoil and standard figure-eight, knot-atlas style PD codes.
TREFOIL_PD = ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))
FIGURE_EIGHT_PD = ((4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8))

E8_MATRIX = SymIntMatrix.from_rows(
    [
        [2, 1, 0, 0, 0, 0, 0, 0],
        [1, 2, 1, 0, 0, 0, 0, 0],
        [0, 1, 2, 1, 0, 0, 0, 0],
        [0, 0, 1, 2, 1, 0, 0, 0],
        [0, 0, 0, 1, 2, 1, 0, 1],
        [0, 0, 0, 0, 1, 2, 1, 0],
        [0, 0, 0, 0, 0, 1, 2, 0],
        [0, 0, 0, 0, 1, 0, 0, 2],
    ]
)


def unknot(framing: int, name=None) -> FramedLink:
    return FramedLink.build([], unknots=1, framings=[framing], name=name)


def split_unknots(framings, name=None) -> FramedLink:
    return FramedLink.build([], unknots=len(list(framings)), framings=framings, name=name)


def hopf_link(f1: int, f2: int, name=None) -> FramedLink:
    """Positive Hopf link (linking number +1)."""
    return FramedLink.build(
        [(1, 3, 2, 4), (3, 1, 4, 2)], framings=[f1, f2], name=name
    )


def trefoil(framing: int, name=None) -> FramedLink:
    return FramedLink.build(TREFOIL_PD, framings=[framing], name=name)


def figure_eight(framing: int, name=None) -> FramedLink:
    return FramedLink.build(FIGURE_EIGHT_PD, framings=[framing], name=name)


def overlapped_unknots(f1: int, f2: int, name=None) -> FramedLink:
    """Two unknots made to overlap by one R2 move; still the split union."""
    return FramedLink.build(
        [(1, 3, 2, 4), (2, 3, 1, 4)], framings=[f1, f2], name=name
    )


def clasp_link(v: SymIntMatrix, name=None) -> FramedLink:
    """A link of round unknots with linking matrix v.

    Requires the off-diagonal support graph (ignoring multiplicities) to be
    a forest, which keeps the fixed clasp layout planar.
    """
    m = v.n
    edges = []
    for i in range(m):
        for j in range(i + 1, m):
            w = v[i][j]
            for _ in range(abs(w)):
                edges.append((i, j, 1 if w > 0 else -1))
    # forest check on the simple support graph
    parent = list(range(m))
    for i, j in dict.fromkeys((i, j) for i, j, _ in edges):
        ri, rj = _root(parent, i), _root(parent, j)
        if ri == rj:
            raise MalformedInput("clasp layout needs an acyclic linking pattern")
        parent[max(ri, rj)] = min(ri, rj)

    # Component i passes through its clasps in edge order; each passage pair
    # uses two consecutive arcs out of the component's block of 2*degree arcs.
    degree = [0] * m
    for i, j, _ in edges:
        degree[i] += 1
        degree[j] += 1
    if any(d == 0 for d in degree) and edges:
        raise MalformedInput("clasp layout cannot mix linked and split components")
    base = [0] * m
    acc = 1
    for i in range(m):
        base[i] = acc
        acc += 2 * degree[i]

    visit = [0] * m  # how many clasps component i has passed so far

    def arc(i, idx):
        return base[i] + idx % (2 * degree[i])

    crossings = []
    for i, j, sign in edges:
        k, l = visit[i], visit[j]
        visit[i] += 1
        visit[j] += 1
        x, y, z = arc(i, 2 * k), arc(i, 2 * k + 1), arc(i, 2 * k + 2)
        p, q, r = arc(j, 2 * l), arc(j, 2 * l + 1), arc(j, 2 * l + 2)
        if sign > 0:
            crossings.append((x, r, y, q))
            crossings.append((p, z, q, y))
        else:
            crossings.append((q, x, r, y))
            crossings.append((y, p, z, q))
    if edges:
        zero_framed = [v[i][i] for i in range(m)]
        return FramedLink.build(crossings, framings=zero_framed, name=name)
    return split_unknots([v[i][i] for i in range(m)], name=name)


def e8_link(name="E8 plumbing") -> FramedLink:
    """The E8 plumbing: eight +2-framed unknots clasped along the E8 tree."""
    return clasp_link(E8_MATRIX, name=name)


def split_union(a: FramedLink, b: FramedLink, name=None) -> FramedLink:
    """Disjoint union of two diagrams; presents the connected sum of the
    manifolds.  PD components keep their order (a's, then b's); crossingless
    unknots of both go last."""
    shift = 2 * len(a.crossings)
    xs = list(a.crossings) + [tuple(x + shift for x in t) for t in b.crossings]
    a_pd = len(a.components) - a.unknots
    b_pd = len(b.components) - b.unknots
    framings = (
        list(a.framings[:a_pd])
        + list(b.framings[:b_pd])
        + list(a.framings[a_pd:])
        + list(b.framings[b_pd:])
    )
    return FramedLink.build(
        xs, unknots=a.unknots + b.unknots, framings=framings, name=name
    )


def tie_trefoil(link: FramedLink, component: int, name=None) -> FramedLink:
    """Tie a trefoil into one component: connected-sum a trefoil tangle
    into its lowest-numbered arc.  Linking matrix and framings are unchanged."""
    comp = link.components[component]
    if not comp:
        if link.crossings:
            raise MalformedInput("cannot tie a knot into a crossingless component here")
        # a bare unknot: the result is just the trefoil with that framing
        others = list(link.framings)
        if link.unknots != 1 or len(others) != 1:
            raise MalformedInput("tie into split diagrams one component at a time")
        return trefoil(others[0], name=name)
    # Host arc t0 becomes t0 .. t0+6 along the tangle: the first piece enters
    # the tangle and t0+6 leaves it.
    t0 = comp[0]
    new = _cut_arc(link, t0, 6)
    new.extend([
        (t0 + 1, t0 + 4, t0 + 2, t0 + 5),
        (t0 + 3, t0, t0 + 4, t0 + 1),
        (t0 + 5, t0 + 2, t0 + 6, t0 + 3),
    ])
    return FramedLink.build(
        new, unknots=link.unknots, framings=link.framings, name=name
    )


def _cut_arc(link: FramedLink, arc: int, width: int) -> list[Crossing]:
    """The link's crossings with `arc` cut open to make room for `width` labels.

    The crossing the arc runs into now receives arc + width, and every label
    above arc shifts by width, so each component keeps a consecutive block.
    """
    new = []
    for k, t in enumerate(link.crossings):
        mapped = []
        for s, a in enumerate(t):
            if a == arc:
                incoming = s == 0 or s == link.over_in[k]  # over_in is 1 or 3, never 2
                mapped.append(arc + width if incoming else arc)
            else:
                mapped.append(a if a < arc else a + width)
        new.append(tuple(mapped))
    return new


def insert_kink(link: FramedLink, arc: int, sign: int, name=None) -> FramedLink:
    """Add a Reidemeister-I kink of the given sign on an arc.

    The arc splits into arc, arc+1, arc+2 around the new self-crossing;
    higher labels shift by two.
    """
    new = _cut_arc(link, arc, 2)
    if sign > 0:
        new.append((arc, arc + 2, arc + 1, arc + 1))
    else:
        new.append((arc, arc + 1, arc + 1, arc + 2))
    return FramedLink.build(
        new, unknots=link.unknots, framings=link.framings, name=name
    )


def corpus() -> dict[str, FramedLink]:
    """The full shipped fixture corpus, keyed by file stem."""
    links = {
        "s4": FramedLink.build([], framings=[], name="S^4 (empty diagram)"),
        "cp2": unknot(1, name="CP^2"),
        "cp2_bar": unknot(-1, name="-CP^2"),
        "invalid_unknot_plus2": unknot(2, name="unknot +2 (not unimodular)"),
        "invalid_unknot_minus2": unknot(-2, name="unknot -2 (not unimodular)"),
        "s2xs2": hopf_link(0, 0, name="S^2 x S^2"),
        "chern": trefoil(1, name="Chern manifold"),
        "fig8_plus1": figure_eight(1, name="figure-eight, framing +1"),
        "e8": e8_link(),
        "e8_trefoil": tie_trefoil(e8_link(), 0, name="E8 plumbing, trefoil tied in"),
        "clasp_12_23": clasp_link(
            SymIntMatrix.from_rows([[1, 2], [2, 3]]), name="two unknots clasped twice"
        ),
        "clasp_12_23_trefoil": tie_trefoil(
            clasp_link(SymIntMatrix.from_rows([[1, 2], [2, 3]])),
            0,
            name="clasped pair with a trefoil tied in",
        ),
        # handle-slide pairs: same manifold, different diagrams
        "slide1_a": split_unknots([1, 1], name="CP^2 # CP^2"),
        "slide1_b": clasp_link(
            SymIntMatrix.from_rows([[2, 1], [1, 1]]), name="CP^2 # CP^2 after a slide"
        ),
        "slide2_a": hopf_link(0, 0, name="S^2 x S^2"),
        "slide2_b": hopf_link(2, 0, name="S^2 x S^2 after a slide"),
        "slide3_a": split_unknots([1, -1], name="CP^2 # -CP^2"),
        "slide3_b": clasp_link(
            SymIntMatrix.from_rows([[0, -1], [-1, -1]]),
            name="CP^2 # -CP^2 after a slide",
        ),
        # Reidemeister pairs: same framed link, different diagrams
        "rm1_a": trefoil(1, name="trefoil +1"),
        "rm2_a": hopf_link(0, 0, name="Hopf link"),
        "rm3_a": split_unknots([1, 1], name="split unknots +1 +1"),
        "rm3_b": overlapped_unknots(1, 1, name="split unknots after an R2 move"),
    }
    links["rm1_b"] = insert_kink(links["rm1_a"], 2, +1, name="trefoil +1 with a kink")
    links["rm2_b"] = insert_kink(links["rm2_a"], 1, -1, name="Hopf link with a kink")
    return links


def write_corpus(directory) -> list[Path]:
    """Serialize the corpus as JSON files into a directory."""
    out = []
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for stem, link in sorted(corpus().items()):
        path = directory / f"{stem}.json"
        path.write_text(
            json.dumps(link.as_dict(), sort_keys=True, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        out.append(path)
    return out


def fixture_path(stem: str) -> Path:
    """Path of a shipped fixture file."""
    return Path(str(resources.files("kirby4") / "fixtures" / f"{stem}.json"))


def shipped_fixtures() -> list[Path]:
    root = resources.files("kirby4") / "fixtures"
    return sorted(Path(str(p)) for p in root.iterdir() if p.name.endswith(".json"))
