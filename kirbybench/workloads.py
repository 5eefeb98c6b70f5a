"""Seeded inputs for the four kirby4 benchmark workloads.

Every case holds the bytes kirby4 reads (framed-link JSON, matrix JSON or,
for the CLI workload, files written from such bytes) and an answer fixed by
how the case was built.  No answer comes from running kirby4; the rules are

* ks and intersection forms add over split unions;
* ks(Chern) = ks(E8) = 1, and a +-1-framed knot has ks = Arf(knot), which is
  1 for the trefoil and the figure-eight (determinants 3 and 5);
* a doubled clasp joins two unknots as the boundary of a twice-twisted
  annulus, so banding them gives an unknot: a chain of doubled clasps has
  Arf(K_c) = 0 and ks = (c^T V c - signature) / 8 mod 2;
* kinks, R2 moves and handle slides preserve the manifold;
* a trefoil tied into a characteristic component flips ks, one tied into a
  non-characteristic component keeps it;
* basis conjugates are congruent; forms with different rank, signature,
  parity or definiteness are not; mirroring negates the signature.

Case costs were chosen with kirby4 0.1.0 so that each case is either far
under its workload's budget or far over it.  Cases named ``roadmap.*`` are the rows
of the ROADMAP baseline table; their inputs come from a fixed seed, so they
are the same in every run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

ROADMAP_SEED = 2024  # inputs of the roadmap.* cases do not follow --seed


@dataclass(frozen=True)
class Case:
    name: str
    inputs: tuple  # bytes payloads, or argv lists for the CLI workload
    expect: object  # the verdict the decision must return
    expect_error: bool = False  # an InputError is the correct outcome


@dataclass(frozen=True)
class Workload:
    name: str
    budget_s: float  # wall-time budget of one decision
    cases: list[Case]


# --- small exact integer algebra, independent of kirby4 ---------------------


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def negate(m):
    return [[-x for x in row] for row in m]


def gram(v, a):
    """a^T v a."""
    n = len(v)
    va = [[sum(v[i][k] * a[k][j] for k in range(n) if a[k][j]) for j in range(n)]
          for i in range(n)]
    return [[sum(a[k][i] * va[k][j] for k in range(n) if a[k][i]) for j in range(n)]
            for i in range(n)]


def det(rows):
    """Exact determinant by fraction-free elimination."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


E8 = [
    [2, 1, 0, 0, 0, 0, 0, 0],
    [1, 2, 1, 0, 0, 0, 0, 0],
    [0, 1, 2, 1, 0, 0, 0, 0],
    [0, 0, 1, 2, 1, 0, 0, 0],
    [0, 0, 0, 1, 2, 1, 0, 1],
    [0, 0, 0, 0, 1, 2, 1, 0],
    [0, 0, 0, 0, 0, 1, 2, 0],
    [0, 0, 0, 0, 1, 0, 0, 2],
]
H = [[0, 1], [1, 0]]


def odd_form(p, q):
    return [[(1 if i < p else -1) if i == j else 0 for j in range(p + q)]
            for i in range(p + q)]


def norm_bounded_basis(rng, v, bound, steps):
    """Unimodular A from column additions that keep every a_i^T v a_i <= bound,
    followed by a signed column permutation."""
    n = len(v)
    a = identity(n)

    def norm(col):
        return sum(col[i] * v[i][j] * col[j]
                   for i in range(n) if col[i] for j in range(n) if col[j])

    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        col = [a[r][i] + s * a[r][j] for r in range(n)]
        if norm(col) <= bound:
            for r in range(n):
                a[r][i] = col[r]
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[c] * a[r][perm[c]] for c in range(n)] for r in range(n)]


def transvections(rng, n, ops, window=None):
    """Unimodular A from `ops` column additions; with a window, each addition
    stays inside a run of `window` consecutive indices."""
    a = identity(n)
    for _ in range(ops):
        if window:
            lo = rng.randrange(n - window + 1)
            i, j = rng.sample(range(lo, lo + window), 2)
        else:
            i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        for r in range(n):
            a[r][i] += s * a[r][j]
    perm = rng.sample(range(n), n)
    return [[a[r][perm[c]] for c in range(n)] for r in range(n)]


def matrix_bytes(m) -> bytes:
    return json.dumps({"n": len(m), "entries": m}, separators=(",", ":")).encode()


# --- links_ks ---------------------------------------------------------------


def chain_matrix(rng, rank):
    """Seeded odd framings and doubled clasps of alternating sign along a path,
    unimodular, with signature read off the leading minors (none of them zero).

    The clasp signs are fixed because they set the cost of the knot layer.
    """
    signs = [(-1) ** i for i in range(rank - 1)]
    while True:
        fr = [rng.choice((-5, -3, -1, 1, 3, 5)) for _ in range(rank)]
        minors = [1, fr[0]]
        for k in range(1, rank):
            minors.append(fr[k] * minors[-1] - 4 * minors[-2])
        if abs(minors[-1]) == 1 and all(minors):
            break
    v = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        v[i][i] = fr[i]
    for i, s in enumerate(signs):
        v[i][i + 1] = v[i + 1][i] = 2 * s
    sigma = sum(1 if minors[k] * minors[k + 1] > 0 else -1 for k in range(rank))
    cvc = sum(fr) + 4 * sum(signs)
    return v, sigma, ((cvc - sigma) // 8) % 2


def links_ks(seed: int, k) -> Workload:
    """Decision: parse_framed_link then kirby_siebenmann; verdict (ks, sigma, form)."""
    rng = random.Random(seed)
    fx = k.fixtures
    cases = []

    def add(name, link, ks, sigma, form):
        data = json.dumps(link.as_dict(), separators=(",", ":")).encode()
        cases.append(Case(name, (data,), (ks, sigma, tuple(map(tuple, form)))))

    def chain(rank):
        v, sigma, ks = chain_matrix(rng, rank)
        return fx.clasp_link(k.matrices.SymIntMatrix.from_rows(v)), v, sigma, ks

    # Rank-6 chains hold the p90 and rank-4 chains the median: the seed moves
    # only their framings, which leaves the knot layer's work unchanged.
    for rank in list(range(2, 9)) + [6] * 5 + [5] * 2 + [4] * 9:
        link, v, sigma, ks = chain(rank)
        add(f"chain_r{rank}", link, ks, sigma, v)
    for rank in (2, 3, 4, 5, 5):
        link, v, sigma, ks = chain(rank)
        tied = fx.tie_trefoil(link, rng.randrange(rank))
        add(f"chain_r{rank}_trefoil", tied, 1 - ks, sigma, v)
    for rank in (2, 3, 4, 5, 2, 3, 4, 5):
        link, v, sigma, ks = chain(rank)
        for _ in range(2):
            link = fx.insert_kink(link, rng.randint(1, 2 * len(link.crossings)),
                                  rng.choice((1, -1)))
        add(f"chain_r{rank}_kinks", link, ks, sigma, v)
    for count in [*range(1, 11), *range(1, 9), *range(6, 11), 12, 16]:
        framings = [rng.choice((1, -1)) for _ in range(count)]
        link = None
        for i, f in enumerate(framings):
            knot = fx.trefoil(f) if i % 2 else fx.figure_eight(f)
            link = knot if link is None else fx.split_union(link, knot)
        add(f"split_knots_{count}", link, count % 2, sum(framings),
            [[framings[i] if i == j else 0 for j in range(count)] for i in range(count)])
    for _ in range(3):
        hopf = fx.tie_trefoil(fx.hopf_link(0, 0), rng.randrange(2))
        add("hopf_trefoil", hopf, 0, 0, H)
    for _ in range(2):
        add("e8_trefoil", fx.tie_trefoil(fx.e8_link(), rng.randrange(8)), 1, 8, E8)
    for rank in (3, 4):
        link, v, sigma, ks = chain(rank)
        hopf = fx.tie_trefoil(fx.hopf_link(0, 0), rng.randrange(2))
        add(f"chain_r{rank}_plus_hopf_trefoil", fx.split_union(link, hopf), ks, sigma,
            direct_sum(v, H))
    for rank in (2, 3):
        v = chain_matrix(rng, rank)[0]
        v[0][0] += 1  # one even framing among odd ones: even determinant
        bad = fx.clasp_link(k.matrices.SymIntMatrix.from_rows(v))
        data = json.dumps(bad.as_dict(), separators=(",", ":")).encode()
        cases.append(Case(f"chain_r{rank}_not_unimodular", (data,), None, expect_error=True))

    v, sigma, ks = chain_matrix(random.Random(ROADMAP_SEED), 12)
    add("roadmap.chain_r12", fx.clasp_link(k.matrices.SymIntMatrix.from_rows(v)), ks, sigma, v)
    return Workload("links_ks", 3.0, cases)


# --- forms_definite ---------------------------------------------------------


def flip_signs(rng, m):
    """D m D for a seeded diagonal D of signs: a congruent form of the same
    shape, whose enumeration visits the mirrored tree."""
    d = [rng.choice((1, -1)) for _ in range(len(m))]
    return [[d[i] * x * d[j] for j, x in enumerate(row)] for i, row in enumerate(m)]


def forms_definite(seed: int) -> Workload:
    """Decision: congruent_with_witness(V, W) on matrix bytes; verdict: congruent.

    The conjugate sits on the left, so the enumeration runs in its skewed
    basis up to the standard form's small maximum diagonal; a conjugate on
    the right would set the enumeration radius, and the backtracking cost
    would follow the basis over four orders of magnitude.  Each class has
    one fixed basis whose signs are flipped, and the flips alone move the
    cost by up to a factor of three.  So the seed flips only the classes
    that cost well under the median; every case at or above it has fixed
    flips, which keeps the cases that set the median and the p90 the same
    for every seed.
    """
    rng = random.Random(seed)
    cases = []

    def add(name, v, w, congruent):
        cases.append(Case(name, (matrix_bytes(v), matrix_bytes(w)), congruent))

    # (name, form, bound, copies, seeded): I8-I10 and the light I11, I12 are
    # the cheap classes; heavy I12, E8 and E8+I1 hold the p90.
    classes = [(f"i{n}_light", identity(n), 2, 1, True) for n in range(8, 13)]
    classes += [(f"i{n}_heavy", identity(n), 4, 4, True) for n in range(8, 11)]
    classes += [("i11_heavy", identity(11), 4, 4, False), ("i12_heavy", identity(12), 4, 8, False),
                ("e8_light", E8, 2, 1, False), ("e8_heavy", E8, 6, 4, False),
                ("e8_i1_light", direct_sum(E8, identity(1)), 2, 1, False),
                ("e8_i1_heavy", direct_sum(E8, identity(1)), 6, 4, False)]
    for name, b, bound, copies, seeded in classes:
        fixed = gram(b, norm_bounded_basis(random.Random(name.replace("_", "/")), b, bound,
                                           30 * len(b)))
        for i in range(copies):
            w = flip_signs(rng if seeded else random.Random(f"{name}/{i}"), fixed)
            if i % 2:
                add(f"{name}_negated", negate(w), negate(b), True)
            else:
                add(name, w, b, True)
    # E8 against fixed bases of roots: the median sits among these.
    for i in range(14):
        add("e8_vs_root_basis", E8,
            gram(E8, norm_bounded_basis(random.Random(f"e8/roots/{i}"), E8, 2, 240)), True)
    add("reject_rank", identity(8), identity(9), False)
    add("reject_definiteness", identity(9), negate(identity(9)), False)
    add("reject_parity", E8, identity(8), False)

    fixed = random.Random(ROADMAP_SEED)
    add("roadmap.e8_conj_maxdiag2", E8, _conjugate_with_max_diag(fixed, E8, 2), True)
    add("roadmap.e8_conj_maxdiag12", E8, _conjugate_with_max_diag(fixed, E8, 12), True)
    add("roadmap.e8_i1_vs_i9", direct_sum(E8, identity(1)), identity(9), False)
    add("roadmap.i9_vs_e8_i1", identity(9), direct_sum(E8, identity(1)), False)
    return Workload("forms_definite", 1.0, cases)


def _conjugate_with_max_diag(rng, v, target):
    while True:
        w = gram(v, norm_bounded_basis(rng, v, target, 40 * len(v)))
        if max(w[i][i] for i in range(len(w))) == target:
            return w


# --- forms_indefinite -------------------------------------------------------


def k3_form():
    return direct_sum(negate(E8), negate(E8), H, H, H)


def forms_indefinite(seed: int) -> Workload:
    """Decision: classify(V), then congruent_with_witness(V, W) on matrix bytes;
    verdict (rank, signature, parity, definiteness, congruent).

    Odd forms take rank/2 seeded transvections anywhere.  Forms holding E8
    blocks take transvections inside windows of four indices, since
    unrestricted ones make the elimination cost follow the basis over orders
    of magnitude; even windowed ones cost 30 times the rest now and then, so
    their bases are fixed and do not follow the seed.
    """
    rng = random.Random(seed)
    cases = []

    def add(name, v, w, cls, congruent):
        cases.append(Case(name, (matrix_bytes(v), matrix_bytes(w)), (*cls, congruent)))

    def conj(m, ops, window=None, by=rng):
        return gram(m, transvections(by, len(m), ops, window))

    for n in (12, 16, 20, 24):
        for _ in range(3):
            p = n // 2 + rng.randint(-3, 3)
            b = odd_form(p, n - p)
            add(f"odd_r{n}", conj(b, n // 2), conj(b, n // 2), (n, 2 * p - n, "odd", "indefinite"),
                True)
        p = n // 2 + rng.randint(-3, 3)
        add(f"odd_r{n}_other_signature", conj(odd_form(p, n - p), n // 2),
            conj(odd_form(p + 1, n - p - 1), n // 2), (n, 2 * p - n, "odd", "indefinite"), False)
    for e8s, hs, sign in ((1, 2, 1), (1, 4, -1), (1, 6, 1), (2, 4, -1)):
        e8 = E8 if sign > 0 else negate(E8)
        b = direct_sum(*([e8] * e8s + [H] * hs))
        n = len(b)
        fixed = random.Random(f"even/{n}")
        cls = (n, 8 * e8s * sign, "even", "indefinite")
        for _ in range(2):
            add(f"even_r{n}", conj(b, n // 4, 4, fixed), conj(b, n // 4, 4, fixed), cls, True)
        odd = odd_form((n + 8 * e8s * sign) // 2, (n - 8 * e8s * sign) // 2)
        add(f"even_r{n}_vs_odd", conj(b, n // 4, 4, fixed), conj(odd, n // 2), cls, False)
    fixed = random.Random("k3")
    for _ in range(3):
        add("k3_windowed", conj(k3_form(), 5, 4, fixed), conj(k3_form(), 5, 4, fixed),
            (22, -16, "even", "indefinite"), True)
    # Two fixed dense bases (not seeded), four decisions each, whose
    # elimination took about 0.13 s with kirby4 0.1.0: the slowest class,
    # large enough to hold the p90.  Seeded dense bases, and even sign flips
    # of these (through the zero-pivot repair), spread the cost over orders
    # of magnitude.
    for n, offset in ((20, 6), (24, 26)):
        b = odd_form(n // 2, n // 2)
        v = gram(b, transvections(random.Random(1000 + offset), n, n, 8))
        for _ in range(4):
            add(f"dense_r{n}", v, b, (n, 0, "odd", "indefinite"), True)

    fixed = random.Random(ROADMAP_SEED)
    k3 = k3_form()
    add("roadmap.k3_light", gram(k3, transvections(fixed, 22, 3)), k3,
        (22, -16, "even", "indefinite"), True)
    add("roadmap.k3_heavy", gram(k3, transvections(fixed, 22, 22)), k3,
        (22, -16, "even", "indefinite"), True)
    b = odd_form(12, 12)
    add("roadmap.random_r24", gram(b, transvections(fixed, 24, 48)), b,
        (24, 0, "odd", "indefinite"), True)
    return Workload("forms_indefinite", 1.0, cases)


# --- homeo_corpus -----------------------------------------------------------

# Manifold of each shipped fixture as (rank, signature, parity, ks); None marks
# the deliberately invalid diagrams.  For definite forms of rank <= 8 the
# triple (rank, signature, parity) already fixes the lattice (I_n or E8).
FIXTURE_MANIFOLDS = {
    "s4": (0, 0, "even", 0),
    "cp2": (1, 1, "odd", 0),
    "cp2_bar": (1, -1, "odd", 0),
    "invalid_unknot_plus2": None,
    "invalid_unknot_minus2": None,
    "s2xs2": (2, 0, "even", 0),
    "chern": (1, 1, "odd", 1),
    "fig8_plus1": (1, 1, "odd", 1),
    "e8": (8, 8, "even", 1),
    "e8_trefoil": (8, 8, "even", 1),  # E8 is even: no characteristic component
    "clasp_12_23": (2, 0, "odd", 1),  # doubled-clasp chain, framings 1 and 3
    "clasp_12_23_trefoil": (2, 0, "odd", 0),  # trefoil tied into a characteristic component
    "slide1_a": (2, 2, "odd", 0),
    "slide1_b": (2, 2, "odd", 0),
    "slide2_a": (2, 0, "even", 0),
    "slide2_b": (2, 0, "even", 0),
    "slide3_a": (2, 0, "odd", 0),
    "slide3_b": (2, 0, "odd", 0),
    "rm1_a": (1, 1, "odd", 1),
    "rm1_b": (1, 1, "odd", 1),
    "rm2_a": (2, 0, "even", 0),
    "rm2_b": (2, 0, "even", 0),
    "rm3_a": (2, 2, "odd", 0),
    "rm3_b": (2, 2, "odd", 0),
}
SMOOTH_SUBSET = ("s4", "cp2", "cp2_bar", "s2xs2", "chern", "e8", "slide1_b", "slide3_b")


def _mirror(m):
    return (m[0], -m[1], m[2], m[3])


def homeo_expect(a, b, unoriented, smooth):
    """(exit code, homeomorphic) of `kirby4 homeo` on manifolds a and b."""
    if a is None or b is None:
        return (1, None)
    same = (lambda x, y: x[:3] == y[:3]) if smooth else (lambda x, y: x == y)
    return (0, same(a, b) or (unoriented and same(a, _mirror(b))))


def homeo_corpus(seed: int, k, work_dir) -> Workload:
    """Decision: one in-process `kirby4 homeo` call; verdict (exit code, homeomorphic)."""
    rng = random.Random(seed)
    fx = k.fixtures
    files = {stem: str(fx.fixture_path(stem)) for stem in FIXTURE_MANIFOLDS}
    manifold = dict(FIXTURE_MANIFOLDS)
    base = fx.corpus()

    def write(stem, link, m):
        path = work_dir / f"{stem}.json"
        path.write_text(json.dumps(link.as_dict(), separators=(",", ":")), encoding="utf-8")
        files[stem], manifold[stem] = str(path), m

    variants = []
    for stem in ("chern", "fig8_plus1", "s2xs2", "clasp_12_23", "clasp_12_23_trefoil", "e8"):
        link = base[stem]
        for _ in range(rng.randint(1, 2)):
            link = fx.insert_kink(link, rng.randint(1, 2 * len(link.crossings)),
                                  rng.choice((1, -1)))
        write(f"{stem}_kinked", link, manifold[stem])
        variants.append((f"{stem}_kinked", stem))
    for i in range(2):
        f1, f2 = rng.choice((1, -1)), rng.choice((1, -1))
        write(f"r2_{i}", fx.overlapped_unknots(f1, f2), (2, f1 + f2, "odd", 0))
        variants.append((f"r2_{i}", {2: "slide1_a", 0: "slide3_a"}.get(f1 + f2)))
    for i in range(2):
        twists = rng.choice((-3, -2, -1, 1, 2, 3))
        write(f"slide_{i}", fx.hopf_link(2 * twists, 0), (2, 0, "even", 0))
        variants.append((f"slide_{i}", "s2xs2"))

    cases = []

    def add(a, b, unoriented=False, smooth=False):
        flags = ["--unoriented"] * unoriented + ["--smooth"] * smooth
        name = f"{a}~{b}" + "".join(f.replace("--", ".") for f in flags)
        expect = homeo_expect(manifold[a], manifold[b], unoriented, smooth)
        cases.append(Case(name, (["homeo", files[a], files[b], *flags],), expect))

    stems = list(FIXTURE_MANIFOLDS)
    for a in stems:
        for b in stems:
            add(a, b)
            add(a, b, unoriented=True)
    for a in SMOOTH_SUBSET:
        for b in SMOOTH_SUBSET:
            add(a, b, smooth=True)
    for variant, origin in variants:
        for other in [origin] * (origin is not None) + rng.sample(stems, 3):
            add(variant, other)
            add(other, variant, unoriented=True)
    return Workload("homeo_corpus", 1.0, cases)
