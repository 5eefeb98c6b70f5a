"""Fuzzing the way in: random JSON through the CLI, `parse_framed_link` and
`FramedLink.build`.

Every input must end as a decision (exit 0), an input error (exit 1) or a
stop (exit 2), and every code `build` accepts must survive `as_dict` and
`parse_framed_link`.  The examples are derandomized and bounded, so each
run sees the same inputs.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from kirby4 import fixtures
from kirby4.cli import run
from kirby4.diagram import FramedLink, linking_matrix, mirror, parse_framed_link
from kirby4.errors import KirbyError

FUZZ = settings(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

SCALARS = (st.none() | st.booleans() | st.integers(-3, 12) | st.integers()
           | st.floats() | st.text(max_size=4))
JSON = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=20,
)
LABELS = st.integers(-1, 10) | st.sampled_from([True, False, 1.0, "1", None])
# names that are no strings too: `build` must reject them, as parsing does
NAMES = (st.none() | st.text(max_size=5) | st.integers(-1, 5) | st.booleans()
         | st.lists(st.text(max_size=2), max_size=1))
CODES = [link for name, link in fixtures.corpus().items() if link.crossings]


@st.composite
def mutated_codes(draw):
    """A fixture code with up to two mutations: a label replaced, a tuple
    rotated, two slots swapped or a crossing dropped."""
    link = draw(st.sampled_from(CODES))
    xs = [list(t) for t in link.crossings]
    for _ in range(draw(st.integers(0, 2))):
        k, kind = draw(st.integers(0, len(xs) - 1)), draw(st.integers(0, 3))
        if kind == 0:
            xs[k][draw(st.integers(0, 3))] = draw(LABELS)
        elif kind == 1:
            r = draw(st.integers(1, 3))
            xs[k] = xs[k][r:] + xs[k][:r]
        elif kind == 2:
            i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            xs[k][i], xs[k][j] = xs[k][j], xs[k][i]
        elif len(xs) > 1:
            del xs[k]
    framings = list(link.framings)
    if draw(st.booleans()):
        framings = draw(st.lists(st.integers(-3, 3), max_size=len(framings) + 1))
    return {"pd": xs, "unknots": link.unknots, "framings": framings, "name": draw(NAMES)}


LINK_DOCS = st.fixed_dictionaries(
    {"pd": st.lists(st.lists(LABELS, min_size=3, max_size=5), max_size=4) | JSON,
     "framings": st.lists(st.integers(-3, 3) | SCALARS, max_size=4) | JSON},
    optional={"unknots": st.integers(-1, 2) | JSON, "name": NAMES | JSON},
)


@st.composite
def symmetric_docs(draw):
    n = draw(st.integers(0, 5))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-2, 2))
    return {"entries": rows}


MATRIX_DOCS = symmetric_docs() | st.fixed_dictionaries(
    {"entries": st.lists(st.lists(st.integers(-3, 3) | SCALARS, max_size=4), max_size=4) | JSON},
    optional={"n": st.integers(0, 4) | SCALARS},
)


@pytest.fixture(scope="module")
def fuzz_dir():
    with tempfile.TemporaryDirectory() as d:
        yield Path(d)


def exits(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return run(argv)


@settings(FUZZ, max_examples=150)
@given(link=JSON | LINK_DOCS | mutated_codes(), matrix=JSON | MATRIX_DOCS)
def test_cli_exits_0_1_or_2(fuzz_dir, link, matrix):
    lf, mf = fuzz_dir / "link.json", fuzz_dir / "matrix.json"
    lf.write_text(json.dumps(link), encoding="utf-8")
    mf.write_text(json.dumps(matrix), encoding="utf-8")
    cp2 = str(fixtures.fixture_path("cp2"))
    runs = [["lkmatrix", lf], ["ks", lf], ["arf", lf], ["homeo", "--unoriented", lf, lf],
            ["--json", "homeo", "--smooth", lf, cp2], ["classify", mf], ["charvec", mf],
            ["form-compare", mf, mf], ["classify", lf], ["ks", mf]]
    with mock.patch.dict(os.environ, {"KIRBY4_MAX_ENUM": "5000"}):
        for argv in runs:
            assert exits([str(a) for a in argv]) in (0, 1, 2), argv


@settings(FUZZ, max_examples=300)
@given(doc=JSON | LINK_DOCS | mutated_codes(), raw=st.binary(max_size=40))
def test_parse_and_build_raise_only_kirby_errors(doc, raw):
    if isinstance(doc, dict):
        calls = [lambda: FramedLink.build(doc.get("pd"), doc.get("unknots", 0),
                                          doc.get("framings"), doc.get("name"))]
    else:
        calls = [lambda: FramedLink.build(doc), lambda: FramedLink.build([], doc, [doc])]
    calls += [lambda: parse_framed_link(json.dumps(doc).encode()),
              lambda: parse_framed_link(raw)]
    for call in calls:
        try:
            link = call()
        except KirbyError:
            continue
        try:  # an accepted code is a diagram the rest of the layer reads
            linking_matrix(link)
            mirror(link)
        except KirbyError:
            pass


@settings(FUZZ, max_examples=300)
@example(doc={"pd": [[True, 3, 2, 4], [3, 1, 4, 2]], "unknots": 0, "framings": [0, 0],
              "name": None})
@given(doc=mutated_codes())
def test_accepted_codes_round_trip(doc):
    try:
        link = FramedLink.build(doc["pd"], doc["unknots"], doc["framings"], doc["name"])
    except KirbyError:
        return
    assert parse_framed_link(json.dumps(link.as_dict()).encode()) == link
