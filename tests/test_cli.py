"""CLI surface: subcommands, exit codes, canonical JSON, fixture corpus."""

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

from kirby4 import cli, diagram, knot
from kirby4.cli import run
from kirby4.fixtures import E8_MATRIX, corpus, fixture_path, shipped_fixtures, write_corpus


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.fixture()
def fx(tmp_path):
    """Fixture corpus written to a scratch directory."""
    write_corpus(tmp_path)
    return lambda stem: str(tmp_path / f"{stem}.json")


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_shipped_corpus_matches_builders(tmp_path):
    shipped = {p.stem: p.read_bytes() for p in shipped_fixtures()}
    regenerated = {p.stem: p.read_bytes() for p in write_corpus(tmp_path)}
    assert shipped == regenerated


def test_lkmatrix(fx, capsys):
    code, out = run_json(capsys, ["lkmatrix", fx("s2xs2")])
    assert code == 0
    assert out == {"entries": [[0, 1], [1, 0]], "n": 2}


def test_classify_and_charvec(fx, capsys, tmp_path):
    matrix = tmp_path / "h.json"
    matrix.write_text('{"n": 2, "entries": [[0,1],[1,0]]}')
    code, out = run_json(capsys, ["classify", str(matrix)])
    assert code == 0
    assert out == {
        "definiteness": "indefinite",
        "parity": "even",
        "rank": 2,
        "signature": 0,
    }
    code, out = run_json(capsys, ["charvec", str(matrix)])
    assert code == 0
    assert out == {"characteristic": [0, 0]}


def test_form_compare_with_witness(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"entries": [[2,1],[1,1]]}')
    b.write_text('{"entries": [[1,0],[0,1]]}')
    code, out = run_json(capsys, ["form-compare", str(a), str(b)])
    assert code == 0
    assert out["congruent"] is True
    assert out["witness"] is not None


def test_arf(fx, capsys):
    code, out = run_json(capsys, ["arf", fx("chern")])
    assert code == 0
    assert out == {"arf": 1, "determinant": 3}
    code, out = run_json(capsys, ["arf", fx("cp2")])
    assert code == 0
    assert out == {"arf": 0, "determinant": 1}


def test_arf_computes_the_polynomial_once(fx, capsys, monkeypatch):
    calls = []
    original = knot.alexander_polynomial
    monkeypatch.setattr(knot, "alexander_polynomial", lambda k: calls.append(k) or original(k))
    code, out = run_json(capsys, ["arf", fx("chern")])
    assert code == 0 and out == {"arf": 1, "determinant": 3}
    assert len(calls) == 1


def test_arf_validates_the_code_once(fx, capsys, monkeypatch):
    calls = []
    original = diagram._pd_components
    counting = lambda xs: calls.append(xs) or original(xs)  # noqa: E731
    monkeypatch.setattr(diagram, "_pd_components", counting)
    code, out = run_json(capsys, ["arf", fx("chern")])
    assert code == 0 and out == {"arf": 1, "determinant": 3}
    assert len(calls) == 1


def test_arf_rejects_links(fx, capsys):
    assert run(["arf", fx("s2xs2")]) == 1
    assert "needs one component, got 2" in capsys.readouterr().err


def test_ks(fx, capsys):
    code, out = run_json(capsys, ["ks", fx("e8")])
    assert code == 0
    assert out["ks"] == 1 and out["signature"] == 8
    assert out["characteristic"] == [0] * 8


def test_homeo_examples(fx, capsys):
    code, out = run_json(capsys, ["homeo", fx("cp2"), fx("chern")])
    assert code == 0
    assert out["homeomorphic"] is False and out["reason"] == "KsDiffer"

    code, out = run_json(capsys, ["homeo", fx("cp2"), fx("cp2_bar")])
    assert code == 0 and out["homeomorphic"] is False

    code, out = run_json(capsys, ["homeo", "--unoriented", fx("cp2"), fx("cp2_bar")])
    assert code == 0
    assert out["homeomorphic"] is True and out["reason"] == "MatchAfterReversal"

    code, out = run_json(capsys, ["homeo", "--smooth", fx("slide1_a"), fx("slide1_b")])
    assert code == 0 and out["homeomorphic"] is True


def test_homeo_not_unimodular_is_input_error(fx, capsys):
    assert run(["homeo", fx("invalid_unknot_plus2"), fx("cp2")]) == 1
    assert "not +-1" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert run(["homeo"]) == 1
    assert run(["no-such-command"]) == 1


def test_batch(fx, capsys, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(
        f"{fx('cp2')}\t{fx('chern')}\n# comment\n{fx('cp2')}\t{fx('cp2')}\n"
    )
    code, out = run_json(capsys, ["homeo", "--batch", str(pairs)])
    assert code == 0
    verdicts = [r["verdict"]["homeomorphic"] for r in out["results"]]
    assert verdicts == [False, True]


@pytest.mark.parametrize("links", [("cp2", "chern"), ("cp2",)], ids=["two", "one"])
def test_batch_with_link_files_is_input_error(fx, capsys, tmp_path, links):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"{fx('cp2')}\t{fx('cp2')}\n")
    code = run(["homeo", *(fx(stem) for stem in links), "--batch", str(pairs)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not both" in captured.err


@pytest.mark.parametrize("content", [None, b"\xff\xfe"], ids=["missing", "not_utf8"])
def test_batch_unreadable_is_input_error(capsys, tmp_path, content):
    pairs = tmp_path / "pairs.tsv"
    if content is not None:
        pairs.write_bytes(content)
    code = run(["homeo", "--batch", str(pairs)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_batch_path_with_nul_is_input_error(fx, capsys, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"{fx('cp2')}\x00\t{fx('cp2')}\n")
    assert run(["homeo", "--batch", str(pairs)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


DEEP = 100_000  # past the JSON decoder's nesting limit on every supported Python
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit


@pytest.mark.parametrize("command,key", [("classify", "entries"), ("ks", "pd")])
@pytest.mark.parametrize("value", [
    "[" * DEEP + "]" * DEEP,
    pytest.param("[[" + "1" * (DIGIT_LIMIT + 1) + "]]",
                 marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer string limit")),
], ids=["nested_too_deep", "integer_too_long"])
def test_json_the_decoder_refuses_is_input_error(capsys, tmp_path, command, key, value):
    path = tmp_path / "refused.json"
    path.write_text(f'{{"{key}": {value}}}')
    assert run([command, str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_json_report_round_trips(fx, capsys):
    code = run(["--json", "homeo", fx("cp2"), fx("chern")])
    assert code == 0
    raw = capsys.readouterr().out.strip()
    parsed = json.loads(raw)
    assert canonical(parsed) == raw
    assert parsed["command"] == "homeo"
    assert len(parsed["inputs"]) == 2
    assert all(len(i["sha256"]) == 64 for i in parsed["inputs"])
    assert isinstance(parsed["duration_ms"], int)


def test_batch_json_report_lists_every_link_file(fx, capsys, tmp_path):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"{fx('cp2')}\t{fx('chern')}\n{fx('cp2')}\t{fx('cp2_bar')}\n")
    code, out = run_json(capsys, ["--json", "homeo", "--batch", str(pairs)])
    assert code == 0
    assert [i["file"] for i in out["inputs"]] == [str(pairs), fx("cp2"), fx("chern"), fx("cp2_bar")]
    for i in out["inputs"]:
        assert i["sha256"] == hashlib.sha256(Path(i["file"]).read_bytes()).hexdigest()


def test_default_output_round_trips(fx, capsys):
    for argv in (["lkmatrix", fx("e8")], ["ks", fx("chern")]):
        code = run(argv)
        assert code == 0
        raw = capsys.readouterr().out.strip()
        assert canonical(json.loads(raw)) == raw


FORM = {"entries", "n"}
INVARIANTS = {"arf", "characteristic", "form", "knot_determinant", "ks", "signature"}
VERDICT = {"congruence_witness", "homeomorphic", "left", "oriented", "reason", "right"}


def assert_verdict_keys(verdict, smooth=False):
    assert set(verdict) == VERDICT
    for side in (verdict["left"], verdict["right"]):
        if smooth:
            assert side is None
        else:
            assert set(side) == INVARIANTS and set(side["form"]) == FORM


def test_exact_output_keys(fx, capsys, tmp_path):
    # A field added to a result record changes the CLI format; this pins it.
    matrix = str(tmp_path / "e8_form.json")
    Path(matrix).write_text(json.dumps({"entries": E8_MATRIX.rows()}))
    for argv, keys in (
        (["lkmatrix", fx("e8")], FORM),
        (["classify", matrix], {"definiteness", "parity", "rank", "signature"}),
        (["charvec", matrix], {"characteristic"}),
        (["form-compare", matrix, matrix], {"congruent", "witness"}),
        (["arf", fx("chern")], {"arf", "determinant"}),
        (["ks", fx("e8")], INVARIANTS),
    ):
        code, out = run_json(capsys, argv)
        assert code == 0 and set(out) == keys, argv
    assert set(out["form"]) == FORM

    for flags in ([], ["--unoriented"], ["--smooth"]):
        code, out = run_json(capsys, ["homeo", *flags, fx("e8"), fx("e8")])
        assert code == 0
        assert_verdict_keys(out, smooth=flags == ["--smooth"])

    pairs = tmp_path / "pairs.tsv"
    pairs.write_text(f"{fx('cp2')}\t{fx('chern')}\n")
    code, out = run_json(capsys, ["homeo", "--batch", str(pairs)])
    assert code == 0 and set(out) == {"results"}
    [result] = out["results"]
    assert set(result) == {"files", "verdict"}
    assert_verdict_keys(result["verdict"])

    code, out = run_json(capsys, ["--json", "homeo", fx("cp2"), fx("chern")])
    assert code == 0
    assert set(out) == {"command", "duration_ms", "inputs", "result"}
    assert [set(i) for i in out["inputs"]] == [{"file", "sha256"}] * 2
    assert_verdict_keys(out["result"])


def test_every_valid_fixture_runs_ks(capsys):
    for path in shipped_fixtures():
        if path.stem.startswith("invalid"):
            assert run(["ks", str(path)]) == 1
        else:
            assert run(["ks", str(path)]) == 0, path.stem
        capsys.readouterr()


def test_non_planar_pd_is_input_error(capsys, tmp_path):
    # Each arc and strand checks out, but the two crossings bound only two
    # faces where a planar diagram has four.
    path = tmp_path / "torus.json"
    path.write_text('{"pd": [[4,3,1,2],[1,3,2,4]], "framings": [1]}')
    assert run(["ks", str(path)]) == 1
    assert "not a planar diagram" in capsys.readouterr().err


def test_arc_entering_two_under_passages_is_input_error(capsys, tmp_path):
    # Planar, and every strand follows label succession, but arc 1 enters
    # both under passages, so the two-arc component has no orientation.
    path = tmp_path / "twice.json"
    path.write_text('{"pd": [[1,4,2,3],[1,3,2,4]], "framings": [0, 0]}')
    assert run(["ks", str(path)]) == 1
    assert "two incoming" in capsys.readouterr().err


def test_boolean_framing_is_input_error(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"pd": [], "unknots": 1, "framings": [true]}')
    assert run(["ks", str(path)]) == 1
    assert '"framings" must be a list of integers' in capsys.readouterr().err


def test_boolean_matrix_size_is_input_error(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"n": true, "entries": [[1]]}')
    assert run(["classify", str(path)]) == 1
    assert '"n"' in capsys.readouterr().err


def test_boolean_matrix_entry_is_input_error(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"entries": [[true]]}')
    assert run(["classify", str(path)]) == 1
    assert '"entries" must be a grid of integers' in capsys.readouterr().err


def test_enum_cap_exits_2(fx, capsys, monkeypatch, tmp_path):
    a = tmp_path / "i2.json"
    a.write_text('{"entries": [[1,0],[0,1]]}')
    monkeypatch.setenv("KIRBY4_MAX_ENUM", "2")
    assert run(["form-compare", str(a), str(a)]) == 2
    assert "KIRBY4_MAX_ENUM" in capsys.readouterr().err
    monkeypatch.setenv("KIRBY4_MAX_ENUM", "1000")
    assert run(["form-compare", str(a), str(a)]) == 0


@pytest.mark.parametrize("cap,code", [("240", 0), ("239", 2)])
def test_enum_cap_boundary_e8(fx, capsys, monkeypatch, cap, code):
    # E8 has 240 roots and both linking forms reduce to root bases, so each
    # enumeration finds exactly 240 vectors: a cap of 240 decides, 239 stops.
    monkeypatch.setenv("KIRBY4_MAX_ENUM", cap)
    assert run(["homeo", fx("e8"), fx("e8")]) == code
    if code:
        assert f"enumeration candidates exceed KIRBY4_MAX_ENUM={cap}" in capsys.readouterr().err


@pytest.mark.parametrize("value,code", [("-1", 1), ("two", 1), ("", 0), ("0", 2)])
def test_enum_cap_values(capsys, monkeypatch, tmp_path, value, code):
    a = tmp_path / "i2.json"
    a.write_text('{"entries": [[1,0],[0,1]]}')
    monkeypatch.setenv("KIRBY4_MAX_ENUM", value)
    assert run(["form-compare", str(a), str(a)]) == code
    if code:
        assert "KIRBY4_MAX_ENUM" in capsys.readouterr().err


def test_json_report_input_vanishing_mid_run_is_input_error(capsys, monkeypatch, tmp_path):
    matrix = tmp_path / "h.json"
    matrix.write_text('{"n": 2, "entries": [[0,1],[1,0]]}')
    classify = cli.classify

    def classify_then_delete(v):
        matrix.unlink()
        return classify(v)

    monkeypatch.setattr(cli, "classify", classify_then_delete)
    assert run(["--json", "classify", str(matrix)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read")


def test_repeated_runs_leak_no_state(fx, capsys):
    rounds = []
    for _ in range(2):
        calls = []
        for argv in (
            ["homeo", "--unoriented", fx("cp2"), fx("cp2_bar")],
            ["homeo", fx("cp2"), fx("cp2_bar")],
            ["homeo"],
            ["no-such-command"],
            ["--help"],
            ["ks", "--bogus", fx("cp2")],
            ["--json", "ks", fx("chern")],
        ):
            code = run(argv)
            captured = capsys.readouterr()
            out = re.sub(r'"duration_ms":\d+', '"duration_ms":0', captured.out)
            calls.append((code, out, captured.err))
        rounds.append(calls)
    assert rounds[0] == rounds[1]
    codes = [code for code, _, _ in rounds[0]]
    assert codes == [0, 0, 1, 1, 0, 1, 0]
    assert json.loads(rounds[0][0][1])["homeomorphic"] is True
    assert json.loads(rounds[0][1][1])["homeomorphic"] is False
    assert rounds[0][4][1].startswith("usage: kirby4")
    assert json.loads(rounds[0][6][1])["command"] == "ks"


def test_parser_built_once_per_process(fx, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "kirby4":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(3):
        assert run(["ks", fx("cp2")]) == 0
    assert len(built) <= 1


def test_fixture_path_helper():
    assert fixture_path("cp2").exists()
    assert len(corpus()) == len(shipped_fixtures())
