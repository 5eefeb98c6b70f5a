"""CLI surface: subcommands, exit codes, canonical JSON, fixture corpus."""

import json

import pytest

from kirby4 import cli
from kirby4.cli import run
from kirby4.fixtures import corpus, fixture_path, shipped_fixtures, write_corpus


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


def test_arf_rejects_links(fx, capsys):
    assert run(["arf", fx("s2xs2")]) == 1
    assert "error" in capsys.readouterr().err


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


@pytest.mark.parametrize("content", [None, b"\xff\xfe"], ids=["missing", "not_utf8"])
def test_batch_unreadable_is_input_error(capsys, tmp_path, content):
    pairs = tmp_path / "pairs.tsv"
    if content is not None:
        pairs.write_bytes(content)
    code = run(["homeo", "--batch", str(pairs)])
    assert code == 1
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


def test_default_output_round_trips(fx, capsys):
    for argv in (["lkmatrix", fx("e8")], ["ks", fx("chern")]):
        code = run(argv)
        assert code == 0
        raw = capsys.readouterr().out.strip()
        assert canonical(json.loads(raw)) == raw


def test_every_valid_fixture_runs_ks(capsys):
    for path in shipped_fixtures():
        if path.stem.startswith("invalid"):
            assert run(["ks", str(path)]) == 1
        else:
            assert run(["ks", str(path)]) == 0, path.stem
        capsys.readouterr()


def test_enum_cap_exits_2(fx, capsys, monkeypatch, tmp_path):
    a = tmp_path / "i2.json"
    a.write_text('{"entries": [[1,0],[0,1]]}')
    monkeypatch.setenv("KIRBY4_MAX_ENUM", "2")
    assert run(["form-compare", str(a), str(a)]) == 2
    assert "KIRBY4_MAX_ENUM" in capsys.readouterr().err
    monkeypatch.setenv("KIRBY4_MAX_ENUM", "1000")
    assert run(["form-compare", str(a), str(a)]) == 0


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


def test_fixture_path_helper():
    assert fixture_path("cp2").exists()
    assert len(corpus()) == len(shipped_fixtures())
