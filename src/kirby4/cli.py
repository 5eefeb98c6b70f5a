"""Command-line surface.

Subcommands: lkmatrix, classify, form-compare, charvec, arf, ks, homeo.
Results print as canonical JSON (sorted keys, compact separators, integers
only); --json wraps them in a run report with input hashes and timing.
Exit codes: 0 for a completed decision (whatever the verdict), 1 for input
errors, 2 for internal invariant violations or the enumeration cap.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from .classify import homeomorphic_oriented, homeomorphic_unoriented
from .diagram import _is_int, linking_matrix, parse_framed_link
from .errors import (
    InputError,
    InternalInvariantViolation,
    MalformedInput,
    NotAKnot,
    ResourceLimitExceeded,
)
from .forms import characteristic_vector, classify, congruent_with_witness
from .invariants import kirby_siebenmann
from .knot import KnotDiagram, _arf_from_determinant, alexander_at_minus_one
from .matrices import SymIntMatrix


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_link(path: str):
    return parse_framed_link(_read_bytes(path))


def _load_matrix(path: str) -> SymIntMatrix:
    try:
        data = json.loads(_read_bytes(path).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedInput(f"{path}: not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict) or "entries" not in data:
        raise MalformedInput(f'{path}: expected an object with "entries"')
    entries = data["entries"]
    if not isinstance(entries, list) or not all(
        isinstance(r, list) and all(_is_int(x) for x in r) for r in entries
    ):
        raise MalformedInput(f'{path}: "entries" must be a grid of integers')
    m = SymIntMatrix.from_rows(entries)
    if "n" in data and (not _is_int(data["n"]) or data["n"] != m.n):
        raise MalformedInput(f'{path}: "n"={data["n"]} does not match {m.n} rows')
    return m


def _cmd_lkmatrix(args):
    return linking_matrix(_load_link(args.link)).as_dict()


def _cmd_classify(args):
    return classify(_load_matrix(args.matrix)).as_dict()


def _cmd_form_compare(args):
    ok, witness = congruent_with_witness(
        _load_matrix(args.matrix1), _load_matrix(args.matrix2)
    )
    return {
        "congruent": ok,
        "witness": [list(r) for r in witness] if witness is not None else None,
    }


def _cmd_charvec(args):
    c = characteristic_vector(_load_matrix(args.matrix))
    return {"characteristic": list(c)}


def _cmd_arf(args):
    link = _load_link(args.link)
    if link.component_count() != 1:
        raise NotAKnot(f"arf needs one component, got {link.component_count()}")
    # The parse has validated the code, so the link's crossings are the knot.
    det = alexander_at_minus_one(KnotDiagram(link.crossings, link.over_in))
    return {"arf": _arf_from_determinant(det), "determinant": det}


def _cmd_ks(args):
    return kirby_siebenmann(_load_link(args.link)).as_dict()


def _decide(path1: str, path2: str, unoriented: bool, smooth: bool) -> dict:
    left, right = _load_link(path1), _load_link(path2)
    if unoriented:
        verdict = homeomorphic_unoriented(left, right, smooth=smooth)
    else:
        verdict = homeomorphic_oriented(left, right, smooth=smooth)
    return verdict.as_dict()


def _cmd_homeo(args):
    if args.batch:
        if args.link1 is not None or args.link2 is not None:
            raise InputError("homeo takes two link files or --batch, not both")
        try:
            text = _read_bytes(args.batch).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"{args.batch}: not valid UTF-8: {exc}") from exc
        results = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise MalformedInput(f"batch line needs two tab-separated paths: {line!r}")
            results.append(
                {"files": parts, "verdict": _decide(parts[0], parts[1], args.unoriented, args.smooth)}
            )
        return {"results": results}
    if not (args.link1 and args.link2):
        raise InputError("homeo needs two link files (or --batch)")
    return _decide(args.link1, args.link2, args.unoriented, args.smooth)


def _input_files(args) -> list[str]:
    files = []
    for attr in ("link", "matrix", "matrix1", "matrix2", "link1", "link2", "batch"):
        value = getattr(args, attr, None)
        if value:
            files.append(value)
    return files


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state on the parser, it
    # returns a fresh Namespace on every call.
    parser = argparse.ArgumentParser(
        prog="kirby4",
        description="decide homeomorphism of simply connected 4-manifolds "
        "presented as framed links",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a full run report as JSON"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lkmatrix", help="linking matrix of a framed link")
    p.add_argument("link")
    p.set_defaults(fn=_cmd_lkmatrix)

    p = sub.add_parser("classify", help="rank/signature/parity/definiteness of a form")
    p.add_argument("matrix")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("form-compare", help="decide integral congruence of two forms")
    p.add_argument("matrix1")
    p.add_argument("matrix2")
    p.set_defaults(fn=_cmd_form_compare)

    p = sub.add_parser("charvec", help="0/1 characteristic vector of a form")
    p.add_argument("matrix")
    p.set_defaults(fn=_cmd_charvec)

    p = sub.add_parser("arf", help="Arf invariant and determinant of a knot diagram")
    p.add_argument("link")
    p.set_defaults(fn=_cmd_arf)

    p = sub.add_parser("ks", help="all invariants of the presented 4-manifold")
    p.add_argument("link")
    p.set_defaults(fn=_cmd_ks)

    p = sub.add_parser("homeo", help="decide homeomorphism of two presented manifolds")
    p.add_argument("link1", nargs="?")
    p.add_argument("link2", nargs="?")
    p.add_argument("--unoriented", action="store_true",
                   help="also try the orientation-reversed second manifold")
    p.add_argument("--smooth", action="store_true",
                   help="assert both manifolds smooth: skip ks, classify definite forms")
    p.add_argument("--batch", metavar="PAIRS_TSV",
                   help="file of tab-separated link-file pairs, one per line")
    p.set_defaults(fn=_cmd_homeo)
    return parser


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        result = args.fn(args)
        duration_ms = int((time.perf_counter() - start) * 1000)
        if args.json:
            result = {
                "command": args.command,
                "inputs": [
                    {
                        "file": f,
                        "sha256": hashlib.sha256(_read_bytes(f)).hexdigest(),
                    }
                    for f in _input_files(args)
                ],
                "result": result,
                "duration_ms": duration_ms,
            }
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InternalInvariantViolation, ResourceLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_canonical(result))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
