"""Command-line surface.

Subcommands: lkmatrix, classify, form-compare, charvec, arf, ks, homeo.
Results print as canonical JSON (sorted keys, compact separators, integers
only): a result record prints as its fields; --json wraps it in a run report
with input hashes and timing.
Exit codes: 0 for a completed decision (whatever the verdict), 1 for input
errors, 2 for internal invariant violations or the enumeration cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from .classify import Verdict, homeomorphic_oriented, homeomorphic_unoriented
from .diagram import _is_int, linking_matrix, parse_framed_link
from .errors import (
    InputError,
    InternalInvariantViolation,
    MalformedInput,
    ResourceLimitExceeded,
)
from .forms import characteristic_vector, classify, congruent_with_witness
from .invariants import kirby_siebenmann
from .knot import _arf_from_determinant, alexander_at_minus_one
from .matrices import SymIntMatrix


@functools.cache
def _record_fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls) if f.compare)


def _record(obj) -> dict:
    """A dataclass record as its compared fields, so `SymIntMatrix.memo` stays out."""
    return {name: getattr(obj, name) for name in _record_fields(type(obj))}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_record)


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_link(path: str):
    return parse_framed_link(_read_bytes(path))


def _load_matrix(path: str) -> SymIntMatrix:
    try:
        data = json.loads(_read_bytes(path).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, too many digits
        raise MalformedInput(f"{path}: not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict) or "entries" not in data:
        raise MalformedInput(f'{path}: expected an object with "entries"')
    entries = data["entries"]
    if not isinstance(entries, list) or not all(  # type() also rules out true and false
        isinstance(r, list) and set(map(type, r)) <= {int} for r in entries
    ):
        raise MalformedInput(f'{path}: "entries" must be a grid of integers')
    m = SymIntMatrix.from_rows(entries)
    if "n" in data and (not _is_int(data["n"]) or data["n"] != m.n):
        raise MalformedInput(f'{path}: "n"={data["n"]} does not match {m.n} rows')
    return m


def _cmd_lkmatrix(args):
    return linking_matrix(_load_link(args.link))


def _cmd_classify(args):
    return classify(_load_matrix(args.matrix))


def _cmd_form_compare(args):
    ok, witness = congruent_with_witness(
        _load_matrix(args.matrix1), _load_matrix(args.matrix2)
    )
    return {"congruent": ok, "witness": witness}


def _cmd_charvec(args):
    return {"characteristic": characteristic_vector(_load_matrix(args.matrix))}


def _cmd_arf(args):
    det = alexander_at_minus_one(_load_link(args.link))
    return {"arf": _arf_from_determinant(det), "determinant": det}


def _cmd_ks(args):
    return kirby_siebenmann(_load_link(args.link))


def _decide(path1: str, path2: str, unoriented: bool, smooth: bool) -> Verdict:
    left, right = _load_link(path1), _load_link(path2)
    if unoriented:
        return homeomorphic_unoriented(left, right, smooth=smooth)
    return homeomorphic_oriented(left, right, smooth=smooth)


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

    def command(name, fn, help, *positionals, nargs=None, files=None):
        # `files` names the input-file arguments the --json report hashes, in
        # order; by default they are the positionals.
        p = sub.add_parser(name, help=help)
        for arg in positionals:
            p.add_argument(arg, nargs=nargs)
        p.set_defaults(fn=fn, files=positionals if files is None else files)
        return p

    command("lkmatrix", _cmd_lkmatrix, "linking matrix of a framed link", "link")
    command("classify", _cmd_classify, "rank/signature/parity/definiteness of a form", "matrix")
    command("form-compare", _cmd_form_compare, "decide integral congruence of two forms",
            "matrix1", "matrix2")
    command("charvec", _cmd_charvec, "0/1 characteristic vector of a form", "matrix")
    command("arf", _cmd_arf, "Arf invariant and determinant of a knot diagram", "link")
    command("ks", _cmd_ks, "all invariants of the presented 4-manifold", "link")
    p = command("homeo", _cmd_homeo, "decide homeomorphism of two presented manifolds",
                "link1", "link2", nargs="?", files=("link1", "link2", "batch"))
    p.add_argument("--unoriented", action="store_true",
                   help="also try the orientation-reversed second manifold")
    p.add_argument("--smooth", action="store_true",
                   help="assert both manifolds smooth: skip ks, classify definite forms")
    p.add_argument("--batch", metavar="PAIRS_TSV",
                   help="file of tab-separated link-file pairs, one per line")
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
            files = [getattr(args, a) for a in args.files if getattr(args, a)]
            if args.command == "homeo" and args.batch:  # then each link file it names
                files += dict.fromkeys(f for r in result["results"] for f in r["files"])
            result = {
                "command": args.command,
                "inputs": [
                    {"file": f, "sha256": hashlib.sha256(_read_bytes(f)).hexdigest()}
                    for f in files
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
