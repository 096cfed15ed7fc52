"""Command line interface.

Subcommands:
  classify <file> [--class ...] [--oracle]   classify a representation file
  purity <file>                               purity of a short exact sequence
  ext <file> --x NAME --y NAME --n DEGREE     Ext between two named reps
  rooted <quiverfile>                         rootedness of a quiver
  verify <suite|all> [--seed S] [--trials T] [--modulus-list ...] [--config F]
  fixture nonpure                             replay the non-pure fixture

Exit codes: 0 all checks pass, 1 a check failed (a theorem-violation
finding), 2 usage or input error, a harness error in a `verify` trial, or
an exception that escaped a command.

Commands return their exit code and catch nothing: `main` alone turns a
`FormatError`, `OSError` or `harness.UsageError` into `error: ...` on
stderr, and any other exception into its traceback, both with exit 2.
Every command but `verify` writes its records through `_emit`: JSON lines
with `--json`, a table otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from typing import List, Optional

from .classify import (
    classify_flat,
    classify_fp_injective,
    classify_gorenstein_sfp,
    classify_injective,
    classify_projective,
    classify_strongly_fp_injective,
)
from .harness import NONPURE_FIXTURE_MODULI, Config, UsageError, is_vertexwise_split, nonpure_fixture_ses, run_all
from .homology import ext as ext_group
from .io import FormatError, load_json, quiver_from_dict, rep_from_dict, reps_file_from_dict, ses_from_dict
from .purity import definitional_purity_check, is_pure_rep_ses
from .quiver import has_directed_cycle, is_left_rooted, is_right_rooted, root_sequence
from .rep import rep_digest
from .znmod import Modulus

CLASSIFIERS = {
    "injective": classify_injective,
    "projective": classify_projective,
    "flat": classify_flat,
    "fp-injective": classify_fp_injective,
    "strongly-fp-injective": classify_strongly_fp_injective,
    "gorenstein": classify_gorenstein_sfp,
}


def _print_table(rows: List[List[str]]):
    widths = [max(len(str(r[c])) for r in rows) for c in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


def _emit(args, records: List[dict], rows: List[List[str]]):
    """One JSON line per record with --json, else the table rows."""
    if args.json:
        for rec in records:
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    else:
        _print_table(rows)


def cmd_classify(args) -> int:
    x = rep_from_dict(load_json(args.file))
    wanted = list(CLASSIFIERS) if args.cls == "all" else [args.cls]
    rows = [["class", "verdict", "mode", "oracle"]]
    records = []
    for name in wanted:
        cv = CLASSIFIERS[name](x, with_oracle=args.oracle)
        rows.append([name, str(cv.verdict), cv.mode, str(cv.oracle)])
        records.append({"class": name, "verdict": cv.verdict, "mode": cv.mode, "oracle": cv.oracle, "instance": rep_digest(x)})
    _emit(args, records, rows)
    disagree = any(r["oracle"] is not None and r["oracle"] != r["verdict"] for r in records)
    return 1 if disagree else 0


def cmd_purity(args) -> int:
    ses = ses_from_dict(load_json(args.file))
    verdict = is_pure_rep_ses(ses)
    defin, tested, witness = definitional_purity_check(ses)
    record = {
        "pure": verdict.pure,
        "definitional": defin,
        "tested_objects": tested,
        "witness": verdict.witness if not verdict.pure else None,
    }
    _emit(args, [record], [["pure", "definitional", "tested"], [str(verdict.pure), str(defin), str(tested)]])
    return 0 if verdict.pure == defin else 1


def cmd_ext(args) -> int:
    if args.n < 0:
        raise UsageError(f"--n must be at least 0, got {args.n}")
    _, q, reps = reps_file_from_dict(load_json(args.file))
    for name in (args.x, args.y):
        if name not in reps:
            raise UsageError(f"representation {name!r} not found in file")
    if has_directed_cycle(q):
        raise UsageError("ext needs an acyclic quiver")
    value = ext_group(reps[args.x], reps[args.y], args.n)
    record = {"degree": args.n, "ext": str(value), "cardinality": value.cardinality}
    _emit(args, [record], [["degree", "ext", "cardinality"], [str(args.n), str(value), str(value.cardinality)]])
    return 0


def cmd_rooted(args) -> int:
    q = quiver_from_dict(load_json(args.file))
    rs = root_sequence(q)
    record = {
        "right_rooted": is_right_rooted(q),
        "left_rooted": is_left_rooted(q),
        "fixpoint_index": rs.fixpoint_index,
        "stages": [sorted(map(str, s)) for s in rs.stages],
    }
    rows = [["right_rooted", "left_rooted", "fixpoint"], [str(record["right_rooted"]), str(record["left_rooted"]), str(rs.fixpoint_index)]]
    _emit(args, [record], rows)
    return 0


def cmd_verify(args) -> int:
    base = Config.from_dict(load_json(args.config)) if args.config else Config()
    cfg = dataclasses.replace(
        base,
        master_seed=base.master_seed if args.seed is None else args.seed,
        moduli=tuple(args.modulus_list) if args.modulus_list else base.moduli,
        suites=base.suites if args.suite == "all" else (args.suite,),
    )
    reports = run_all(cfg, args.trials)
    bad = [r for r in reports if not r.ok]
    if args.json:
        for r in reports:
            print(r.to_json())
    else:
        rows = [["suite", "trials", "failures"]]
        by_suite = {}
        for r in reports:
            by_suite.setdefault(r.suite, []).append(r)
        for name, rs in by_suite.items():
            rows.append([name, str(len(rs)), str(sum(1 for r in rs if not r.ok))])
        _print_table(rows)
        for r in bad[:10]:
            print(f"{'ERROR' if r.harness_error else 'FAIL'} {r.suite}[{r.trial}] seed={r.seed} verdicts={r.verdicts}")
    if any(r.harness_error for r in bad):
        return 2
    return 1 if bad else 0


def cmd_fixture(args) -> int:
    if args.name != "nonpure":
        raise UsageError(f"unknown fixture {args.name!r}")
    records = []
    for n in NONPURE_FIXTURE_MODULI:
        ses = nonpure_fixture_ses(Modulus(n))
        verdict = is_pure_rep_ses(ses)
        records.append(
            {
                "modulus": n,
                "exact": True,
                "vertexwise_split": is_vertexwise_split(ses),
                "pure": verdict.pure,
                "witness": verdict.witness,
            }
        )
    _emit(args, records, [["modulus", "pure"]] + [[str(r["modulus"]), str(r["pure"])] for r in records])
    return 1 if any(r["pure"] or not r["vertexwise_split"] for r in records) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quiverhom", description="exact quiver-representation toolkit over Z/n")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a representation")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", default="all", choices=["all"] + list(CLASSIFIERS))
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("purity", help="purity of a short exact sequence")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_purity)

    p = sub.add_parser("ext", help="Ext group between two representations in a reps file")
    p.add_argument("file")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_ext)

    p = sub.add_parser("rooted", help="rootedness of a quiver")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_rooted)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--modulus-list", type=int, nargs="+", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("fixture", help="replay a named fixture")
    p.add_argument("name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_fixture)

    return parser


# built on the first `main` call, not at import, so that the `cmd_*`
# functions it dispatches to are the module's bindings at that time
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (FormatError, OSError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception:
        traceback.print_exc()
    return 2


if __name__ == "__main__":
    sys.exit(main())
