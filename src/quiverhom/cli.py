"""Command line interface.

Subcommands:
  classify <file> [--class ...] [--oracle]   classify a representation file
  purity <file>                               purity of a short exact sequence
  ext <file> --x NAME --y NAME --n DEGREE     Ext between two named reps
  rooted <quiverfile>                         rootedness of a quiver
  verify <suite|all> [--seed S] [--trials T] [--modulus-list ...] [--config F]
  fixture nonpure                             replay the non-pure fixture

Exit codes: 0 all checks pass, 1 assertion failure (a theorem-violation
finding), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .classify import (
    classify_flat,
    classify_fp_injective,
    classify_gorenstein_sfp,
    classify_injective,
    classify_projective,
    classify_strongly_fp_injective,
)
from .harness import (
    NONPURE_FIXTURE_MODULI,
    SUITES,
    Config,
    TrialReport,
    is_vertexwise_split,
    nonpure_fixture_ses,
    run_all,
    run_suite,
)
from .homology import ext as ext_group
from .homology import rep_digest
from .io import FormatError, load_json, quiver_from_dict, rep_from_dict, reps_file_from_dict, ses_from_dict
from .purity import definitional_purity_check, is_pure_rep_ses
from .quiver import has_directed_cycle, is_left_rooted, is_right_rooted, root_sequence
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
    if not rows:
        return
    widths = [max(len(str(r[c])) for r in rows) for c in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


def cmd_classify(args) -> int:
    try:
        x = rep_from_dict(load_json(args.file))
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wanted = list(CLASSIFIERS) if args.cls == "all" else [args.cls]
    rows = [["class", "verdict", "mode", "oracle"]]
    records = []
    for name in wanted:
        fn = CLASSIFIERS[name]
        if name in ("injective", "projective", "strongly-fp-injective", "gorenstein") and args.oracle:
            cv = fn(x, with_oracle=True)
        else:
            cv = fn(x)
        rows.append([name, str(cv.verdict), cv.mode, str(cv.oracle)])
        records.append(
            {
                "class": name,
                "verdict": cv.verdict,
                "mode": cv.mode,
                "oracle": cv.oracle,
                "instance": rep_digest(x),
            }
        )
    if args.json:
        for rec in records:
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    else:
        _print_table(rows)
    disagree = any(r["oracle"] is not None and r["oracle"] != r["verdict"] for r in records)
    return 1 if disagree else 0


def cmd_purity(args) -> int:
    try:
        ses = ses_from_dict(load_json(args.file))
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = is_pure_rep_ses(ses)
    defin, tested, witness = definitional_purity_check(ses)
    record = {
        "pure": verdict.pure,
        "definitional": defin,
        "tested_objects": tested,
        "witness": verdict.witness if not verdict.pure else None,
    }
    if args.json:
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    else:
        _print_table([["pure", "definitional", "tested"], [str(verdict.pure), str(defin), str(tested)]])
    return 0 if verdict.pure == defin else 1


def cmd_ext(args) -> int:
    if args.n < 0:
        print(f"error: --n must be at least 0, got {args.n}", file=sys.stderr)
        return 2
    try:
        _, q, reps = reps_file_from_dict(load_json(args.file))
        x = reps[args.x]
        y = reps[args.y]
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: representation {exc} not found in file", file=sys.stderr)
        return 2
    if has_directed_cycle(q):
        print("error: ext needs an acyclic quiver", file=sys.stderr)
        return 2
    value = ext_group(x, y, args.n)
    record = {"degree": args.n, "ext": str(value.value), "cardinality": value.cardinality}
    if args.json:
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    else:
        _print_table([["degree", "ext", "cardinality"], [str(args.n), str(value.value), str(value.cardinality)]])
    return 0


def cmd_rooted(args) -> int:
    try:
        q = quiver_from_dict(load_json(args.file))
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rs = root_sequence(q)
    record = {
        "right_rooted": is_right_rooted(q),
        "left_rooted": is_left_rooted(q),
        "fixpoint_index": rs.fixpoint_index,
        "stages": [sorted(map(str, s)) for s in rs.stages],
    }
    if args.json:
        print(json.dumps(record, sort_keys=True, separators=(",", ":")))
    else:
        _print_table(
            [
                ["right_rooted", "left_rooted", "fixpoint"],
                [str(record["right_rooted"]), str(record["left_rooted"]), str(rs.fixpoint_index)],
            ]
        )
    return 0


def _emit_reports(reports: List[TrialReport], as_json: bool) -> int:
    failures = [r for r in reports if not r.ok]
    if as_json:
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
        for r in failures[:10]:
            print(f"FAIL {r.suite}[{r.trial}] seed={r.seed} verdicts={r.verdicts}")
    return 1 if failures else 0


def cmd_verify(args) -> int:
    if args.config:
        try:
            cfg = Config.from_dict(load_json(args.config))
        except (FormatError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        cfg = Config()
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.modulus_list:
        cfg.moduli = tuple(args.modulus_list)
    try:
        cfg.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trials = args.trials
    if trials is not None and trials < 1:
        print(f"error: --trials must be at least 1, got {trials}", file=sys.stderr)
        return 2
    if args.suite == "all":
        reports = run_all(cfg, trials)
    else:
        if args.suite not in SUITES:
            print(f"error: unknown suite {args.suite!r}; known: {', '.join(SUITES)}", file=sys.stderr)
            return 2
        reports = run_suite(args.suite, cfg, trials)
    return _emit_reports(reports, args.json)


def cmd_fixture(args) -> int:
    if args.name != "nonpure":
        print(f"error: unknown fixture {args.name!r}", file=sys.stderr)
        return 2
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
    if args.json:
        for rec in records:
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    else:
        rows = [["modulus", "pure"]] + [[str(r["modulus"]), str(r["pure"])] for r in records]
        _print_table(rows)
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


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
