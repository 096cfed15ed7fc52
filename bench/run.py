"""The quiverhom benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record

Closed loop, one caller: one child process at a time, each a fresh,
single-threaded Python that imports quiverhom from ``src/`` and runs a
fixed input through ``quiverhom.cli.main``.  A run starts a fixed number
of children, sized so that it takes about ``--seconds`` of wall time on
the reference machine; the figures themselves are CPU time (README.md
says why).  With ``--trace 1`` each input runs once plain and once under
`tracing`, and the per-layer figures come from the traced child.  The last stdout line is the JSON result; the lines before it give
the environment and every metric with its unit.  ``--record`` rewrites
``digests.json`` (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

sys.path.insert(0, HERE)
import gen  # noqa: E402
import tracing  # noqa: E402

# name -> (verify suite, trials per child) or None for the file workload
WORKLOADS = {
    "verify_all": ("all", 10),
    "gorenstein": ("gorenstein", 20),
    "ext_engine": ("ext_engine", 20),
    "large_reps": None,
}
# nominal wall seconds of one child on the reference machine (README.md);
# a run of S seconds starts S / CHILD_S children, whatever the clock says,
# so `attempted` and `failed` depend only on workload, seed and --seconds
CHILD_S = {"verify_all": 4.5, "gorenstein": 2.4, "ext_engine": 2.2, "large_reps": 2.5}
FILES_PER_CHILD = 16
INPUTS = 40  # distinct child inputs per (workload, seed); children cycle through them
TRACE_INPUTS = 3
RECORDED_SEEDS = (42, 7)  # the default seed and one held-out seed
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

SUITES = (
    "rootedness", "purity_bridge", "classification", "gorenstein", "closure", "stability", "products",
    "right_adjoint", "nonpure_fixture", "totally_acyclic", "collapse", "adjunction", "ext_engine", "orthogonality",
)


def _per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in tracing.LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
    units.update({
        "linalg.howell_form.calls": "count",
        "linalg.howell_form.self_s": "s",
        "linalg.howell_form.cells": "count",
        "linalg.howell_form.repeat_ratio": "ratio",
    })
    for bucket, _ in tracing.CELL_BUCKETS:
        units["linalg.howell_form.calls_" + bucket] = "count"
    units.update({
        "linalg.solve_left.calls": "count",
        "linalg.solve_left.self_s": "s",
        "linalg.solve_left.inconsistent": "count",
        "linalg.diagonalize.calls": "count",
        "linalg.diagonalize.self_s": "s",
        "znmod.present.calls": "count",
        "znmod.subgroup_present.calls": "count",
        "znmod.kernel_of_hom.calls": "count",
        "znmod.is_exact_at.calls": "count",
        "znmod.is_exact_at.incl_s": "s",
        "znmod.is_exact_at.present_calls": "count",
        "znmod.verify_gi_certificate.incl_s": "s",
        "znmod.ambient_coords_solve.calls": "count",
        "znmod.ambient_coords_solve.incl_s": "s",
        "rep.hom_reps.calls": "count",
        "rep.hom_reps.incl_s": "s",
        "rep.tensor.incl_s": "s",
        "rep.adjunction_check.incl_s": "s",
        "homology.ext.incl_s": "s",
        "homology.projective_resolution.incl_s": "s",
        "homology.ext1_extension_count.calls": "count",
        "homology.ext1_extension_count.incl_s": "s",
        "homology.ext1_extension_count.capped": "count",
        "purity.is_pure_rep_ses.incl_s": "s",
        "purity.definitional_purity_check.incl_s": "s",
        "classify.classify_injective.incl_s": "s",
        "classify.classify_gorenstein_sfp.incl_s": "s",
    })
    for suite in SUITES:
        units["harness.suite_s." + suite] = "s"
    units["io.load_s"] = "s"
    units["cli.stdout_bytes"] = "bytes"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an output mismatch)."""


def child_argvs(workload: str, seed: int, k: int, workdir: str) -> List[List[str]]:
    """The quiverhom command lines of child input `k`, made from `seed` only."""
    spec = WORKLOADS[workload]
    if spec is None:
        return gen.write_items(seed, range(k * FILES_PER_CHILD, (k + 1) * FILES_PER_CHILD), workdir)
    suite, trials = spec
    return [["verify", suite, "--seed", str(seed * 1000 + k), "--trials", str(trials), "--json"]]


def child_count(workload: str, seconds: float) -> int:
    """Children in a run of `seconds`: at least two, so two processes' bytes are compared."""
    return max(2, round(seconds / CHILD_S[workload]))


def run_child(argvs: List[List[str]], per_trial: bool, trace: bool) -> dict:
    spec = json.dumps({"src": SRC, "argvs": argvs, "per_trial": per_trial, "trace": trace})
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    cpu0 = _children_cpu_s()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), spec],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    res = json.loads(out.decode().splitlines()[-1])
    res["cpu_s"] = _children_cpu_s() - cpu0
    return res


def _children_cpu_s() -> float:
    """User plus system CPU time of all waited-for children so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(workload: str, seed: int, children: List[tuple]) -> List[str]:
    """Mismatches among (input, result) pairs: against the recorded digest
    for recorded seeds, and between children that ran the same input."""
    recorded = load_digests().get(workload, {}).get(str(seed))
    first: Dict[int, str] = {}
    problems = []
    for k, res in children:
        digest = res["sha256"]
        if recorded is not None and digest != recorded[k]:
            problems.append(f"input {k}: stdout digest {digest[:12]} != recorded {recorded[k][:12]}")
        if first.setdefault(k, digest) != digest:
            problems.append(f"input {k}: stdout differs between two runs")
    return problems


def quantile(values: List[float], q: int) -> float:
    """The q-th decile (q=5 is the median)."""
    return statistics.quantiles(values, n=10)[q - 1]


def end_to_end(children: List[dict]) -> Dict[str, float]:
    items = [ms for c in children for ms in c["item_ms"]]
    return {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "items_per_s": sum(c["attempted"] for c in children) / sum(c["cpu_s"] for c in children),
        "item_ms_p50": quantile(items, 5),
        "item_ms_p90": quantile(items, 9),
        "peak_rss_mb": statistics.median(c["rss_kb"] for c in children) / 1024,
    }


def per_layer(pairs: Dict[int, List[tuple]]) -> Dict[str, float]:
    """Per input, the median over its (plain, traced) pairs; summed over inputs."""
    total: Dict[str, float] = {}
    plain_s = traced_s = 0.0
    for runs in pairs.values():
        plain_s += statistics.median(p["work_s"] for p, _ in runs)
        traced_s += statistics.median(t["work_s"] for _, t in runs)
        keys = set().union(*(t["trace"] for _, t in runs))
        for key in keys:
            total[key] = total.get(key, 0) + statistics.median(t["trace"].get(key, 0) for _, t in runs)
        total["cli.stdout_bytes"] = total.get("cli.stdout_bytes", 0) + runs[0][1]["stdout_bytes"]
    howell = total.get("linalg.howell_form.calls", 0)
    total["linalg.howell_form.repeat_ratio"] = total.get("linalg.howell_form.repeats", 0) / howell if howell else 0.0
    total["io.load_s"] = total.get("io.incl_s", 0.0)
    total["trace.overhead_ratio"] = traced_s / plain_s
    return {name: total.get(name, 0) for name in PER_LAYER}


def environment(children: List[dict]) -> dict:
    commit = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    tree = hashlib.sha256()
    pkg = os.path.join(SRC, "quiverhom")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                tree.update(name.encode() + b"\0" + fh.read())
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": children[0]["numpy"],
        "commit": commit,
        "src_sha256": tree.hexdigest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    per_trial = WORKLOADS[workload] is not None
    argvs: Dict[int, List[List[str]]] = {}

    def child(k: int, traced: bool) -> dict:
        if k not in argvs:
            argvs[k] = child_argvs(workload, seed, k, workdir)
        return run_child(argvs[k], per_trial, traced)

    n = child_count(workload, seconds)
    ran: List[tuple] = []
    if trace:
        pairs: Dict[int, List[tuple]] = {}
        for i in range(max(1, n // (2 * TRACE_INPUTS)) * TRACE_INPUTS):
            k = i % TRACE_INPUTS
            plain, traced = child(k, False), child(k, True)
            pairs.setdefault(k, []).append((plain, traced))
            ran += [(k, plain), (k, traced)]
    else:
        # input 0 runs twice first, so every run compares two processes' bytes
        for i in range(n):
            k = 0 if i == 0 else (i - 1) % INPUTS
            ran.append((k, child(k, False)))

    children = [res for _, res in ran]
    problems = check_outputs(workload, seed, ran)
    attempted = sum(c["attempted"] for c in children)
    failed = attempted if problems else sum(c["failed"] for c in children)
    if trace:
        metrics = per_layer(pairs)
        units = PER_LAYER
    else:
        metrics = end_to_end(children)
        units = END_TO_END
    return {
        "env": environment(children),
        "problems": problems,
        "failures": sorted({f for c in children for f in c["failures"]}),
        "children": len(children),
        "error_rate": failed / attempted,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }


def record() -> None:
    """Rewrite digests.json from one child per input for each recorded seed."""
    out: Dict[str, Dict[str, List[str]]] = {}
    workdir = tempfile.mkdtemp(prefix="record-", dir=_work_root())
    try:
        for workload in WORKLOADS:
            per_trial = WORKLOADS[workload] is not None
            for seed in RECORDED_SEEDS:
                digests = []
                for k in range(INPUTS):
                    res = run_child(child_argvs(workload, seed, k, workdir), per_trial, False)
                    for failure in res["failures"]:
                        print(f"FAILED {workload} seed {seed} input {k}: {failure}", flush=True)
                    digests.append(res["sha256"])
                out.setdefault(workload, {})[str(seed)] = digests
                print(f"recorded {workload} seed {seed}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _work_root() -> str:
    path = os.path.join(ROOT, ".bench_work")
    os.makedirs(path, exist_ok=True)
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=RECORDED_SEEDS[0])
    p.add_argument("--seconds", type=float, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="rewrite digests.json")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quiverhom", "cli.py")):
        print(f"error: no quiverhom sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    workdir = tempfile.mkdtemp(prefix="run-", dir=_work_root())
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = out["result"]
    print("env " + json.dumps(out["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} children {out['children']}")
    for problem in out["problems"]:
        print("MISMATCH " + problem)
    for failure in out["failures"][:10]:
        print("FAILED " + failure)
    print(f"{'error_rate':40s} {out['error_rate']:.6g} ratio ({res['failed']}/{res['attempted']} items)")
    for name, m in res["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
