"""One measured quiverhom process.

Usage: python3 child.py SPEC_JSON

SPEC is ``{"src": dir, "argvs": [[...], ...], "per_trial": bool,
"trace": bool}``.  The process imports quiverhom from ``src``, runs
``cli.main(argv)`` for each argv with stdout captured, and prints one JSON
line: the CPU time at which set-up ended, the CPU time spent inside
``cli.main``, per-item CPU times, pass counts, a digest of the captured
stdout, peak RSS and, when traced, the span summary.  Times are this
process's CPU time, not wall time: see README.md.

With ``per_trial`` an item is one trial: the suite body that
``harness._run_trials`` receives is timed.  Otherwise an item is one
``cli.main`` call.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

import numpy  # noqa: E402
from quiverhom import cli, harness  # noqa: E402

tracer = None
if spec["trace"]:
    import tracing  # noqa: E402

    tracer = tracing.install()

item_ms = []
if spec["per_trial"]:
    _run_trials = harness._run_trials

    def timed_run_trials(suite, config, trials, body):
        def timed(rng, t):
            t0 = time.process_time()
            try:
                return body(rng, t)
            finally:
                item_ms.append((time.process_time() - t0) * 1e3)

        return _run_trials(suite, config, trials, timed)

    harness._run_trials = timed_run_trials

setup_s = time.process_time()

out = io.StringIO()
codes = []
failures = []
work_s = 0.0
for argv in spec["argvs"]:
    t0 = time.process_time()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # the CLI user sees a traceback and exit 1
            rc = 1
            failures.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
        else:
            if rc != 0 and not spec["per_trial"]:
                failures.append(f"{' '.join(argv)}: exit {rc}")
    dt = time.process_time() - t0
    work_s += dt
    codes.append(rc)
    if not spec["per_trial"]:
        item_ms.append(dt * 1e3)

text = out.getvalue()
if spec["per_trial"]:
    reports = [json.loads(line) for line in text.splitlines()]
    attempted = len(reports)
    bad = [r for r in reports if not r["pass"]]
    failures += [f"{r['suite']}[{r['trial']}] seed={r['seed']} {r['verdicts']}" for r in bad]
    # an exit code that disagrees with the reports fails every item
    failed = len(bad) if bool(bad) == any(codes) else attempted
else:
    attempted = len(codes)
    failed = sum(1 for rc in codes if rc != 0)

result = {
    "setup_s": setup_s,
    "work_s": work_s,
    "item_ms": item_ms,
    "attempted": attempted,
    "failed": failed,
    "exit_codes": codes,
    "failures": failures,
    "sha256": hashlib.sha256(text.encode()).hexdigest(),
    "stdout_bytes": len(text.encode()),
    "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "numpy": numpy.__version__,
    "trace": None if tracer is None else tracing.summarize(tracer.spans, tracer.counters),
}
sys.stdout.write(json.dumps(result) + "\n")
