"""The benchmark's per-layer metrics name functions of quiverhom.  A rename
would leave such a metric silently at zero, and so would a bypass: callers
that reach the work past the named function.  This reads BENCHMARK.json and
bench/tracing.py (without changing either), checks that every function or
method span they name still resolves, and that a traced `verify all` calls
each one."""

import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
# spans BENCHMARK.json still names although the package deleted their
# function on purpose, so their metrics read 0 until the benchmark drops
# them; each must still be named and must not resolve, so none goes stale
RETIRED = {"homology.projective_resolution"}


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_under_test", ROOT / "bench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _metric_names():
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def _named_spans():
    # "<layer>.<function>.<figure>" names a span; harness.suite_s.<suite> is
    # the run_suite counter, checked below
    return {n.rsplit(".", 1)[0] for n in _metric_names() if n.count(".") == 2 and not n.startswith("harness.suite_s.")}


def test_every_traced_span_resolves_to_a_function():
    tracing = _tracing()
    methods = {span: (layer, cls, meth) for layer, cls, meth, span in tracing.METHODS}
    spans = _named_spans() | set(methods) | set(tracing.BEFORE) | set(tracing.AFTER)
    assert len(spans) > len(methods)
    assert RETIRED <= spans
    missing, resolved = [], []
    for span in sorted(spans):
        layer, name = span.split(".")
        assert layer in tracing.LAYERS, span
        mod = importlib.import_module("quiverhom." + layer)
        if span in methods:
            _, cls, meth = methods[span]
            ok = isinstance(getattr(getattr(mod, cls, None), meth, None), types.FunctionType)
        else:
            # tracing wraps the public functions a layer module defines itself
            obj = getattr(mod, name, None)
            ok = isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
        if span in RETIRED:
            if ok:
                resolved.append(span)
        elif not ok:
            missing.append(span)
    assert not missing, f"spans that no longer resolve: {missing}"
    assert not resolved, f"retired spans that resolve again: {resolved}"


def test_every_named_span_is_called_by_verify_all():
    # in a child process, because tracing.install rebinds the package's
    # functions for the whole process; bench/child.py is the benchmark's own
    spec = {"src": str(ROOT / "src"), "argvs": [["verify", "all", "--seed", "1", "--trials", "2"]], "per_trial": False, "trace": True}
    child = [sys.executable, str(ROOT / "bench" / "child.py"), json.dumps(spec)]
    result = json.loads(subprocess.run(child, capture_output=True, text=True, check=True).stdout.splitlines()[-1])
    assert result["exit_codes"] == [0]
    uncalled = sorted(span for span in _named_spans() - RETIRED if not result["trace"].get(span + ".calls"))
    assert not uncalled, f"spans a traced verify all never calls: {uncalled}"


def test_every_suite_timer_names_a_suite():
    from quiverhom.harness import SUITES

    suites = [n.split(".", 2)[2] for n in _metric_names() if n.startswith("harness.suite_s.")]
    assert suites and set(suites) <= set(SUITES)
