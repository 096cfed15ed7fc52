"""The benchmark's per-layer metrics name functions of quiverhom; a rename
would leave such a metric silently at zero.  This reads BENCHMARK.json and
bench/tracing.py (without changing either) and checks that every function
or method span they name still resolves."""

import importlib
import importlib.util
import json
import pathlib
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


def test_every_traced_span_resolves_to_a_function():
    tracing = _tracing()
    methods = {span: (layer, cls, meth) for layer, cls, meth, span in tracing.METHODS}
    # "<layer>.<function>.<figure>" names a span; harness.suite_s.<suite> is
    # the run_suite counter, checked below
    spans = {n.rsplit(".", 1)[0] for n in _metric_names() if n.count(".") == 2 and not n.startswith("harness.suite_s.")}
    spans |= set(methods) | set(tracing.BEFORE) | set(tracing.AFTER)
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


def test_every_suite_timer_names_a_suite():
    from quiverhom.harness import SUITES

    suites = [n.split(".", 2)[2] for n in _metric_names() if n.startswith("harness.suite_s.")]
    assert suites and set(suites) <= set(SUITES)
