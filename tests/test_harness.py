import dataclasses
import json
import random

import numpy as np
import pytest

from quiverhom import harness
from quiverhom.harness import (
    Config,
    TrialReport,
    UsageError,
    derive_seed,
    nonpure_fixture_ses,
    random_finmod,
    random_gorenstein_rep,
    random_injective_finmod,
    random_injective_rep,
    random_quiver,
    random_rep_ses,
    random_representation,
    run_all,
    run_suite,
    SUITES,
)
from quiverhom.quiver import a2, has_directed_cycle, is_right_rooted
from quiverhom.rep import rep_digest
from quiverhom.znmod import Modulus, is_injective_module


def test_derive_seed_is_stable():
    # frozen: replaying a (master, suite, trial) triple must reproduce reports
    assert derive_seed(42, "rootedness", 0) == derive_seed(42, "rootedness", 0)
    assert derive_seed(42, "rootedness", 0) != derive_seed(42, "rootedness", 1)
    assert derive_seed(42, "rootedness", 0) != derive_seed(43, "rootedness", 0)


def test_generators_deterministic():
    cfg = Config(master_seed=7)
    a = random.Random(123)
    b = random.Random(123)
    qa = random_quiver(a, cfg, max_vertices=6)
    qb = random_quiver(b, cfg, max_vertices=6)
    assert qa == qb
    modulus = Modulus(8)
    xa = random_representation(a, qa, modulus, cfg)
    xb = random_representation(b, qb, modulus, cfg)
    assert rep_digest(xa) == rep_digest(xb)


def test_random_quiver_constraints():
    cfg = Config()
    rng = random.Random(5)
    for _ in range(50):
        q = random_quiver(rng, cfg, right_rooted=True, max_vertices=6)
        assert is_right_rooted(q)
        q = random_quiver(rng, cfg, right_rooted=True, max_vertices=4)
        assert not has_directed_cycle(q)


def test_random_finmods_obey_caps():
    cfg = Config(max_module_cardinality=64)
    rng = random.Random(6)
    for n in (4, 8, 9, 6):
        modulus = Modulus(n)
        for _ in range(40):
            m = random_finmod(rng, modulus, cfg, max_rank=4)
            assert m.cardinality <= 64
            inj = random_injective_finmod(rng, modulus, cfg)
            assert is_injective_module(inj)


def test_random_rep_ses_valid():
    cfg = Config()
    rng = random.Random(8)
    modulus = Modulus(4)
    for _ in range(25):
        q = random_quiver(rng, cfg, right_rooted=True, max_vertices=3, max_arrows=3)
        x = random_representation(rng, q, modulus, cfg)
        ses = random_rep_ses(rng, x)  # RepSES constructor certifies exactness
        assert ses.y == x


def test_random_injective_and_gorenstein_reps():
    from quiverhom.classify import classify_injective, classify_gorenstein_sfp

    cfg = Config()
    rng = random.Random(9)
    modulus = Modulus(4)
    for _ in range(10):
        q = random_quiver(rng, cfg, right_rooted=True, max_vertices=3, max_arrows=3)
        j = random_injective_rep(rng, q, modulus, cfg)
        assert classify_injective(j).verdict
        g = random_gorenstein_rep(rng, q, modulus, cfg)
        assert classify_gorenstein_sfp(g).verdict


def test_trial_report_schema():
    r = TrialReport("suite", 3, 99, "abc", {"check": True}, True)
    rec = json.loads(r.to_json())
    assert set(rec) == {"suite", "trial", "seed", "instance", "verdicts", "pass", "ms"}
    assert rec["ms"] == 0


def test_single_trial_replay():
    cfg = Config(master_seed=42)
    first = run_suite("classification", dataclasses.replace(cfg, trials=5))
    again = run_suite("classification", dataclasses.replace(cfg, trials=5))
    assert [r.to_json() for r in first] == [r.to_json() for r in again]


def test_config_from_dict_and_validation():
    cfg = Config.from_dict({"moduli": [2, 4], "trials": 7, "master_seed": 5})
    assert cfg.moduli == (2, 4) and cfg.trials == 7
    with pytest.raises(ValueError):
        Config.from_dict({"trials": 0})


def test_nonpure_fixture_builder():
    ses = nonpure_fixture_ses(Modulus(9))
    assert ses.x.vertex_modules[2].factors == (9,)


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nope", Config())


def test_config_validates_itself_at_construction():
    with pytest.raises(UsageError, match="^trials must be positive$"):
        Config(trials=0)
    with pytest.raises(UsageError, match="^moduli must be"):
        Config(moduli=(1,))
    with pytest.raises(UsageError, match="^suites must be"):
        dataclasses.replace(Config(), suites=("nope",))


def test_all_suites_one_trial(monkeypatch):
    # wrap _run_trials the way the benchmark's per-trial timer does: every
    # trial, fixtures and negative controls included, must pass through it
    calls = []
    run_trials = harness._run_trials

    def counting_run_trials(suite, config, trials, body):
        def counted(rng, t):
            calls.append((suite, t))
            return body(rng, t)

        return run_trials(suite, config, trials, counted)

    monkeypatch.setattr(harness, "_run_trials", counting_run_trials)
    reports = run_all(Config(master_seed=1, trials=2))
    assert all(r.ok for r in reports), [r.verdicts for r in reports if not r.ok]
    assert {r.suite for r in reports} >= set(SUITES)
    assert calls == [(r.suite, r.trial) for r in reports]
