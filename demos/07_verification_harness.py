#!/usr/bin/env python3
"""The seeded verification harness: run suites programmatically, replay a
single trial, and confirm byte-identical reports.

The same functionality is available from the command line:

    quiverhom verify all --seed 42 --trials 50 --json
    quiverhom fixture nonpure
    quiverhom classify rep.json --oracle
"""

from dataclasses import replace

from quiverhom import Config, run_suite
from quiverhom.harness import SUITES, derive_seed

cfg = Config(master_seed=42, moduli=(2, 3, 4, 8, 9))

print("available suites:", ", ".join(SUITES))

for name in ("rootedness", "purity_bridge", "classification"):
    reports = run_suite(name, replace(cfg, trials=20))
    fails = [r for r in reports if not r.ok]
    print(f"{name}: {len(reports)} trials, {len(fails)} failures")

# every trial derives its own seed, so a single trial replays independently
seed = derive_seed(cfg.master_seed, "classification", 7)
print("seed of classification trial 7:", seed)
once = run_suite("classification", replace(cfg, trials=8))[7]
again = run_suite("classification", replace(cfg, trials=8))[7]
print("single-trial replay identical:", once.to_json() == again.to_json())

# reports are byte-identical across runs for a fixed configuration
a = "\n".join(r.to_json() for r in run_suite("purity_bridge", replace(cfg, trials=10)))
b = "\n".join(r.to_json() for r in run_suite("purity_bridge", replace(cfg, trials=10)))
print("byte-identical reports:", a == b)
print("sample report:", run_suite("rootedness", replace(cfg, trials=1))[0].to_json())
