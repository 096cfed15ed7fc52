import hashlib
import json
import pathlib

import numpy as np
import pytest

from quiverhom import cli, harness
from quiverhom.cli import main
from quiverhom.harness import RejectionBudgetExceeded, derive_seed, nonpure_fixture_ses
from quiverhom.io import (
    FormatError,
    quiver_from_dict,
    quiver_to_dict,
    rep_block_to_dict,
    rep_from_dict,
    rep_to_dict,
    ses_from_dict,
    ses_to_dict,
)
from quiverhom.quiver import a2, loop_quiver, make_quiver
from quiverhom.rep import Representation, stalk
from quiverhom.znmod import ModHom, Modulus, cyclic

Z4 = Modulus(4)


def doubling_rep():
    q = a2()
    m = cyclic(Z4, 4)
    return Representation(q, Z4, {1: m, 2: m}, {"a": ModHom(m, m, [[2]])})


def test_quiver_round_trip():
    q = make_quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3)])
    assert quiver_from_dict(quiver_to_dict(q)) == q


def test_rep_round_trip():
    x = doubling_rep()
    assert rep_from_dict(rep_to_dict(x)) == x


def test_ses_round_trip():
    ses = nonpure_fixture_ses(Z4)
    d = ses_to_dict(ses)
    back = ses_from_dict(d)
    assert back.x == ses.x and back.y == ses.y and back.z == ses.z


def test_format_errors_name_field():
    with pytest.raises(FormatError, match="modulus"):
        rep_from_dict({"quiver": {"vertices": [1], "arrows": []}})
    with pytest.raises(FormatError, match="modules"):
        rep_from_dict({"modulus": 4, "quiver": {"vertices": [1], "arrows": []}, "modules": {}, "arrows_maps": {}})
    bad = rep_to_dict(doubling_rep())
    bad["arrows_maps"]["a"] = [[1]]  # 1*4 != 0 mod 4 is fine; use ill-defined entry
    bad["modules"]["1"] = [2]
    with pytest.raises(FormatError, match="arrows_maps"):
        rep_from_dict(bad)


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_cli_classify(tmp_path, capsys):
    path = write(tmp_path, "rep.json", rep_to_dict(doubling_rep()))
    code = main(["classify", path, "--oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "injective" in out
    code = main(["classify", path, "--class", "injective", "--json", "--oracle"])
    out = capsys.readouterr().out
    rec = json.loads(out.strip())
    assert rec["class"] == "injective" and rec["verdict"] is False and rec["oracle"] is False


def test_cli_classify_missing_file(capsys):
    assert main(["classify", "missing.json"]) == 2


def test_cli_purity(tmp_path, capsys):
    path = write(tmp_path, "ses.json", ses_to_dict(nonpure_fixture_ses(Z4)))
    code = main(["purity", path, "--json"])
    rec = json.loads(capsys.readouterr().out.strip())
    assert code == 0 and rec["pure"] is False


def test_cli_ext(tmp_path, capsys):
    q = a2()
    Z2 = Modulus(2)
    s1 = stalk(q, Z2, 1, cyclic(Z2, 2))
    s2 = stalk(q, Z2, 2, cyclic(Z2, 2))
    from quiverhom.io import quiver_to_dict, rep_block_to_dict

    payload = {
        "modulus": 2,
        "quiver": quiver_to_dict(q),
        "reps": {"s1": rep_block_to_dict(s1), "s2": rep_block_to_dict(s2)},
    }
    path = write(tmp_path, "reps.json", payload)
    code = main(["ext", path, "--x", "s1", "--y", "s2", "--n", "1", "--json"])
    rec = json.loads(capsys.readouterr().out.strip())
    assert code == 0 and rec["cardinality"] == 2
    assert main(["ext", path, "--x", "nope", "--y", "s2", "--n", "1"]) == 2


def test_cli_ext_rejects_negative_degree(tmp_path, capsys):
    x = doubling_rep()
    payload = {"modulus": 4, "quiver": quiver_to_dict(x.quiver), "reps": {"x": rep_block_to_dict(x)}}
    path = write(tmp_path, "reps.json", payload)
    assert main(["ext", path, "--x", "x", "--y", "x", "--n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def _reps_file() -> dict:
    x = doubling_rep()
    return {"modulus": 4, "quiver": quiver_to_dict(x.quiver), "reps": {"x": rep_block_to_dict(x), "y": rep_block_to_dict(x)}}


def _loop_reps_file() -> dict:
    m = cyclic(Z4, 4)
    x = Representation(loop_quiver(), Z4, {"v": m}, {"alpha": ModHom(m, m, [[1]])})
    return {"modulus": 4, "quiver": quiver_to_dict(x.quiver), "reps": {"x": rep_block_to_dict(x), "y": rep_block_to_dict(x)}}


# each payload once crashed its command with a traceback and exit 1, or
# (vertex_ids_same_string) was accepted with one module read at two vertices
MALFORMED_INPUTS = {
    "modulus_one": ("classify", lambda: dict(rep_to_dict(doubling_rep()), modulus=1)),
    "modulus_string": ("purity", lambda: dict(ses_to_dict(nonpure_fixture_ses(Z4)), modulus="x")),
    "modulus_null": ("ext", lambda: dict(_reps_file(), modulus=None)),
    "modules_entry_not_list": ("classify", lambda: dict(rep_to_dict(doubling_rep()), modules={"1": 4, "2": [4]})),
    "unhashable_vertex": ("classify", lambda: dict(rep_to_dict(doubling_rep()), quiver={"vertices": [[1]], "arrows": []})),
    "reps_list": ("ext", lambda: dict(_reps_file(), reps=[])),
    "reps_entry_list": ("ext", lambda: dict(_reps_file(), reps={"x": [], "y": []})),
    "modules_null": ("classify", lambda: dict(rep_to_dict(doubling_rep()), modules=None)),
    "matrix_null": ("classify", lambda: dict(rep_to_dict(doubling_rep()), arrows_maps={"a": None})),
    "morphism_null": ("purity", lambda: dict(ses_to_dict(nonpure_fixture_ses(Z4)), f=None)),
    "top_level_number": ("classify", lambda: 5),
    "ext_cyclic_quiver": ("ext", lambda: _loop_reps_file()),
    "modulus_above_cap": ("classify", lambda: dict(rep_to_dict(doubling_rep()), modulus=4294967311)),
    "vertex_ids_same_string": ("classify", lambda: {"modulus": 4, "quiver": {"vertices": [1, "1"], "arrows": []}, "modules": {"1": [4]}, "arrows_maps": {}}),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_cli_malformed_input_exits_2(tmp_path, capsys, case):
    command, payload = MALFORMED_INPUTS[case]
    path = write(tmp_path, "bad.json", payload())
    extra = ["--x", "x", "--y", "y", "--n", "1"] if command == "ext" else []
    assert main([command, path] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_cli_rooted(tmp_path, capsys):
    path = write(tmp_path, "quiver.json", quiver_to_dict(a2()))
    code = main(["rooted", path, "--json"])
    rec = json.loads(capsys.readouterr().out.strip())
    assert code == 0 and rec["right_rooted"] is True
    loop = {"vertices": ["v"], "arrows": [{"id": "l", "src": "v", "tgt": "v"}]}
    path = write(tmp_path, "loop.json", loop)
    code = main(["rooted", path, "--json"])
    rec = json.loads(capsys.readouterr().out.strip())
    assert rec["right_rooted"] is False


def test_cli_fixture_nonpure(capsys):
    code = main(["fixture", "nonpure", "--json"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0 and len(out) == 3
    for line in out:
        rec = json.loads(line)
        assert rec["pure"] is False


def test_cli_verify_suite_and_determinism(capsys):
    code = main(["verify", "rootedness", "--seed", "42", "--trials", "5", "--json"])
    out1 = capsys.readouterr().out
    assert code == 0
    code = main(["verify", "rootedness", "--seed", "42", "--trials", "5", "--json"])
    out2 = capsys.readouterr().out
    assert out1 == out2
    for line in out1.strip().splitlines():
        rec = json.loads(line)
        assert rec["pass"] is True


def test_cli_verify_all_output_is_pinned(capsys):
    # the sha256 of these reports as first recorded; any change to seeds,
    # trial order or report bytes shows here
    assert main(["verify", "all", "--seed", "42", "--trials", "2", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "1858f2ffecba1ce8bcfaf7cee88b604c48ffeb15bb97354e07ea27de07a3e908"


LARGE_REPS = pathlib.Path(__file__).parent / "data" / "large_reps"
LARGE_REPS_ARGS = {
    "classify": ["--oracle", "--json"],
    "purity": ["--json"],
    "ext": ["--x", "x", "--y", "y", "--n", "1", "--json"],
}


def test_cli_large_reps_output_is_pinned(capsys):
    # the first eight `large_reps` benchmark inputs of seed 42 (bench/gen.py),
    # named item<k>-<command>.json, each run through its command
    paths = sorted(LARGE_REPS.glob("item*.json"))
    assert len(paths) == 8
    for path in paths:
        command = path.stem.split("-")[1]
        assert main([command, str(path), *LARGE_REPS_ARGS[command]]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "438b8513a0947eb06fa12ea6c4f40fb9df214cceaf05b94b65f58806383023b1"


def test_cli_ext_degree2_output_is_pinned(capsys):
    # Ext^2 resolves one step further than `large_reps` does: item0001's
    # degree-2 cocycles have 11 nonzero image generators, item0005's none
    for name in ("item0001-ext.json", "item0005-ext.json"):
        assert main(["ext", str(LARGE_REPS / name), "--x", "x", "--y", "y", "--n", "2", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "3fe28bdfebe8bf107f7a529401034a75ef42f9f39b99ceea9e4a8c5ea5ce229e"


def test_cli_verify_unknown_suite(capsys):
    assert main(["verify", "bogus", "--trials", "1"]) == 2


def test_cli_verify_config_file(tmp_path, capsys):
    cfg = {"moduli": [2, 4], "trials": 3, "master_seed": 11}
    path = write(tmp_path, "config.json", cfg)
    code = main(["verify", "rootedness", "--config", path, "--json"])
    out = capsys.readouterr().out
    assert code == 0 and len(out.strip().splitlines()) == 3


def test_cli_verify_ext_engine_lifts_ext_generators(capsys):
    # trial ext_engine[1] of this seed lifts an Ext generator through a
    # projection whose target has fewer invariant factors than its source
    assert main(["verify", "ext_engine", "--seed", "3003", "--trials", "2"]) == 0


def test_cli_verify_rejects_nonpositive_trials(capsys):
    assert main(["verify", "classification", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_cli_verify_rejects_modulus_below_two(capsys):
    assert main(["verify", "classification", "--modulus-list", "1", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_cli_verify_rejects_modulus_above_cap(capsys):
    # 4294967311 once overflowed int64 and was reported as FAIL collapse[1], exit 1
    assert main(["verify", "all", "--modulus-list", "4294967311"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "MAX_MODULUS" in captured.err


@pytest.mark.parametrize(
    "config",
    [
        {"moduli": [], "trials": 1},
        {"moduli": ["four"], "trials": 1},
        {"moduli": [None], "trials": 1},
        {"trials": None},
        [{"trials": 1}],
        {"suites": ["nope"], "trials": 1},
        {"suites": "rootedness", "trials": 1},
        {"moduli": [4, 4294967311], "trials": 1},
        {"max_vertices": 6},
        {"trails": 3},
    ],
    ids=[
        "moduli0", "moduli1", "moduli2", "trials_null", "top_level_list", "unknown_suite", "suites_string", "moduli_above_cap",
        "removed_key", "misspelt_key",
    ],
)
def test_cli_verify_rejects_bad_moduli_config(tmp_path, capsys, config):
    path = write(tmp_path, "config.json", config)
    assert main(["verify", "classification", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


FILE_COMMANDS = {
    "classify": ["classify", "{}"],
    "purity": ["purity", "{}"],
    "ext": ["ext", "{}", "--x", "x", "--y", "y", "--n", "1"],
    "rooted": ["rooted", "{}"],
    "verify_config": ["verify", "all", "--config", "{}"],
}


@pytest.mark.parametrize("problem", ["missing", "not_json", "not_utf8"])
@pytest.mark.parametrize("command", list(FILE_COMMANDS))
def test_cli_file_problems_exit_2(tmp_path, capsys, command, problem):
    path = tmp_path / "input.json"
    if problem == "not_json":
        path.write_text("this is not json")
    elif problem == "not_utf8":
        path.write_bytes(b"\xff\xfe{}")
    argv = [arg.format(path) for arg in FILE_COMMANDS[command]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def _raising_body(config, rng, t):
    raise RejectionBudgetExceeded("could not generate a quiver under the constraints")


def test_cli_verify_harness_error_exits_2(monkeypatch, capsys):
    # a body that raises is a harness error, not a theorem violation; its
    # JSON line keeps the error text it always had
    monkeypatch.setitem(harness.SUITES, "rootedness", (("rootedness", _raising_body, None),))
    assert main(["verify", "rootedness", "--seed", "4", "--trials", "1", "--json"]) == 2
    seed = derive_seed(4, "rootedness", 0)
    assert capsys.readouterr().out == (
        '{"instance":"","ms":0,"pass":false,"seed":%d,"suite":"rootedness","trial":0,'
        '"verdicts":{"error":"RejectionBudgetExceeded: could not generate a quiver under the constraints"}}\n' % seed
    )
    assert main(["verify", "rootedness", "--seed", "4", "--trials", "1"]) == 2
    out = capsys.readouterr().out
    assert "ERROR rootedness[0]" in out and "FAIL" not in out


def test_cli_verify_violation_still_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(harness.SUITES, "rootedness", (("rootedness", lambda config, rng, t: {"_ok": False}, None),))
    assert main(["verify", "rootedness", "--trials", "1"]) == 1
    assert "FAIL rootedness[0]" in capsys.readouterr().out


def test_cli_escaped_exception_exits_2_with_traceback(tmp_path, monkeypatch, capsys):
    def crash(x, with_oracle=False):
        raise RuntimeError("classifier crashed")

    monkeypatch.setitem(cli.CLASSIFIERS, "injective", crash)
    path = write(tmp_path, "rep.json", rep_to_dict(doubling_rep()))
    assert main(["classify", path, "--class", "injective"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback") and "RuntimeError: classifier crashed" in captured.err
