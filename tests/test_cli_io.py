import hashlib
import json
import pathlib

import pytest

from projective_reference import free_rep
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
from quiverhom.homology import projective_generator
from quiverhom.quiver import a2, loop_quiver, make_quiver
from quiverhom.rep import Representation, coinduced, stalk
from quiverhom.znmod import FinMod, ModHom, Modulus, cyclic
from test_classify import one_coresolution_step

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


def test_cli_ext_over_a_line_longer_than_the_recursion_limit(tmp_path, capsys):
    # the acyclicity check once searched for a cycle recursively and ended
    # in a RecursionError on this line; right rootedness is iterative
    q = make_quiver(range(1, 1201), [(f"a{i}", i, i + 1) for i in range(1, 1200)])
    x = stalk(q, Modulus(2), 1, cyclic(Modulus(2), 2))
    payload = {"modulus": 2, "quiver": quiver_to_dict(q), "reps": {"x": rep_block_to_dict(x), "y": rep_block_to_dict(x)}}
    path = write(tmp_path, "line.json", payload)
    assert main(["ext", path, "--x", "x", "--y", "y", "--n", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"cardinality": 1, "degree": 1, "ext": "0"}


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
    # these five were once truncated or coerced and classified with exit 0
    "modulus_float": ("classify", lambda: dict(rep_to_dict(doubling_rep()), modulus=4.9)),
    "factor_float": ("classify", lambda: dict(rep_to_dict(doubling_rep()), modules={"1": [4.5], "2": [4]})),
    "factor_string": ("ext", lambda: dict(_reps_file(), reps={k: dict(rep_block_to_dict(doubling_rep()), modules={"1": ["4"], "2": [4]}) for k in "xy"})),
    "entry_float": ("classify", lambda: dict(rep_to_dict(doubling_rep()), arrows_maps={"a": [[2.7]]})),
    "entry_bool": ("purity", lambda: dict(ses_to_dict(nonpure_fixture_ses(Z4)), f={"1": [[]], "2": [[True]]})),
    # once an OverflowError traceback instead of an error line
    "entry_huge": ("classify", lambda: dict(rep_to_dict(doubling_rep()), arrows_maps={"a": [[2**70]]})),
    # once "missing arrow 5": the arrows_maps key is always the string "5"
    "arrow_id_int": ("classify", lambda: dict(rep_to_dict(doubling_rep()), quiver={"vertices": [1, 2], "arrows": [{"id": 5, "src": 1, "tgt": 2}]}, arrows_maps={"5": [[2]]})),
    "arrow_id_null": ("classify", lambda: dict(rep_to_dict(doubling_rep()), quiver={"vertices": [1, 2], "arrows": [{"id": None, "src": 1, "tgt": 2}]})),
    # these five were once read as vertices '1' and '2', as '1', or as ids
    # that are neither strings nor integers, and classified with exit 0
    "vertices_string": ("classify", lambda: {"modulus": 4, "quiver": {"vertices": "12", "arrows": []}, "modules": {"1": [4], "2": [4]}, "arrows_maps": {}}),
    "vertices_object": ("classify", lambda: {"modulus": 4, "quiver": {"vertices": {"1": 0}, "arrows": []}, "modules": {"1": [4]}, "arrows_maps": {}}),
    "vertex_float": ("classify", lambda: {"modulus": 4, "quiver": {"vertices": [1.5], "arrows": []}, "modules": {"1.5": [4]}, "arrows_maps": {}}),
    "vertex_bool": ("classify", lambda: {"modulus": 4, "quiver": {"vertices": [True], "arrows": []}, "modules": {"True": [4]}, "arrows_maps": {}}),
    "vertex_null": ("classify", lambda: {"modulus": 4, "quiver": {"vertices": [None], "arrows": []}, "modules": {"None": [4]}, "arrows_maps": {}}),
    # these seven were once reshaped or dropped, and ran with exit 0: a
    # matrix is exactly `rows` lists of `cols` integers, and every key of
    # modules, arrows_maps and a morphism names a vertex or an arrow
    "matrix_flat": ("classify", lambda: _two_by_two_rep([1, 0, 0, 1])),
    "matrix_one_row": ("classify", lambda: _two_by_two_rep([[1, 0, 0, 1]])),
    "morphism_flat": ("purity", lambda: dict(ses_to_dict(nonpure_fixture_ses(Z4)), f={"1": [[]], "2": [1]})),
    "morphism_no_rows": ("purity", lambda: dict(ses_to_dict(nonpure_fixture_ses(Z4)), f={"1": [], "2": [[1]]})),
    "modules_unknown_vertex": ("classify", lambda: dict(rep_to_dict(doubling_rep()), modules={"1": [4], "2": [4], "3": [2]})),
    "arrows_maps_unknown_arrow": ("classify", lambda: dict(rep_to_dict(doubling_rep()), arrows_maps={"a": [[2]], "b": [[5]]})),
    "morphism_unknown_vertex": ("purity", lambda: dict(ses_to_dict(nonpure_fixture_ses(Z4)), f={"1": [[]], "2": [[1]], "3": [[1]]})),
}


# the offending value or type, spelled as JSON spells it
MALFORMED_MESSAGES = {
    "modulus_string": 'modulus: expected an integer, got "x"',
    "modulus_null": "modulus: expected an integer, got null",
    "factor_string": 'expected an integer, got "4"',
    "entry_bool": "expected an integer, got true",
    "top_level_number": "file: expected a JSON object, got number",
    "reps_list": "reps: expected a JSON object, got array",
    "modules_null": "modules: expected a JSON object, got null",
    "morphism_null": "morphism: expected a JSON object, got null",
    "vertices_string": "vertices: expected a JSON array, got string",
    "vertices_object": "vertices: expected a JSON array, got object",
    "vertex_bool": "expected a string or an integer, got true",
    "vertex_null": "expected a string or an integer, got null",
    "matrix_flat": "arrows_maps['a']: expected 2 rows of 2 integers, got [1, 0, 0, 1]",
    "matrix_one_row": "arrows_maps['a']: expected 2 rows of 2 integers, got [[1, 0, 0, 1]]",
    "morphism_flat": "morphism['2']: expected 1 rows of 1 integers, got [1]",
    "morphism_no_rows": "morphism['1']: expected 1 rows of 0 integers, got []",
    "modules_unknown_vertex": "modules: unknown vertices ['3']",
    "arrows_maps_unknown_arrow": "arrows_maps: unknown arrows ['b']",
    "morphism_unknown_vertex": "morphism: unknown vertices ['3']",
}


def _two_by_two_rep(matrix) -> dict:
    """Z/2 + Z/4 at both ends of 1 -> 2, with the arrow map `matrix`."""
    return {
        "modulus": 4,
        "quiver": quiver_to_dict(a2()),
        "modules": {"1": [2, 4], "2": [2, 4]},
        "arrows_maps": {"a": matrix},
    }


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_cli_malformed_input_exits_2(tmp_path, capsys, case):
    command, payload = MALFORMED_INPUTS[case]
    path = write(tmp_path, "bad.json", payload())
    extra = ["--x", "x", "--y", "y", "--n", "1"] if command == "ext" else []
    assert main([command, path] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert MALFORMED_MESSAGES.get(case, "") in captured.err


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


@pytest.mark.parametrize("arrow_id", [5, None], ids=["int", "null"])
def test_cli_rejects_a_non_string_arrow_id(tmp_path, capsys, arrow_id):
    # rooted once printed an AttributeError traceback from quiver.opposite,
    # and classify said "missing arrow 5"
    quiver = {"vertices": [1, 2], "arrows": [{"id": arrow_id, "src": 1, "tgt": 2}]}
    rep = dict(rep_to_dict(doubling_rep()), quiver=quiver, arrows_maps={str(arrow_id): [[2]]})
    for command, payload in (("rooted", quiver), ("classify", rep)):
        assert main([command, write(tmp_path, "in.json", payload), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert f"arrow {json.dumps(arrow_id)} from 1 to 2: id must be a JSON string" in captured.err


def test_cli_classify_with_an_arrow_id_ending_in_op_op(tmp_path, capsys):
    # `opposite` once flipped both a and a_op_op to a_op, so every row that
    # reads the Matlis dual exited 2 with "duplicate arrow ids"
    quiver = {"vertices": [1, 2], "arrows": [{"id": "a", "src": 1, "tgt": 2}, {"id": "a_op_op", "src": 1, "tgt": 2}]}
    payload = {"modulus": 2, "quiver": quiver, "modules": {"1": [2], "2": [2]}, "arrows_maps": {"a": [[1]], "a_op_op": [[0]]}}
    assert main(["classify", write(tmp_path, "rep.json", payload), "--oracle", "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["class"] for r in records] == list(cli.CLASSIFIERS)


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


@pytest.mark.parametrize(
    "seed, digest",
    [
        ("7", "6b23523ffb618c70e9ef12846b9c4adf4abbbd231fbebba3413161f4bb7e2ffe"),
        ("42000", "7a3c05a9ffb27457bd75ac8dbb5355b79ca4d1f128a4af9a767808eb6744653b"),
        ("43001", "b1684723356e8e9033d954d949eebe0c4c4d69143d5bd06ca2d96b88f28eeb52"),
    ],
)
def test_cli_verify_all_ten_trials_output_is_pinned(capsys, seed, digest):
    # ten trials of every suite, as first recorded at these seeds
    assert main(["verify", "all", "--seed", seed, "--trials", "10", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


LARGE_REPS = pathlib.Path(__file__).parent / "data" / "large_reps"
LARGE_INPUTS = pathlib.Path(__file__).parent / "data" / "large_inputs"
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


@pytest.mark.parametrize(
    "name, digest",
    [
        # the quiver 1 => 2 => ... => 6, two parallel arrows per step, Z/4 at
        # every vertex and identity maps: its coinduced objects have one
        # factor per path, and the paths double at every step
        ("path6-classify.json", "573937c56cacfbd1559bfd1745420e7183f8853ba9055e8b5e73b5fb763b1e21"),
        # classify inputs 3 and 7 of seed 42 from bench/gen.py with VERTICES,
        # ARROWS, MAX_RANK = 7, 12, 4
        ("probe0003-classify.json", "d1dc1c61e857aafb1a852539e669ab413e9ce8dbc667fd76d20f19b448947ed0"),
        ("probe0007-classify.json", "8a1233732f7b877e02d6f4abd9566b5f593a0c150645657c94ed7c68bc6c4fc8"),
    ],
)
def test_cli_large_input_output_is_pinned(capsys, name, digest):
    assert main(["classify", str(LARGE_INPUTS / name), "--oracle", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def doubled_path(length):
    """1 => 2 => ... => length, two parallel arrows per step."""
    arrows = [(f"{s}{v}", v, v + 1) for v in range(1, length) for s in "ab"]
    return make_quiver(list(range(1, length + 1)), arrows)


def pinned_classify_inputs():
    z12, z6 = Modulus(12), Modulus(6)
    m = FinMod(z6, (2, 6))
    return {
        # projective and flat, not injective: P_1 is free on the 15 paths
        # from 1, in the path-by-path layout it was pinned in
        "projective-generator": free_rep(doubled_path(4), z12, {v: int(v == 1) for v in range(1, 5)})[0],
        # e^2(Z/6) on 1 -> 2 is P_1 too: every row true
        "coinduced-injective": coinduced(a2(), z6, 2, cyclic(z6, 6)).rep,
        # an automorphism around a loop: every verdict true, no row two-sided
        "loop": Representation(loop_quiver(), z6, {"v": m}, {"alpha": ModHom(m, m, [[1, 0], [3, 5]])}),
    }


@pytest.mark.parametrize(
    "name, digest",
    [
        ("projective-generator", "e3e0b736df0b268a9ad68bd113f4c679ad96611a304cece84825dcb7983eec1f"),
        ("coinduced-injective", "9cdbec782e86f80f0d75bb925afa546cb66ba5da3614cff9a7d0ec62ea36c6ca"),
        ("loop", "6d92b86773fc23b254a9d5a0d305f9e73acf9506118a1d3539db2947b0f560c7"),
    ],
)
def test_cli_classify_projective_and_necessity_only_outputs_are_pinned(tmp_path, capsys, name, digest):
    # first recorded while projective and flat still read phi over the quiver itself
    path = write(tmp_path, "rep.json", rep_to_dict(pinned_classify_inputs()[name]))
    assert main(["classify", path, "--oracle", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_classify_reads_the_pinned_records_off_the_dual_built_projective(tmp_path, capsys):
    # projective_generator lists the paths of Q^op in key order, so only the
    # instance digest moves
    def records(x):
        assert main(["classify", write(tmp_path, "rep.json", rep_to_dict(x)), "--oracle", "--json"]) == 0
        return [{k: v for k, v in json.loads(line).items() if k != "instance"} for line in capsys.readouterr().out.splitlines()]

    assert records(projective_generator(doubled_path(4), Modulus(12), 1)) == records(pinned_classify_inputs()["projective-generator"])


def test_cli_classify_on_a_quiver_without_vertices(tmp_path, capsys):
    # every class holds vacuously; the coresolution starts from the zero representation
    payload = {"modulus": 4, "quiver": {"vertices": [], "arrows": []}, "modules": {}, "arrows_maps": {}}
    assert main(["classify", write(tmp_path, "empty.json", payload), "--oracle", "--json"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["class"] for r in records] == list(cli.CLASSIFIERS)
    assert all(r["verdict"] is True for r in records)


def test_cli_classify_oracle_on_e7_over_the_seven_vertex_line(tmp_path, capsys):
    # the whole coresolution takes seven pure steps, one per vertex, before
    # the syzygy vanishes; a fixed cap of six once crashed here with exit code 2
    q = make_quiver(range(1, 8), [(f"a{i}", i, i + 1) for i in range(1, 7)])
    path = write(tmp_path, "e7.json", rep_to_dict(coinduced(q, Z4, 7, cyclic(Z4, 4)).rep))
    assert main(["classify", path, "--oracle", "--json"]) == 0
    oracles = {r["class"]: r["oracle"] for r in map(json.loads, capsys.readouterr().out.splitlines())}
    assert oracles == {
        "injective": True,
        "projective": True,
        "flat": None,
        "fp-injective": None,
        "strongly-fp-injective": True,
        "gorenstein": True,
    }


def test_cli_classify_oracle_on_e9_over_the_nine_vertex_line(tmp_path, capsys, monkeypatch):
    # the sfp oracle stops at the split first step; walking the later steps
    # ran out of a 2 GB address space here, so a second step raises at once
    calls = one_coresolution_step(monkeypatch)
    q = make_quiver(range(1, 10), [(f"a{i}", i, i + 1) for i in range(1, 9)])
    path = write(tmp_path, "e9.json", rep_to_dict(coinduced(q, Z4, 9, cyclic(Z4, 4)).rep))
    assert main(["classify", path, "--oracle", "--json"]) == 0
    oracles = {r["class"]: r["oracle"] for r in map(json.loads, capsys.readouterr().out.splitlines())}
    assert oracles == {
        "injective": True,
        "projective": True,
        "flat": None,
        "fp-injective": None,
        "strongly-fp-injective": True,
        "gorenstein": True,
    }
    assert len(calls) == 1


def test_cli_ext_degree2_output_is_pinned(capsys):
    # Ext^2 reads the coboundary D_2, which the degree-1 `ext` items of
    # `large_reps` never build
    for name in ("item0001-ext.json", "item0005-ext.json"):
        assert main(["ext", str(LARGE_REPS / name), "--x", "x", "--y", "y", "--n", "2", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "3fe28bdfebe8bf107f7a529401034a75ef42f9f39b99ceea9e4a8c5ea5ce229e"


def test_cli_ext_degrees_0_to_3_output_is_pinned(capsys):
    # first recorded with the hom-group Ext engine that tests/test_homology.py
    # keeps as ReferenceExtComputation
    for name in ("item0001-ext.json", "item0005-ext.json"):
        for k in range(4):
            assert main(["ext", str(LARGE_REPS / name), "--x", "x", "--y", "y", "--n", str(k), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == "5e38e7657e8fe96f77f0022482a04aa3c4af35dc7303a110d08362ea1325bf36"


@pytest.mark.parametrize(
    "suite, trials, digest",
    [
        # gorenstein trials 0 and 10 run the oracle with oracle_full=True
        ("gorenstein", "20", "bd60dd9060c57c06e280c6fe41c63ed4d3decd3d131fcea40399fdc34b8dbdc2"),
        ("orthogonality", "10", "c7083d43beb087b84d4e70fba6f9cfb847a7471f766138a2bd04fabe7096bb82"),
        # collapse trial 0 is the tampered-certificate control
        ("collapse", "10", "2ec61f4aa778bd92311cf883d53ec53a1ddb55f82fe6525ff4205da8a565add8"),
        # both reach the tensor test of purity: through definitional_purity_check,
        # and through is_pure_rep_ses on impure sequences
        ("purity_bridge", "40", "4b5066600a4e58086b838ef4cb91b640b2477115f2a8337426ba73cdfff45e12"),
        ("classification", "20", "e7f984415a40f04b448a90fba98a6ddaa11a003eecfa43ee128a4bb8b356bee8"),
        # the long-exact-sequence trials read ext_induced_second at degrees 0, 1 and 3
        ("ext_engine", "20", "a7cbb9b4c9c08b2babc9cf426988a3152f9d8f81067f4f9c667774172681c158"),
    ],
    ids=["gorenstein", "orthogonality", "collapse", "purity_bridge", "classification", "ext_engine"],
)
def test_cli_gorenstein_certificate_suites_are_pinned(capsys, suite, trials, digest):
    assert main(["verify", suite, "--seed", "7", "--trials", trials, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "suite, digest",
    [
        # the injectivity check of every component and the purity of every left step
        ("totally_acyclic", "b37570922ed70f96d8bbb7bd1aa26c303a7fb9c20cc3b9466a7fd8eaff90dc6f"),
        # summands, pure kernels, extensions and cokernels of monos, classified
        ("closure", "0ee11baa8b256ab04405e8bfa3b3f9ea76a88f5dddde7e4d7a09637a6b7d839f"),
        # finite products are canonical direct sums at every vertex
        ("products", "9b9bdb5591373e12e1ac6ef77fb6e10d1ac10f972cae2abae1543351ec22313f"),
        ("stability", "53b9c715bc46778968f42686a42eb195c684ea798adfa9459ae8e25964b8104e"),
    ],
    ids=["totally_acyclic", "closure", "products", "stability"],
)
def test_cli_splitting_suites_are_pinned(capsys, suite, digest):
    # first recorded while every splitting test still solved for a section or retraction
    assert main(["verify", suite, "--seed", "7", "--trials", "20", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_parser_built_once_answers_like_fresh_calls(monkeypatch, capsys):
    argvs = [
        ["classify", str(LARGE_REPS / "item0003-classify.json"), "--json"],
        ["classify", "--class", "bogus", "x.json"],
        ["purity", str(LARGE_REPS / "item0000-purity.json"), "--json"],
    ]
    monkeypatch.setattr(cli, "_parser", None)
    shared, parsers = [], set()
    for argv in argvs:
        shared.append((main(argv), capsys.readouterr()))
        parsers.add(id(cli._parser))
    assert len(parsers) == 1
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append((main(argv), capsys.readouterr()))
    assert [code for code, _ in shared] == [0, 2, 0]
    assert shared == fresh


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


def test_cli_verify_ext_engine_oracle_is_pinned(capsys):
    # first recorded while the extension oracle still searched orbits under
    # Aut(E); the trials of this seed that read it report oracle_agrees
    assert main(["verify", "ext_engine", "--seed", "3003", "--trials", "20", "--json"]) == 0
    out = capsys.readouterr().out
    assert any("oracle_agrees" in json.loads(line)["verdicts"] for line in out.splitlines())
    assert hashlib.sha256(out.encode()).hexdigest() == "e1d99face5f1d69dbffe09d2004e9a85f71a5d08bb4fd7862e2ade7a42bc579c"


def test_cli_verify_rejects_nonpositive_trials(capsys):
    assert main(["verify", "classification", "--trials", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_cli_verify_all_reports_a_trial_count_below_one_as_the_config_does(capsys):
    # the trial count reaches the harness only through Config, so the CLI
    # reports Config's message
    for trials in ("0", "-2"):
        assert main(["verify", "all", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: trials must be positive\n"


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
