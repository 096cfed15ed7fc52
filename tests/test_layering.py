"""No module of the package imports a private name of another module: what
a module keeps private (a cache key, a kernel's arguments) stays behind its
public functions.  Attribute use such as `ModHom._closed` is not an import
and is not checked here.  The package imports nothing but the standard
library and itself, and no command loads numpy: a matrix is a tuple of
int rows throughout, and no module but `cli` reads a shape off a first
row: a matrix with no rows has none, so every count is stated.  No module
imports weakref: every memo is a bounded lru_cache.  Every block matrix
is written by `linalg.from_entries` from the nonzeros of the blocks it
places: no other module fills a dense list of zeros, and `linalg` has no
Kronecker product.  The vertexwise
classification has one route, psi split epi: `classify` reads projective
and flat on the Matlis dual, never through phi.  The canonical
coresolution steps build prod_v e^v(M_v) as one right adjoint
(`rep.coinduced_product`), never as a sum of separately built e^v.
`quiver` walks paths in one function, `paths_from`, and a direct sum has
one presentation, `znmod.sum_presentation`, which every injection,
projection and arrow map of a right adjoint is sliced or multiplied from.
Each exact kernel answers once: a memoized `linalg` kernel takes one
matrix, `znmod.present` wraps what `diagonalize` returns without cutting
it down, and `canonical_chain` reads its chain off `sum_presentation`.
One route per question: quotients are presented from the maps' own
columns, with no `quotient_with_projection` to transpose them back, and
no zero-rank fork, duplicate `random_quiver` knob, `ms` field or repeated
`--json` registration stands beside the general path.  The oracles take
their bounds from the theory: the sfp coresolution takes at most one step
per vertex with no periodicity search, and the Gorenstein module
certificate is one fixed window long."""

import ast
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "quiverhom"


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = "." * node.level + (node.module or "")
            if node.level or source.split(".")[0] == "quiverhom":
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name} from {source}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
    assert not found, found


def test_no_module_reads_a_shape_from_a_first_row():
    # `cli` sizes a printed table from its header row, which always exists
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("len", "hasattr")
                and node.args
                and isinstance(node.args[0], ast.Subscript)
                and isinstance(node.args[0].slice, ast.Constant)
                and node.args[0].slice.value == 0
            ):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


def _is_zero_list(node):
    return isinstance(node, ast.List) and [ast.unparse(e) for e in node.elts] == ["0"]


def test_only_linalg_fills_zero_lists():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and (_is_zero_list(node.left) or _is_zero_list(node.right)):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found
    tree = ast.parse((SRC / "linalg.py").read_text())
    assert "kron" not in {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _absolute_imports():
    """(file name, line, module) of every absolute import in the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name


def test_the_package_imports_only_the_standard_library():
    found = [
        f"{file}:{line} imports {name}"
        for file, line, name in _absolute_imports()
        if name.split(".")[0] not in sys.stdlib_module_names | {"quiverhom"}
    ]
    assert not found, found


def test_no_module_imports_weakref():
    # every memo is a bounded lru_cache on its function, never a weak map
    found = [f"{file}:{line}" for file, line, name in _absolute_imports() if name.split(".")[0] == "weakref"]
    assert not found, found


def test_the_vertexwise_classification_has_one_route():
    # phi and left rootedness enter `classify` only through the dual
    tree = ast.parse((SRC / "classify.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"phi", "is_left_rooted"}
    splits = [node for node in ast.walk(ast.parse((SRC / "znmod.py").read_text())) if isinstance(node, ast.FunctionDef) and node.name == "splits"]
    assert len(splits) == 1
    args = splits[0].args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["h"] and not (args.vararg or args.kwarg)


def test_no_command_loads_numpy():
    # each command in one process, which then reports what it imported
    data = pathlib.Path(__file__).resolve().parent / "data" / "large_reps"
    argvs = [
        ["verify", "all", "--seed", "1", "--trials", "2", "--json"],
        ["classify", str(data / "item0003-classify.json"), "--oracle", "--json"],
        ["purity", str(data / "item0000-purity.json"), "--json"],
        ["ext", str(data / "item0001-ext.json"), "--x", "x", "--y", "y", "--n", "2", "--json"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from quiverhom.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'codes': codes, 'numpy': 'numpy' in sys.modules}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0], "numpy": False}


def test_coresolution_steps_build_one_product():
    found = []
    for file, name in (("rep.py", "copresentation_embedding"), ("homology.py", "_left_injective_step")):
        tree = ast.parse((SRC / file).read_text())
        (func,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name]
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if callee in ("coinduced", "direct_sum_reps"):
                    found.append(f"{file}:{node.lineno} {name} calls {callee}")
    assert not found, found


def _functions(file):
    """The top-level functions and classes of `file`, by name."""
    tree = ast.parse((SRC / file).read_text())
    return {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _callees(node):
    return {
        call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }


def test_one_path_walk_and_one_sum_presentation():
    quiver = _functions("quiver.py")
    # a path walk is a nested function that builds paths; only paths_from has one
    walkers = sorted(
        outer.name
        for outer in quiver.values()
        if isinstance(outer, ast.FunctionDef)
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, ast.FunctionDef) and "Path" in _callees(inner)
    )
    assert walkers == ["paths_from"], walkers
    assert "paths_from" in _callees(quiver["paths_between"])
    znmod = _functions("znmod.py")
    assert "_direct_sum" not in znmod and "_sum_presentation" not in znmod
    assert "_reduced" not in {node.name for node in znmod["ModHom"].body if isinstance(node, ast.FunctionDef)}
    assert "sum_presentation" in _callees(znmod["direct_sum_with_maps"])
    init = next(node for node in _functions("rep.py")["RightAdjointRep"].body if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    assert not _callees(init) & {"direct_sum_with_maps", "map_into_sum"}


def test_each_kernel_answers_once():
    linalg = _functions("linalg.py")
    assert "_solve" not in linalg
    # a memoized kernel takes one matrix: its shape and its entries
    memoized = [f for f in linalg.values() if any(ast.unparse(d) == "_memoized" for d in getattr(f, "decorator_list", ()))]
    assert {f.name for f in memoized} >= {"_echelon", "_diagonalize"}
    for f in memoized:
        assert [a.arg for a in f.args.args] == ["n", "m", "k", "flat"], f.name
    znmod = _functions("znmod.py")
    # present wraps what diagonalize returns, without cutting it down
    present = znmod["present"]
    results = {
        target.id
        for node in ast.walk(present)
        if isinstance(node, ast.Assign) and "diagonalize" in _callees(node.value)
        for target in ast.walk(node.targets[0])
        if isinstance(target, ast.Name)
    }
    assert results
    cut = [
        ast.unparse(node)
        for node in ast.walk(present)
        if (isinstance(node, ast.Subscript) and (isinstance(node.value, ast.Name) and node.value.id in results or "diagonalize" in _callees(node.value)))
        or (isinstance(node, ast.comprehension) and isinstance(node.iter, ast.Name) and node.iter.id in results)
    ]
    assert not cut, cut
    # invariant factors are computed one way: off a sum presentation
    chain = znmod["canonical_chain"]
    assert "sum_presentation" in _callees(chain)
    assert not [node for node in ast.walk(chain) if isinstance(node, ast.Attribute) and node.attr == "prime_factors"]


def test_one_route_per_question():
    znmod = _functions("znmod.py")
    assert "quotient_with_projection" not in znmod
    purity = ast.parse((SRC / "purity.py").read_text())
    imported = {alias.name for node in ast.walk(purity) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "transpose" not in imported
    harness = _functions("harness.py")
    params = harness["random_quiver"].args
    assert "acyclic" not in {a.arg for a in params.args + params.kwonlyargs}
    # the zero-rank case takes the general path: the one return ends the body
    induced = _functions("rep.py")["tensor_induced"]
    returns = [node for node in ast.walk(induced) if isinstance(node, ast.Return)]
    assert returns == [induced.body[-1]], [ast.unparse(r) for r in returns]
    fields = {node.target.id for node in harness["TrialReport"].body if isinstance(node, ast.AnnAssign)}
    assert "ms" not in fields
    json_flags = [
        call
        for call in ast.walk(_functions("cli.py")["build_parser"])
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "add_argument" and [ast.unparse(a) for a in call.args] == ["'--json'"]
    ]
    assert len(json_flags) == 1, len(json_flags)


def test_the_oracles_take_their_bounds_from_the_theory():
    tree = ast.parse((SRC / "classify.py").read_text())
    classify = _functions("classify.py")
    defined = set(classify) | {
        name.id for node in tree.body if isinstance(node, ast.Assign) for target in node.targets for name in ast.walk(target) if isinstance(name, ast.Name)
    }
    assert not defined & {"reps_isomorphic", "DepthExhausted", "_SFP_CHECK_DEPTH", "_ISO_SEARCH_CAP"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "has_directed_cycle" not in imported
    loops = [node for node in ast.walk(classify["definitional_sfp_check"]) if isinstance(node, ast.For)]
    assert len(loops) == 1 and "x.quiver.vertices" in ast.unparse(loops[0].iter)
    params = _functions("znmod.py")["gi_module_certificate"].args
    assert [a.arg for a in params.posonlyargs + params.args + params.kwonlyargs] == ["m"]
    assert params.vararg is None and params.kwarg is None
