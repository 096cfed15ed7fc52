"""No module of the package imports a private name of another module: what
a module keeps private (a cache key, a kernel's arguments) stays behind its
public functions.  Attribute use such as `ModHom._closed` is not an import
and is not checked here.  Within `linalg`, numpy is called only by the one
reader and the one writer of matrices."""

import ast
import pathlib

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


def test_linalg_calls_numpy_only_in_its_reader_and_writer():
    allowed = {"_entries", "_array"}
    found = []

    def visit(node, func):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        if isinstance(node, ast.Call):
            root = node.func
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "np" and func not in allowed:
                found.append(f"linalg.py:{node.lineno} calls numpy in {func}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    path = SRC / "linalg.py"
    visit(ast.parse(path.read_text(), str(path)), None)
    assert not found, found
