"""JSON file formats: quivers, representations, short exact sequences.

Schemas:
  quiver          {"vertices": [...], "arrows": [{"id","src","tgt"}, ...]}
  representation  quiver block plus {"modulus": n,
                   "modules": {vertex: [d1, d2, ...]},
                   "arrows_maps": {arrowId: [[...]] row-major, entries in [0,n)}}
  ses             {"modulus", "quiver", "x", "y", "z": {modules, arrows_maps},
                   "f": {vertex: matrix}, "g": {vertex: matrix}}
  reps file       {"modulus", "quiver", "reps": {name: {modules, arrows_maps}}}
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Tuple

from .quiver import Arrow, Quiver, VertexId
from .rep import RepMorphism, RepSES, Representation
from .znmod import FinMod, ModHom, Modulus


class FormatError(ValueError):
    """Malformed input file; the message names the offending field."""


def quiver_to_dict(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"id": a.id, "src": a.src, "tgt": a.tgt} for a in q.arrows],
    }


def _json_type(value) -> str:
    """The JSON type of a value `json.load` returned, for error messages;
    the values themselves are spelled by `json.dumps`."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}.get(type(value), type(value).__name__)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"{where}: expected a JSON object, got {_json_type(value)}")
    return value


def _int(value) -> int:
    """value, if it is a JSON integer: int() would truncate a float, parse
    a string and read true as 1."""
    if type(value) is not int:
        raise FormatError(f"expected an integer, got {json.dumps(value)}")
    return value


def _matrix(value, rows: int, cols: int) -> Tuple[Tuple[int, ...], ...]:
    """value, if it is a JSON array of `rows` arrays of `cols` integers
    that fit in 64 bits; nothing is reshaped."""
    if not isinstance(value, list) or len(value) != rows or any(not isinstance(r, list) or len(r) != cols for r in value):
        raise FormatError(f"expected {rows} rows of {cols} integers, got {json.dumps(value)}")
    out = tuple(tuple(map(_int, row)) for row in value)
    for row in out:
        for e in row:
            if not -(2**63) <= e < 2**63:
                raise FormatError(f"entry outside the 64-bit range ({e})")
    return out


def _known_keys(table: dict, keys: Iterable[str], where: str, what: str) -> None:
    """Reject the keys of `table` that name no vertex or arrow of the quiver."""
    unknown = sorted(set(table) - set(keys))
    if unknown:
        raise FormatError(f"{where}: unknown {what} {unknown}")


def _vertices(value) -> Tuple[VertexId, ...]:
    """value, if it is a JSON array of strings and integers (`true` is not
    an integer)."""
    if not isinstance(value, list):
        raise FormatError(f"quiver block: vertices: expected a JSON array, got {_json_type(value)}")
    for v in value:
        if type(v) not in (str, int):
            raise FormatError(f"quiver block: vertices: expected a string or an integer, got {json.dumps(v)}")
    return tuple(value)


def quiver_from_dict(d: dict) -> Quiver:
    try:
        vertices = _vertices(d["vertices"])
        arrows = tuple(Arrow(a["id"], a["src"], a["tgt"]) for a in d.get("arrows", []))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"quiver block: missing or malformed field ({exc})") from exc
    for a in arrows:
        # arrows_maps keys are JSON object keys, which are always strings
        if not isinstance(a.id, str):
            raise FormatError(f"quiver block: arrow {json.dumps(a.id)} from {json.dumps(a.src)} to {json.dumps(a.tgt)}: id must be a JSON string")
    try:
        q = Quiver(vertices, arrows)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"quiver block: {exc}") from exc
    # modules and morphisms are keyed by str(v), so 1 and "1" would share one entry
    if len({_vertex_key(v) for v in vertices}) != len(vertices):
        raise FormatError("quiver block: two vertex ids have the same string form")
    return q


def _vertex_key(v: VertexId) -> str:
    return str(v)


def rep_block_to_dict(x: Representation) -> dict:
    return {
        "modules": {_vertex_key(v): list(x.vertex_modules[v].factors) for v in x.quiver.vertices},
        "arrows_maps": {a.id: [list(row) for row in x.arrow_maps[a.id].matrix] for a in x.quiver.arrows},
    }


def rep_block_from_dict(d: dict, q: Quiver, modulus: Modulus) -> Representation:
    modules = _object(_object(d, "representation block").get("modules", {}), "modules")
    arrows_maps = _object(d.get("arrows_maps", {}), "arrows_maps")
    _known_keys(modules, map(_vertex_key, q.vertices), "modules", "vertices")
    _known_keys(arrows_maps, (a.id for a in q.arrows), "arrows_maps", "arrows")
    mods: Dict[VertexId, FinMod] = {}
    for v in q.vertices:
        key = _vertex_key(v)
        if key not in modules:
            raise FormatError(f"modules: missing vertex {key!r}")
        try:
            mods[v] = FinMod(modulus, tuple(_int(t) for t in modules[key]))
        except (TypeError, ValueError) as exc:
            raise FormatError(f"modules[{key!r}]: {exc}") from exc
    maps: Dict[str, ModHom] = {}
    for a in q.arrows:
        if a.id not in arrows_maps:
            raise FormatError(f"arrows_maps: missing arrow {a.id!r}")
        try:
            maps[a.id] = ModHom(mods[a.src], mods[a.tgt], _matrix(arrows_maps[a.id], mods[a.tgt].rank, mods[a.src].rank))
        except (TypeError, ValueError) as exc:
            raise FormatError(f"arrows_maps[{a.id!r}]: {exc}") from exc
    return Representation(q, modulus, mods, maps)


def rep_to_dict(x: Representation) -> dict:
    out = {"modulus": x.modulus.n, "quiver": quiver_to_dict(x.quiver)}
    out.update(rep_block_to_dict(x))
    return out


def _modulus_of(d: dict) -> Modulus:
    if "modulus" not in _object(d, "file"):
        raise FormatError("missing field 'modulus'")
    try:
        return Modulus(_int(d["modulus"]))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"modulus: {exc}") from exc


def rep_from_dict(d: dict) -> Representation:
    modulus = _modulus_of(d)
    q = quiver_from_dict(d.get("quiver", {}))
    return rep_block_from_dict(d, q, modulus)


def morphism_to_dict(f: RepMorphism) -> dict:
    return {_vertex_key(v): [list(row) for row in f.components[v].matrix] for v in f.source.quiver.vertices}


def morphism_from_dict(d: dict, src: Representation, tgt: Representation) -> RepMorphism:
    _known_keys(_object(d, "morphism"), map(_vertex_key, src.quiver.vertices), "morphism", "vertices")
    comps = {}
    for v in src.quiver.vertices:
        key = _vertex_key(v)
        if key not in d:
            raise FormatError(f"morphism: missing vertex {key!r}")
        try:
            comps[v] = ModHom(src.vertex_modules[v], tgt.vertex_modules[v], _matrix(d[key], tgt.vertex_modules[v].rank, src.vertex_modules[v].rank))
        except (TypeError, ValueError) as exc:
            raise FormatError(f"morphism[{key!r}]: {exc}") from exc
    try:
        return RepMorphism(src, tgt, comps)
    except ValueError as exc:
        raise FormatError(f"morphism: {exc}") from exc


def ses_to_dict(s: RepSES) -> dict:
    return {
        "modulus": s.x.modulus.n,
        "quiver": quiver_to_dict(s.x.quiver),
        "x": rep_block_to_dict(s.x),
        "y": rep_block_to_dict(s.y),
        "z": rep_block_to_dict(s.z),
        "f": morphism_to_dict(s.f),
        "g": morphism_to_dict(s.g),
    }


def ses_from_dict(d: dict) -> RepSES:
    modulus = _modulus_of(d)
    q = quiver_from_dict(d.get("quiver", {}))
    reps = {}
    for name in ("x", "y", "z"):
        if name not in d:
            raise FormatError(f"missing representation block {name!r}")
        reps[name] = rep_block_from_dict(d[name], q, modulus)
    f = morphism_from_dict(d.get("f", {}), reps["x"], reps["y"])
    g = morphism_from_dict(d.get("g", {}), reps["y"], reps["z"])
    try:
        return RepSES(f, g)
    except ValueError as exc:
        raise FormatError(f"sequence is not short exact: {exc}") from exc


def reps_file_from_dict(d: dict) -> Tuple[Modulus, Quiver, Dict[str, Representation]]:
    modulus = _modulus_of(d)
    q = quiver_from_dict(d.get("quiver", {}))
    reps = {}
    for name, block in _object(d.get("reps", {}), "reps").items():
        reps[name] = rep_block_from_dict(block, q, modulus)
    return modulus, q, reps


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
