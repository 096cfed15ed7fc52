"""Seeded input files for the ``large_reps`` workload.

Stdlib only and independent of ``quiverhom.harness``, so refactoring the
harness's random generators cannot change these inputs.  Every file is a
pure function of ``(seed, index)``.
"""

from __future__ import annotations

import json
import os
import random
from math import gcd
from typing import List, Tuple

MODULI = (12, 36, 72)
VERTICES = 4
ARROWS = 4
MAX_RANK = 2
# half the files are purity sequences, so the median item falls among many
# similar items instead of in the gap between the cheap and the dear kinds
KINDS = ("purity", "ext", "purity", "classify")


def _divisors(n: int) -> List[int]:
    return [d for d in range(2, n + 1) if n % d == 0]


def _chain(rng: random.Random, n: int, rank: int) -> List[int]:
    """An ascending divisibility chain of `rank` invariant factors of Z/n."""
    out, prev = [], 1
    for _ in range(rank):
        prev = rng.choice([d for d in _divisors(n) if d % prev == 0])
        out.append(prev)
    return out


def _hom(rng: random.Random, dom: List[int], cod: List[int]) -> List[List[int]]:
    """A random well-defined hom: entry (j, i) is a multiple of e_j / gcd(d_i, e_j)."""
    return [[(e // gcd(d, e)) * rng.randrange(gcd(d, e)) for d in dom] for e in cod]


def _quiver(rng: random.Random) -> Tuple[dict, List[Tuple[str, int, int]]]:
    """An acyclic quiver: every arrow goes from a lower to a higher vertex."""
    arrows = []
    for k in range(ARROWS):
        s = rng.randint(1, VERTICES - 1)
        arrows.append((f"a{k}", s, rng.randint(s + 1, VERTICES)))
    q = {
        "vertices": list(range(1, VERTICES + 1)),
        "arrows": [{"id": a, "src": s, "tgt": t} for a, s, t in arrows],
    }
    return q, arrows


def _block(rng: random.Random, n: int, arrows, modules=None) -> dict:
    if modules is None:
        modules = {v: _chain(rng, n, rng.randint(0, MAX_RANK)) for v in range(1, VERTICES + 1)}
    return {
        "modules": {str(v): m for v, m in modules.items()},
        "arrows_maps": {a: _hom(rng, modules[s], modules[t]) for a, s, t in arrows},
    }


def _ses(rng: random.Random, n: int, q: dict, arrows) -> dict:
    """0 -> x -> x (+) z -> z -> 0 with a random twist T_a : z(s) -> x(t).

    Each middle module's chain is split into a head (x) and a tail (z), so
    the concatenation stays an invariant-factor chain and f, g are the block
    inclusion and projection.  The sequence splits at every vertex; a
    nonzero twist can make it non-pure.
    """
    xs, zs = {}, {}
    for v in range(1, VERTICES + 1):
        ys = _chain(rng, n, rng.randint(0, MAX_RANK))
        cut = rng.randint(0, len(ys))
        xs[v], zs[v] = ys[:cut], ys[cut:]
    x = _block(rng, n, arrows, xs)
    z = _block(rng, n, arrows, zs)
    ymaps = {}
    for a, s, t in arrows:
        top = [r + tw for r, tw in zip(x["arrows_maps"][a], _hom(rng, zs[s], xs[t]))]
        bottom = [[0] * len(xs[s]) + r for r in z["arrows_maps"][a]]
        ymaps[a] = top + bottom
    ymods = {str(v): xs[v] + zs[v] for v in xs}

    def identity_cols(v):
        rx, rz = len(xs[v]), len(zs[v])
        f = [[int(i == j) for j in range(rx)] for i in range(rx)] + [[0] * rx for _ in range(rz)]
        g = [[0] * rx + [int(i == j) for j in range(rz)] for i in range(rz)]
        return f, g

    fg = {str(v): identity_cols(v) for v in xs}
    return {
        "modulus": n,
        "quiver": q,
        "x": x,
        "y": {"modules": ymods, "arrows_maps": ymaps},
        "z": z,
        "f": {v: p[0] for v, p in fg.items()},
        "g": {v: p[1] for v, p in fg.items()},
    }


def make_item(seed: int, index: int) -> Tuple[str, dict]:
    """The kind and JSON document of input file `index` for `seed`.

    Kind and modulus follow the index, so every run sees the same mix of
    them; the seed draws the quiver, the modules and the maps.
    """
    rng = random.Random(f"large_reps:{seed}:{index}")
    kind = KINDS[index % len(KINDS)]
    n = MODULI[index // len(KINDS) % len(MODULI)]
    q, arrows = _quiver(rng)
    if kind == "classify":
        doc = {"modulus": n, "quiver": q, **_block(rng, n, arrows)}
    elif kind == "purity":
        doc = _ses(rng, n, q, arrows)
    else:
        doc = {"modulus": n, "quiver": q, "reps": {"x": _block(rng, n, arrows), "y": _block(rng, n, arrows)}}
    return kind, doc


def cli_argv(kind: str, path: str) -> List[str]:
    """The quiverhom command line that processes one input file."""
    if kind == "classify":
        return ["classify", path, "--oracle", "--json"]
    if kind == "purity":
        return ["purity", path, "--json"]
    return ["ext", path, "--x", "x", "--y", "y", "--n", "1", "--json"]


def write_items(seed: int, indices, directory: str) -> List[List[str]]:
    """Write the input files for `indices` and return their command lines."""
    out = []
    for i in indices:
        kind, doc = make_item(seed, i)
        path = os.path.join(directory, f"item{i:04d}-{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        out.append(cli_argv(kind, path))
    return out
