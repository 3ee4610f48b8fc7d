"""Instance file format: JSON serialization of algebras, correspondences,
product systems, and representations.

Complex numbers are [re, im] pairs, matrices are row-major nested lists,
algebra elements are flat coordinate lists in the canonical matrix-unit
basis. The SHA-256 digest of the canonicalized JSON identifies an instance.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .correspondence import Correspondence
from .cstar import CStarAlgebra, make_algebra
from .errors import InstanceFormatError
from .prodsys import ProductSystem
from .representation import AlgebraRepresentation, CCRepresentation

DEFAULT_PARAMETERS = {"L": None, "M": None, "guard": 1, "tol": 1e-10}


@dataclass
class Instance:
    algebra: CStarAlgebra
    system: ProductSystem
    representation: CCRepresentation
    parameters: dict
    data: dict


# -- complex/matrix codecs ---------------------------------------------------


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def vector_to_json(v: np.ndarray) -> list:
    return [complex_to_json(z) for z in np.asarray(v).reshape(-1)]


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m)
    return [[complex_to_json(z) for z in row] for row in m]


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise InstanceFormatError(msg)


def json_to_complex(obj, where: str) -> complex:
    _expect(
        isinstance(obj, (list, tuple)) and len(obj) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj),
        f"{where}: expected a [re, im] pair, got {obj!r}",
    )
    _expect(all(math.isfinite(x) for x in obj), f"{where}: non-finite number in {obj!r}")
    return complex(obj[0], obj[1])


def json_to_vector(obj, length: int, where: str) -> np.ndarray:
    _expect(isinstance(obj, list), f"{where}: expected a list")
    _expect(len(obj) == length, f"{where}: expected {length} entries, got {len(obj)}")
    return np.array([json_to_complex(z, where) for z in obj], dtype=complex)


def json_to_matrix(obj, shape: tuple[int, int], where: str) -> np.ndarray:
    _expect(isinstance(obj, list) and len(obj) == shape[0], f"{where}: expected {shape[0]} rows")
    return np.stack([json_to_vector(row, shape[1], f"{where} row {i}") for i, row in enumerate(obj)])


# -- instance <-> objects ----------------------------------------------------


def correspondence_to_json(corr: Correspondence) -> dict:
    return {
        "dim": corr.dim,
        "gram": [[vector_to_json(corr.gram[i, j]) for j in range(corr.dim)] for i in range(corr.dim)],
        "right_action": [matrix_to_json(m) for m in corr.right_action],
        "left_action": [matrix_to_json(m) for m in corr.left_action],
    }


def _parse_correspondence(obj, algebra: CStarAlgebra, where: str) -> Correspondence:
    _expect(isinstance(obj, dict), f"{where}: expected an object")
    m = obj.get("dim")
    _expect(isinstance(m, int) and m >= 0, f"{where}: bad dim {m!r}")
    gram_obj = obj.get("gram")
    _expect(isinstance(gram_obj, list) and len(gram_obj) == m, f"{where}: gram needs {m} rows")
    gram = np.zeros((m, m, algebra.dim), dtype=complex)
    for i, row in enumerate(gram_obj):
        _expect(isinstance(row, list) and len(row) == m, f"{where}: gram row {i} needs {m} entries")
        for j, entry in enumerate(row):
            gram[i, j] = json_to_vector(entry, algebra.dim, f"{where}: gram[{i}][{j}]")
    actions = {}
    for key in ("right_action", "left_action"):
        mats = obj.get(key)
        _expect(
            isinstance(mats, list) and len(mats) == algebra.dim,
            f"{where}: {key} needs one matrix per algebra basis element",
        )
        actions[key] = np.stack(
            [json_to_matrix(mat, (m, m), f"{where}: {key}[{p}]") for p, mat in enumerate(mats)]
        ) if m else np.zeros((algebra.dim, 0, 0), dtype=complex)
    return Correspondence(algebra, gram, actions["right_action"], actions["left_action"])


def instance_to_json(system: ProductSystem, rep: CCRepresentation, parameters: dict | None = None) -> dict:
    data = {
        "algebra": {"blocks": list(system.algebra.block_sizes)},
        "k": system.k,
        "generators": [correspondence_to_json(g) for g in system.generators],
        "flips": {f"{i},{j}": matrix_to_json(mat) for (i, j), mat in sorted(system.flips.items())},
        "representation": {
            "H_dim": rep.dim,
            "sigma": [matrix_to_json(m) for m in rep.sigma.mats],
            "T": [[matrix_to_json(arr[b]) for b in range(arr.shape[0])] for arr in rep.t_maps],
        },
    }
    if parameters:
        data["parameters"] = parameters
    return data


def parse_instance(data: dict, tol: float | None = None) -> Instance:
    """Build the live objects from a decoded instance dict.

    Schema problems raise InstanceFormatError; mathematically invalid data
    (bad Grams, incoherent flips, non-covariant T) raises the corresponding
    InvalidArgumentError subtype from the constructors.
    """
    _expect(isinstance(data, dict), "instance: expected a JSON object")
    alg_obj = data.get("algebra")
    _expect(isinstance(alg_obj, dict) and isinstance(alg_obj.get("blocks"), list), "instance: missing algebra.blocks")
    _expect(
        all(isinstance(b, int) and b >= 1 for b in alg_obj["blocks"]) and alg_obj["blocks"],
        f"instance: bad block sizes {alg_obj['blocks']!r}",
    )
    algebra = make_algebra(alg_obj["blocks"])

    gens_obj = data.get("generators")
    _expect(isinstance(gens_obj, list) and gens_obj, "instance: missing generators")
    k = data.get("k", len(gens_obj))
    _expect(k == len(gens_obj), f"instance: k={k} but {len(gens_obj)} generators")
    generators = [_parse_correspondence(g, algebra, f"generator {i + 1}") for i, g in enumerate(gens_obj)]

    flips_obj = data.get("flips", {})
    _expect(isinstance(flips_obj, dict), "instance: flips must be an object")
    flips = {}
    for key, mat in flips_obj.items():
        try:
            i, j = (int(part) for part in key.split(","))
        except ValueError:
            raise InstanceFormatError(f"instance: bad flip key {key!r}") from None
        _expect(1 <= i < j <= k, f"instance: flip key {key!r} out of range")
        mi, mj = generators[i - 1].dim, generators[j - 1].dim
        flips[(i, j)] = json_to_matrix(mat, (mj * mi, mi * mj), f"flip {key}")

    params = dict(DEFAULT_PARAMETERS)
    params.update(data.get("parameters", {}))
    tol = params["tol"] if tol is None else tol
    system = ProductSystem(algebra, generators, flips, tol=tol)

    rep_obj = data.get("representation")
    _expect(isinstance(rep_obj, dict), "instance: missing representation")
    d = rep_obj.get("H_dim")
    _expect(isinstance(d, int) and d >= 1, f"instance: bad H_dim {d!r}")
    sigma_obj = rep_obj.get("sigma")
    _expect(
        isinstance(sigma_obj, list) and len(sigma_obj) == algebra.dim,
        "instance: sigma needs one matrix per algebra basis element",
    )
    sigma = AlgebraRepresentation(
        algebra, d, np.stack([json_to_matrix(m, (d, d), f"sigma[{p}]") for p, m in enumerate(sigma_obj)])
    )
    t_obj = rep_obj.get("T")
    _expect(isinstance(t_obj, list) and len(t_obj) == k, "instance: T needs one entry per generator")
    t_maps = []
    for i, (gen, mats) in enumerate(zip(generators, t_obj, strict=True), start=1):
        _expect(
            isinstance(mats, list) and len(mats) == gen.dim,
            f"instance: T[{i}] needs one matrix per basis vector of generator {i}",
        )
        arr = (
            np.stack([json_to_matrix(m, (d, d), f"T[{i}][{b}]") for b, m in enumerate(mats)])
            if gen.dim
            else np.zeros((0, d, d), dtype=complex)
        )
        t_maps.append(arr)
    rep = CCRepresentation(system, sigma, t_maps, tol=tol)
    return Instance(algebra, system, rep, params, data)


def load_instance(path: str, tol: float | None = None) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc
    return parse_instance(data, tol=tol)


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def digest(data) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()
