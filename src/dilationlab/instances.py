"""Instance file format: JSON serialization of algebras, correspondences,
product systems, and representations.

Complex numbers are [re, im] pairs, matrices are row-major nested lists,
algebra elements are flat coordinate lists in the canonical matrix-unit
basis. An array whose imaginary parts are all zero is read as float64, so
a real instance is computed in real arithmetic. The SHA-256 digest of the
canonicalized JSON identifies an instance.
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
from .linalg import DEFAULT_TOL
from .prodsys import ProductSystem
from .representation import AlgebraRepresentation, CCRepresentation


def default_parameters(k: int) -> dict:
    """The run parameters of an instance with k generators that neither it,
    a reference report nor the flags set; an unset M is L."""
    return {"L": [3] * k, "guard": 1, "tol": DEFAULT_TOL, "NS_box": [2] * k}


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


_NUMBER_TYPES = {int, float}  # exact types: bool, str and null are not numbers


def _finite(x) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def json_to_complex(obj, where: str) -> complex:
    _expect(
        isinstance(obj, (list, tuple)) and len(obj) == 2
        and all(type(x) in _NUMBER_TYPES for x in obj),
        f"{where}: expected a [re, im] pair, got {obj!r}",
    )
    _expect(all(_finite(x) for x in obj), f"{where}: non-finite number in {obj!r}")
    return complex(obj[0], obj[1])


def check_tol(value, where: str) -> None:
    """A tolerance is a finite number >= 0; anything else is a format error."""
    _expect(
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value >= 0,
        f"{where}: tolerance must be a finite number >= 0, got {value!r}",
    )


def _check_entries(obj, shape: tuple[int, ...], where: str) -> None:
    """Walk nested lists of [re, im] pairs; raise at the first bad entry."""
    if not shape:
        json_to_complex(obj, where)
        return
    _expect(
        isinstance(obj, (list, tuple)) and len(obj) == shape[0],
        f"{where}: expected a list of {shape[0]} entries, got {obj!r:.60}",
    )
    for i, item in enumerate(obj):
        _check_entries(item, shape[1:], f"{where}[{i}]")


def json_to_array(obj, shape: tuple[int, ...], where: str) -> np.ndarray:
    """Array of the given shape from nested lists of [re, im] pairs: float64
    when every imaginary part is zero, else complex128.

    The whole array is checked at once: its nesting against the shape, every
    number an int or float, every number finite. Only when a check fails is
    the input walked entry by entry, to name the first bad one.
    """
    arr = np.array(obj, dtype=object)  # ragged nesting gives a wrong shape
    if arr.shape == shape + (2,) and set(map(type, arr.flat)) <= _NUMBER_TYPES:
        try:
            vals = arr.astype(float)
            if np.isfinite(vals).all():
                if vals[..., 1].any():
                    return vals.view(complex)[..., 0]
                return np.ascontiguousarray(vals[..., 0])
        except OverflowError:  # an int beyond the float range; the walk names it
            pass
    _check_entries(obj, shape, where)
    # the walk accepts an input the fast path does not only when it is empty
    return np.zeros(shape)


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
    _expect(isinstance(m, int) and m >= 1, f"{where}: bad dim {m!r}")
    gram = json_to_array(obj.get("gram"), (m, m, algebra.dim), f"{where}: gram")
    right = json_to_array(obj.get("right_action"), (algebra.dim, m, m), f"{where}: right_action")
    left = json_to_array(obj.get("left_action"), (algebra.dim, m, m), f"{where}: left_action")
    return Correspondence(algebra, gram, right, left)


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

    The product system and the representation are built with `tol` when
    given (a flag's or a reference report's tolerance), else with the
    instance's `parameters.tol`, else the default. `Instance.parameters`
    holds the instance's parameters over `default_parameters`, null values
    counting as unset, with `tol` the one the objects were built with.

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
        flips[(i, j)] = json_to_array(mat, (mj * mi, mi * mj), f"flip {key}")

    given = data.get("parameters", {})
    _expect(isinstance(given, dict), "instance: parameters must be an object")
    params = default_parameters(k)
    params.update((name, value) for name, value in given.items() if value is not None)
    check_tol(params["tol"], "instance: parameters.tol")
    if tol is not None:
        check_tol(tol, "parameter tol")
        params["tol"] = tol
    system = ProductSystem(algebra, generators, flips, tol=params["tol"])

    rep_obj = data.get("representation")
    _expect(isinstance(rep_obj, dict), "instance: missing representation")
    d = rep_obj.get("H_dim")
    _expect(isinstance(d, int) and d >= 1, f"instance: bad H_dim {d!r}")
    sigma = AlgebraRepresentation(
        algebra, d, json_to_array(rep_obj.get("sigma"), (algebra.dim, d, d), "sigma")
    )
    t_obj = rep_obj.get("T")
    _expect(isinstance(t_obj, list) and len(t_obj) == k, "instance: T needs one entry per generator")
    t_maps = [
        json_to_array(mats, (gen.dim, d, d), f"T[{i}]")
        for i, (gen, mats) in enumerate(zip(generators, t_obj, strict=True), start=1)
    ]
    rep = CCRepresentation(system, sigma, t_maps, tol=params["tol"])
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
