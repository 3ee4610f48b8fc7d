"""Every array's dtype follows its data: a real instance is read as float64
and computed in real arithmetic, and gives the outcomes and, within
VALIDATION_DRIFT, the numbers of the same instance computed all in complex."""

import numpy as np
import pytest

from dilationlab import instances
from dilationlab.correspondence import Correspondence
from dilationlab.cstar import CStarAlgebra
from dilationlab.families import generate
from dilationlab.instances import array_to_json, json_to_array, parse_instance
from dilationlab.lattice import unit
from dilationlab.linalg import as_data, null_split, pivoted_cholesky, psd_factor

import oracles
from sweep import CASES, outcome, run_instance
from test_sweep import VALIDATION_DRIFT

REAL_FAMILIES = ("multiplication-isometric", "nilpotent-counterexample")


def mixed_instance() -> dict:
    """multiplication-isometric M_2, k=2, with every T times e^{0.7i}: the
    Grams, actions, flips and sigma are real, the T maps complex."""
    data = generate("multiplication-isometric", k=2, dims=2)
    phase = np.exp(0.7j)
    rep = data["representation"]
    rep["T"] = [
        array_to_json(phase * json_to_array(mats, (len(mats), 2, 2), "T")) for mats in rep["T"]
    ]
    return data


def instance_arrays(inst) -> dict[str, np.ndarray]:
    """Every Gram, action, flip, sigma and T array of a parsed instance."""
    arrays = {}
    for i, gen in enumerate(inst.system.generators, start=1):
        arrays[f"gram_{i}"] = gen.gram
        arrays[f"right_action_{i}"] = gen.right_action
        arrays[f"left_action_{i}"] = gen.left_action
    arrays.update({f"flip_{i}_{j}": phi for (i, j), phi in inst.system.flips.items()})
    arrays["sigma"] = inst.representation.sigma.mats
    arrays.update({f"T_{i}": t for i, t in enumerate(inst.representation.t_maps, start=1)})
    return arrays


def test_json_to_array_dtype_follows_imaginary_parts():
    real = [[[1, 0], [2.5, -0.0]], [[0, 0], [-1, 0]]]
    arr = json_to_array(real, (2, 2), "m")
    assert arr.dtype == np.float64 and arr.flags.c_contiguous
    np.testing.assert_array_equal(arr, [[1.0, 2.5], [0.0, -1.0]])
    one_imag = [[[1, 0], [2.5, 0]], [[0, 1e-300], [-1, 0]]]
    arr = json_to_array(one_imag, (2, 2), "m")
    assert arr.dtype == np.complex128
    assert arr[1, 0] == 1e-300j


def test_as_data_keeps_float64_and_complex128_and_promotes_the_rest():
    for dtype in (np.float64, np.complex128):
        a = np.eye(2, dtype=dtype)
        assert as_data(a) is a
    assert as_data([[1, 0], [0, 1]]).dtype == np.float64
    assert as_data(np.eye(2, dtype=np.float32)).dtype == np.float64
    assert as_data(np.eye(2, dtype=np.complex64)).dtype == np.complex128
    algebra = CStarAlgebra([1])
    ones = np.ones((1, 1, 1))
    corr = Correspondence(algebra, ones.astype(int), ones, ones.astype(np.complex64))
    assert corr.right_action is ones
    assert [corr.gram.dtype, corr.left_action.dtype] == [np.float64, np.complex128]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_factorizations_follow_the_gram(dtype):
    gram = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=dtype)
    assert pivoted_cholesky(gram).dtype == dtype
    assert psd_factor(*np.linalg.eigh(gram), 1e-10, "gram")[0].dtype == dtype
    empty = np.zeros((0, 0), dtype=dtype)
    assert psd_factor(*np.linalg.eigh(empty), 1e-10, "gram")[0].dtype == dtype
    [kept] = null_split(empty[None], 1e-10, "gram")
    assert kept.dtype == dtype


def test_real_instance_parses_as_float64():
    inst = parse_instance(generate("multiplication-isometric", k=3, dims=2))
    arrays = instance_arrays(inst)
    assert len(arrays) == 3 * 3 + 3 + 1 + 3
    assert {name: a.dtype for name, a in arrays.items()} == {name: np.float64 for name in arrays}
    rep = inst.representation
    e_1 = unit(3, 1)
    assert rep.loc(e_1).factor.dtype == np.float64
    assert rep.lowering_block(e_1, e_1).dtype == np.float64


def test_complex_arrays_parse_as_complex128():
    inst = parse_instance(mixed_instance())
    dtypes = {name: a.dtype for name, a in instance_arrays(inst).items()}
    assert dtypes == {
        name: np.complex128 if name.startswith("T_") else np.float64 for name in dtypes
    }
    rep = inst.representation
    e_1 = unit(2, 1)
    assert rep.loc(e_1).factor.dtype == np.float64
    assert rep.lowering_block(e_1, e_1).dtype == np.complex128


def run_values(run: dict) -> dict:
    """Every check residual, psd_margin, validation, doubly-commuting and NS
    value of a run, by name."""
    values = {f"check {c['name']}": c["residual"] for c in run["checks"]}
    values["psd_margin"] = (run["window"] or {}).get("psd_margin")
    for section in ("validation", "doubly_commuting", "NS"):
        values.update((f"{section} {key}", v) for key, v in run[section].items())
    return values


def compare_runs(real: dict, ref: dict) -> list[str]:
    """Differences of a run from its all-complex reference: any in the
    outcome, and every value of run_values that drifts by more than
    VALIDATION_DRIFT."""
    problems = [] if outcome(real) == outcome(ref) else [f"{outcome(ref)} vs {outcome(real)}"]
    new, old = run_values(real), run_values(ref)
    if sorted(new) != sorted(old):
        return problems + [f"fields {sorted(old)} vs {sorted(new)}"]
    return problems + [
        f"{key}: {old[key]!r} vs {new[key]!r}"
        for key in sorted(old)
        if not (new[key] == old[key] or abs(new[key] - old[key]) <= VALIDATION_DRIFT)
    ]


CASES_REAL = [
    pytest.param(family, k, dims, bound, id=f"{family}-{k}-{dims}-{bound}")
    for family in REAL_FAMILIES
    for k, dims, bound in CASES
] + [pytest.param("mixed", 2, 2, 2, id="mixed-2-2-2")]


@pytest.mark.parametrize(("family", "k", "dims", "bound"), CASES_REAL)
def test_real_run_matches_all_complex_run(family, k, dims, bound, tmp_path, monkeypatch):
    data = mixed_instance() if family == "mixed" else generate(family, k=k, dims=dims)
    real = run_instance(data, "real", bound, tmp_path)
    monkeypatch.setattr(instances, "json_to_array", oracles.json_to_complex_array)
    arrays = instance_arrays(parse_instance(data)).values()
    assert {a.dtype for a in arrays} == {np.dtype(np.complex128)}
    ref = run_instance(data, "complex", bound, tmp_path)
    assert compare_runs(real, ref) == []
