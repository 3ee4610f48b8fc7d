"""The window kernel as a unit-triangular congruence of Brehmer defects,
K = F^H diag(Delta(r)) F, checked against `oracles.brehmer_congruence`,
which builds F and the Delta(r) from lowering blocks only."""

import numpy as np
import pytest

from dilationlab.dilation import window_gram
from dilationlab.families import FAMILIES, generate
from dilationlab.instances import load_instance, parse_instance

from conftest import INSTANCES_DIR, degenerate_swap_rep
from oracles import brehmer_congruence

SAMPLES = ("scalar_pair", "nilpotent_pair", "unitary_scalar", "swap_pair")
# the rank cutoff of the inertia, relative to the largest eigenvalue
RANK_RTOL = 1e-10


def _congruence(rep, bound):
    """The window, its kernel's congruence residual against the operands'
    scale, and the oracle's F and defects."""
    window = window_gram(rep, bound)
    tri, deltas = brehmer_congruence(rep, bound)
    diag = np.zeros_like(tri)
    start = 0
    for delta in deltas:
        diag[start : start + len(delta), start : start + len(delta)] = delta
        start += len(delta)
    residual = np.linalg.norm(window.gram - tri.conj().T @ diag @ tri, 2)
    scale = np.linalg.norm(tri, 2) ** 2 * np.linalg.norm(diag, 2)
    return window, residual / scale, tri, deltas


def _inertia(vals: np.ndarray) -> tuple[int, int]:
    cutoff = RANK_RTOL * np.abs(vals).max()
    return int(np.count_nonzero(vals > cutoff)), int(np.count_nonzero(vals < -cutoff))


CASES = [(name, None, 2) for name in SAMPLES]
CASES += [(family, dict(k=k, dims=2), 2 if k == 2 else 1) for family in sorted(FAMILIES) for k in (2, 3)]
# a window that is not PSD, with 39 positive and 9 negative eigenvalues
CASES.append(("random-contractive", dict(k=2, dims=3), 3))


@pytest.mark.parametrize("name, gen_args, bound", CASES)
def test_kernel_is_a_congruence_of_brehmer_defects(name, gen_args, bound):
    """On the sample instances at M = 2 and on each family at k = 2 (M = 2)
    and k = 3 (M = 1), and on a random-contractive window that is not PSD:
    K = F^H diag(Delta) F within 1e-13 of the operands'
    norms, the window stores the oracle's F, and the kernel's inertia is
    the sum of the defects' inertias."""
    if gen_args is None:
        rep = load_instance(str(INSTANCES_DIR / f"{name}.json")).representation
    else:
        rep = parse_instance(generate(name, seed=1, **gen_args)).representation
    window, residual, tri, deltas = _congruence(rep, (bound,) * rep.system.k)
    assert residual <= 1e-13, residual
    assert np.abs(window.triangular - tri).max() <= 1e-13 * np.abs(tri).max()
    kernel = _inertia(np.linalg.eigvalsh(window.gram))
    assert kernel == _inertia(np.concatenate([np.linalg.eigvalsh(delta) for delta in deltas]))
    if name == "nilpotent_pair":
        assert kernel == (10, 4)
    if name == "swap_pair":
        assert kernel == (147, 0)
    if bound == 3:
        assert kernel == (39, 9)


def test_congruence_rests_on_the_semigroup_law():
    """degenerate_swap_rep breaks the semigroup law of T^ (its commutation
    residual is about 9e-2), and the identity misses by about 1e-2."""
    _window, residual, _tri, _deltas = _congruence(degenerate_swap_rep(), (2, 2))
    assert 1e-3 < residual < 1e-1, residual
