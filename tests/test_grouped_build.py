"""The grouped build of fibers, localizations and lowering blocks against
the per-key reference bodies of tests/oracles.py: the same arrays up to
rounding, the same first error, the same warnings.

A grouped GEMM may sum in another order than the per-key body, and an
eigenbasis of a repeated eigenvalue then turns by a rounding-size
perturbation, so bases are compared through what they do not fix: a
fiber by its compressions read back on raw coordinates (q^H G q, q^H A q),
a localization by F^H F and the projector L F, and a lowering block by the
per-key descent on the package's own localizations. Each comparison is
within TOL (test_factorwise.TOL) times the Frobenius norms of the operands
it multiplies.
"""

import json
import warnings

import numpy as np
import pytest

from conftest import degenerate_swap_rep
from dilationlab import cli, cstar, lattice, prodsys
from dilationlab.correspondence import Correspondence, trivial_correspondence
from dilationlab.errors import DegenerateRankWarning, NotWellDefinedError
from dilationlab.families import FAMILIES, generate
from dilationlab.instances import parse_instance
from dilationlab.prodsys import ProductSystem
from dilationlab.representation import AlgebraRepresentation, CCRepresentation
from oracles import (
    descend_map_loop,
    interior_tensor_pair,
    loc_point,
    lowering_block_loop,
    lowering_raw,
)
from test_factorwise import TOL


def _close(got, want, *operands) -> bool:
    """got equals want within TOL times the product of the operands'
    Frobenius norms (at least 1)."""
    scale = max(1.0, float(np.prod([np.linalg.norm(op) for op in operands])))
    return got.shape == want.shape and np.abs(got - want).max(initial=0.0) <= TOL * scale


def _zero_fiber_rep():
    """Scalar pair whose first generator has Gram 0: every fiber X(s) with
    s_1 > 0 is zero-dimensional, so its localization has rank 0."""
    alg = cstar.CStarAlgebra([1])
    one = np.ones((1, 1, 1), dtype=complex)
    gens = [Correspondence(alg, 0.0 * one, one, one), trivial_correspondence(alg, 1)]
    system = ProductSystem(alg, gens, {(1, 2): np.eye(1)})
    sigma = AlgebraRepresentation(alg, 1, one)
    return CCRepresentation(system, sigma, [0.0 * one, 0.8 * one])


def _killed_fiber_rep():
    """A = C + C acting on C by its first summand, both generators E = f_2 A:
    every fiber X(s), s > 0, is one-dimensional with Gram f_2, which sigma
    kills, so every localization but loc(0) has rank 0 on a nonzero raw
    space."""
    alg = cstar.CStarAlgebra([1, 1])
    act = np.array([[[0.0]], [[1.0]]], dtype=complex)  # f_p . e = delta_{p2} e
    gen = Correspondence(alg, np.array([[[0.0, 1.0]]], dtype=complex), act, act)
    system = ProductSystem(alg, [gen, gen], {(1, 2): np.eye(1)})
    sigma = AlgebraRepresentation(alg, 1, np.array([[[1.0]], [[0.0]]], dtype=complex))
    return CCRepresentation(system, sigma, [np.zeros((1, 1, 1), dtype=complex)] * 2)


def _family_cases():
    cases = {}
    for family in sorted(FAMILIES):
        for k, dims in ((2, 2), (2, 3), (3, 2)):
            if family == "nilpotent-counterexample" and (k, dims) != (2, 2):
                continue  # the family takes neither k nor dims
            cases[f"{family} k={k} dims={dims}"] = (
                lambda family=family, k=k, dims=dims: parse_instance(
                    generate(family, seed=1, k=k, dims=dims)
                ).representation
            )
    return cases


CASES = {
    **_family_cases(),
    "zero-dimensional fiber": _zero_fiber_rep,
    "rank-0 localization": _killed_fiber_rep,
    "degenerate Gram, k=3 swaps": lambda: degenerate_swap_rep(3, projectors=True),
}


def _box_keys(k):
    box = lattice.box((2,) * k)
    return box, [(t, s) for t in box for s in box if lattice.leq(s, t)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_grouped_blocks_and_localizations_equal_the_per_key_oracle(name):
    """One build of every localization and lowering block over the box 2
    (the NS box) gives the per-point localization and the per-key raw map
    and descent, up to rounding."""
    rep = CASES[name]()
    box, keys = _box_keys(rep.system.k)
    blocks = rep.build(points=box, keys=keys)
    for s in box:
        got, want = rep.loc(s), loc_point(rep, s)
        assert (got.source_dim, got.rank) == (want.source_dim, want.rank), (name, s)
        gram = want.factor.conj().T @ want.factor
        assert _close(got.factor.conj().T @ got.factor, gram, want.factor, want.factor), (name, s)
        # the projector onto the kept eigenvectors moves by rounding over the
        # smallest kept eigenvalue
        vals = np.linalg.eigvalsh(gram)
        kept = vals[vals.size - want.rank :].min(initial=1.0)
        assert _close(got.lift @ got.factor, want.lift @ want.factor, gram / kept), (name, s)
    for (t, s), block in zip(keys, blocks):
        if lattice.is_zero(s):
            want = np.eye(rep.loc(t).rank)
            assert np.array_equal(block, want), (name, t, s)
            continue
        raw = lowering_raw(rep, t, s)
        source, target = rep.loc(t), rep.loc(lattice.sub(t, s))
        want = descend_map_loop(raw, source, target, rep.tol)
        assert _close(block, want, target.factor, raw, source.lift), (name, t, s)
    if name == "rank-0 localization":
        assert all(rep.loc(s).rank == 0 for s in box if not lattice.is_zero(s))


@pytest.mark.parametrize("name", sorted(CASES))
def test_level_built_fibers_equal_the_per_pair_oracle(name):
    """Fibers built level by level in grouped interior tensors equal the
    per-pair interior tensor of their prefix fiber and last generator, read
    back on raw coordinates: the kept projector q^H q and the compressions
    q^H G_p q and q^H A_p q."""
    system = CASES[name]().system
    box, _keys = _box_keys(system.k)
    system.build(box)
    for s in box:
        if sum(s) < 2:
            continue
        i = max(lattice.support(s))
        prev = lattice.sub(s, lattice.unit(system.k, i))
        corr, q = interior_tensor_pair(system.fiber(prev), system.generators[i - 1], system.tol)
        got = system.point_data(s)
        assert got.corr.dim == corr.dim, (name, s)
        assert _close(got.last_q.conj().T @ got.last_q, q.conj().T @ q, q, q), (name, s)
        for mine, theirs in (
            (np.moveaxis(got.corr.gram, 2, 0), np.moveaxis(corr.gram, 2, 0)),
            (got.corr.right_action, corr.right_action),
            (got.corr.left_action, corr.left_action),
        ):
            lhs = got.last_q.conj().T @ mine @ got.last_q
            rhs = q.conj().T @ theirs @ q
            assert _close(lhs, rhs, q, theirs, q), (name, s)


def test_ns_box_builds_each_word_length_once(monkeypatch):
    """The check section of multiplication-isometric M_2, k = 3, NS_box
    (2, 2, 2), takes at most one interior_tensor per word length it builds,
    and caches the multiplication maps of the NS blocks."""
    inst = parse_instance(generate("multiplication-isometric", k=3, dims=2))
    system = inst.system
    cli._validation_section(inst)
    before = set(system._points)
    tensors = []
    interior_tensor = prodsys.interior_tensor

    def counted_tensor(pairs, tol):
        tensors.append(len(pairs))
        return interior_tensor(pairs, tol)

    monkeypatch.setattr(prodsys, "interior_tensor", counted_tensor)
    cli._check_section(inst, {"NS_box": [2, 2, 2]})
    lengths = {sum(s) for s in set(system._points) - before}
    assert lengths == {2, 3, 4, 5, 6}
    assert len(tensors) <= len(lengths)
    assert len(system._isos) >= 72  # the NS blocks' disjoint-support pairs


def _mult_m2():
    return parse_instance(generate("multiplication-isometric", k=2, dims=2)).representation


def _push_off(monkeypatch, point):
    """Make t_raw at `point` (and every composite through it) miss the maps
    that descend, by a constant 1e-6 on the raw coordinates."""
    original = CCRepresentation.t_raw

    def pushed(self, s):
        out = original(self, s)
        return out + 1e-6 if tuple(s) == point else out

    monkeypatch.setattr(CCRepresentation, "t_raw", pushed)


def _first_failure(rep, keys):
    """The key, message and residual of the first key of the per-key loop
    whose block raises."""
    for n, key in enumerate(keys):
        try:
            lowering_block_loop(rep, *key)
        except NotWellDefinedError as exc:
            return n, str(exc), exc.residual
    raise AssertionError("no key fails")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_failing_descents_raise_for_the_first_key_in_order(monkeypatch, seed):
    """With t_raw pushed off at e_1, six blocks fail, with residuals of
    three sizes, in the top group and in a stacked mu group; in any order
    of the keys `build` raises the error of the first failing key of
    the per-key loop, with its residual, and the keys before it build."""
    _push_off(monkeypatch, (1, 0))
    _box, keys = _box_keys(2)
    order = [keys[n] for n in np.random.default_rng(seed).permutation(len(keys))]
    first, message, residual = _first_failure(_mult_m2(), order)
    rep = _mult_m2()
    with pytest.raises(NotWellDefinedError) as info:
        rep.build(keys=order)
    assert str(info.value) == message and info.value.residual == residual
    rep = _mult_m2()
    rep.build(keys=order[:first])
    with pytest.raises(NotWellDefinedError) as info:
        rep.lowering_block(*order[first])
    assert str(info.value) == message


def test_singular_split_in_a_group_raises_for_the_first_key():
    """Two keys of one stacked solve whose mu mu^H are singular: the error
    names the multiplication map of the first of them in the order of the
    keys, and the other keys of the group are built as on their own."""
    keys = [((2, 0), (1, 0)), ((1, 1), (0, 1)), ((1, 1), (1, 0)), ((0, 2), (0, 1))]
    for order, pair in ((keys, "((1, 0), (0, 1))"), (keys[::-1], "((0, 1), (1, 0))")):
        rep = parse_instance(generate("diagonal-doubly-commuting", seed=0, k=2, dims=2)).representation
        sys_ = rep.system
        shapes = {
            tuple(sys_.fiber_dim(p) for p in (t, lattice.sub(t, s), s))
            + (rep.loc(t).rank, rep.loc(lattice.sub(t, s)).rank)
            for t, s in keys
        }
        assert len(shapes) == 1  # one stacked group
        for rest, s in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
            sys_._isos[(rest, s)] = np.zeros_like(sys_.mult_iso(rest, s))
        with pytest.raises(NotWellDefinedError, match="multiplication isomorphism") as info:
            rep.build(keys=order)
        assert pair in str(info.value)
        for key in (keys[0], keys[3]):
            assert np.array_equal(rep.lowering_block(*key), lowering_block_loop(rep, *key))


def _check_order(k, ns_box):
    """The keys the CLI's validate and check stages visit, in the order a
    key-by-key loop meets them: contraction and commutation, then the
    doubly-commuting identity per pair, then the Brehmer sums."""
    units = [lattice.unit(k, i) for i in range(1, k + 1)]
    keys = []
    for i, e_i in enumerate(units):
        keys.append((e_i, e_i))
        for e_j in units[i + 1 :]:
            e_ij = lattice.add(e_i, e_j)
            keys += [(e_i, e_i), (e_ij, e_j), (e_j, e_j), (e_ij, e_i)]
    for i, a in enumerate(units):
        for b in units[i + 1 :]:
            ab = lattice.add(a, b)
            keys += [(ab, a), (ab, b), (b, b), (a, a)]
    for v in lattice.subsets(range(1, k + 1)):
        seen = set()
        for s in lattice.box(ns_box):
            sv = lattice.restrict(s, v)
            if v and all(s[i - 1] for i in v) and sv not in seen:
                seen.add(sv)
                keys += [(sv, lattice.restrict(sv, u)) for u in lattice.subsets(v)]
    return keys


def test_cli_reports_the_failure_of_the_per_key_order(tmp_path, monkeypatch, capsys):
    """A descent that fails inside the check section (t_raw pushed off at
    2 e_1, which validation does not reach) exits 1 with the error text of
    the first failing key of the per-key loop over the visited keys."""
    data = generate("multiplication-isometric", k=2, dims=2)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    _push_off(monkeypatch, (2, 0))
    order = _check_order(2, (2, 2))
    first, message, _residual = _first_failure(parse_instance(data).representation, order)
    assert first >= len(_check_order(2, (0, 0)))  # past validation and the dc checks
    out = tmp_path / "r.json"
    assert cli.main(["check", str(path), "--out", str(out)]) == cli.EXIT_INVALID
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["error"] == message and report["verdicts"] == {"valid": False}
    assert message in capsys.readouterr().err


def _faint_rep():
    """Scalar pair whose first generator has Gram 3e-10, inside the
    ambiguous band of the 1e-10 cutoff: X(s) keeps it for s_1 = 1 and drops
    it for s_1 = 2."""
    alg = cstar.CStarAlgebra([1])
    one = np.ones((1, 1, 1), dtype=complex)
    gens = [Correspondence(alg, 3e-10 * one, one, one), trivial_correspondence(alg, 1)]
    system = ProductSystem(alg, gens, {(1, 2): np.eye(1)})
    sigma = AlgebraRepresentation(alg, 1, one)
    return CCRepresentation(system, sigma, [0.5 * one, 0.5 * one])


def test_degenerate_rank_warning_once_per_localized_point():
    """Grouped localization warns once for each point whose localized Gram
    has an eigenvalue inside warn_degenerate's band, and for no other."""
    box = lattice.box((2, 2))
    with warnings.catch_warnings():
        # the fibers' own null quotients warn too
        warnings.simplefilter("ignore", DegenerateRankWarning)
        rep = _faint_rep()
        rep.system.build(box)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep.build(points=box)
    localize_warnings = [w for w in caught if str(w.message).startswith("localize:")]
    assert all(issubclass(w.category, DegenerateRankWarning) for w in localize_warnings)
    in_band = []
    for s in box:
        if lattice.is_zero(s) or rep.system.fiber_dim(s) == 0:
            continue
        fiber = rep.system.fiber(s)
        vals = np.linalg.eigvalsh(np.einsum("ijp,pkl->ikjl", fiber.gram, rep.sigma.mats).reshape(fiber.dim, fiber.dim))
        in_band += [s] * bool(np.any((np.abs(vals) > 1e-11) & (np.abs(vals) < 1e-9)))
    assert in_band == [(1, 0), (1, 1), (1, 2)]
    assert len(localize_warnings) == len(in_band)
