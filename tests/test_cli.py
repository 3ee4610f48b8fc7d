import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilationlab import cli
from dilationlab.families import FAMILIES, _scalar_instance

from conftest import INSTANCES_DIR

SCALAR = str(INSTANCES_DIR / "scalar_pair.json")
NILPOTENT = str(INSTANCES_DIR / "nilpotent_pair.json")
UNITARY = str(INSTANCES_DIR / "unitary_scalar.json")
SWAP = INSTANCES_DIR / "swap_pair.json"


def run(args):
    return cli.main(args)


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_validate_ok(tmp_path):
    out = tmp_path / "r.json"
    assert run(["validate", SCALAR, "--out", str(out)]) == cli.EXIT_OK
    report = read_report(out)
    assert report["verdicts"]["valid"] is True
    assert report["command"] == "validate"


def test_validate_invalid_instance(tmp_path, scalar_pair_data):
    data = scalar_pair_data
    data["representation"]["T"][0][0][0][0] = [3.0, 0.0]  # norm 3 > 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["validate", str(bad)]) == cli.EXIT_INVALID


def test_format_error_exit(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run(["validate", str(bad)]) == cli.EXIT_FORMAT
    missing = tmp_path / "missing.json"
    assert run(["validate", str(missing)]) == cli.EXIT_FORMAT
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert run(["validate", str(empty)]) == cli.EXIT_FORMAT


def test_zero_dimensional_generator_is_a_format_error(tmp_path, capsys):
    """A generator needs a basis vector; a zero correspondence is a zero
    Gram (see the fuzz test below)."""
    data = _nilpotent_data()
    data["generators"][0] = {"dim": 0, "gram": [], "left_action": [[]], "right_action": [[]]}
    data["representation"]["T"][0] = []
    data["flips"]["1,2"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["dilate", str(bad)]) == cli.EXIT_FORMAT
    assert "generator 1: bad dim 0" in capsys.readouterr().err


@pytest.mark.parametrize("value, text", [(float("nan"), "NaN"), (float("inf"), "Infinity")])
def test_non_finite_numbers_are_format_errors(tmp_path, scalar_pair_data, value, text):
    data = scalar_pair_data
    data["representation"]["T"][0][0][0][0] = [value, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))  # written as NaN / Infinity
    assert text in bad.read_text()
    assert run(["dilate", str(bad)]) == cli.EXIT_FORMAT


def _nilpotent_data():
    with open(NILPOTENT, encoding="utf-8") as fh:
        return json.load(fh)


def _set_entry(data, path, value):
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


# (path into the instance, bad value, the entry the message names)
BAD_MATRIX_ENTRIES = {
    "bool": (("representation", "T", 0, 0, 1, 0), [True, 0.0], "T[1][0][1][0]"),
    "string": (("representation", "T", 1, 0, 0, 1), ["1", 0.0], "T[2][0][0][1]"),
    "null": (("representation", "sigma", 0, 1, 1), [None, 0.0], "sigma[0][1][1]"),
    "ragged-row": (("representation", "T", 0, 0, 1), [[0.0, 0.0]], "T[1][0][1]"),
    "nan-in-gram": (("generators", 0, "gram", 0, 0, 0), [float("nan"), 0.0], "generator 1: gram[0][0][0]"),
    "huge-int": (("flips", "1,2", 0, 0), [10**400, 0], "flip 1,2[0][0]"),
}


@pytest.mark.parametrize("name", sorted(BAD_MATRIX_ENTRIES))
def test_bad_matrix_entry_is_format_error(tmp_path, capsys, name):
    path, value, entry = BAD_MATRIX_ENTRIES[name]
    data = _nilpotent_data()
    _set_entry(data, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["dilate", str(bad)]) == cli.EXIT_FORMAT
    assert f"{entry}:" in capsys.readouterr().err


# (path into a one-generator scalar instance, whose every count is 1; the message)
BOOLEAN_COUNTS = {
    "H_dim": (("representation", "H_dim"), "instance: bad H_dim True"),
    "generator dim": (("generators", 0, "dim"), "generator 1: bad dim True"),
    "block size": (("algebra", "blocks", 0), "instance: bad block sizes [True]"),
    "k": (("k",), "instance: k=True but 1 generators"),
}


@pytest.mark.parametrize("name", sorted(BOOLEAN_COUNTS))
def test_boolean_count_is_a_format_error(tmp_path, capsys, name):
    """JSON true is not the count 1, though Python's bool is an int."""
    path, message = BOOLEAN_COUNTS[name]
    data = _scalar_instance([np.array([[0.5]])])
    _set_entry(data, path, True)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["dilate", str(bad)]) == cli.EXIT_FORMAT
    assert f"dilation-lab: {message}\n" == capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_bad_tol_is_format_error(tmp_path, scalar_pair_data, value):
    assert run(["dilate", SCALAR, "--L", "1", "--tol", str(value)]) == cli.EXIT_FORMAT
    data = scalar_pair_data
    data["parameters"] = {"tol": value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(["dilate", str(bad), "--L", "1"]) == cli.EXIT_FORMAT


@pytest.mark.parametrize(
    "source, value",
    [
        ("instance", {"guard": "x"}),
        ("instance", {"guard": -2}),
        ("instance", {"M": [-1, 1]}),
        ("instance", {"M": [1]}),
        ("instance", {"L": "3"}),
        ("instance", {"NS_box": "x"}),
        ("instance", [1]),
        ("flags", ["--guard", "-2"]),
        # M = 0 in some direction leaves V_{e_i} outside the window
        ("flags", ["--M", "1,0"]),
        ("flags", ["--M", "0,0"]),
        ("reference", {"tol": float("nan")}),
        ("verify flags", ["--tol", "nan"]),
        # a scalar L, before M is taken from it
        ("instance", {"L": 3}),
    ],
)
def test_bad_window_parameters_are_format_errors(tmp_path, scalar_pair_data, source, value):
    data = scalar_pair_data
    data["parameters"] = value if source == "instance" else {"L": [1, 1]}
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    flags = value if source.endswith("flags") else []
    if source in ("instance", "flags"):
        assert run(["dilate", str(inst), *flags]) == cli.EXIT_FORMAT
        return
    golden = tmp_path / "golden.json"
    assert run(["dilate", str(inst), "--out", str(golden)]) == cli.EXIT_OK
    if source == "reference":
        report = read_report(golden)
        report["parameters"].update(value)
        golden.write_text(json.dumps(report))
    assert run(["verify", str(inst), "--report", str(golden), *flags]) == cli.EXIT_FORMAT


def test_scalar_window_parameter_names_the_parameter(tmp_path, scalar_pair_data, capsys):
    data = scalar_pair_data
    data["parameters"] = {"L": 3}
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(data))
    assert run(["dilate", str(inst)]) == cli.EXIT_FORMAT
    assert "parameter L must be a list of 2 integers >= 0, got 3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dilate", "verify", "gen"])
def test_unwritable_out_is_an_io_error(tmp_path, capsys, command):
    """An --out path in a missing directory exits 2 with a message, not a
    traceback."""
    golden = tmp_path / "golden.json"
    assert run(["dilate", SCALAR, "--L", "1", "--out", str(golden)]) == cli.EXIT_OK
    capsys.readouterr()
    out = tmp_path / "missing" / "r.json"
    args = {
        "dilate": ["dilate", SCALAR, "--L", "1"],
        "verify": ["verify", SCALAR, "--report", str(golden)],
        "gen": ["gen", "--family", "scalar-commuting"],
    }[command]
    assert run([*args, "--out", str(out)]) == cli.EXIT_FORMAT
    assert capsys.readouterr().err == f"dilation-lab: cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_check_reports_verdicts(tmp_path):
    out = tmp_path / "r.json"
    assert run(["check", SCALAR, "--out", str(out)]) == cli.EXIT_OK
    report = read_report(out)
    assert report["verdicts"]["doubly_commuting"] is True
    assert report["verdicts"]["satisfies_NS"] is True
    # check never fails the run for a well-formed, valid instance
    assert run(["check", NILPOTENT, "--out", str(out)]) == cli.EXIT_OK
    report = read_report(out)
    assert report["verdicts"]["satisfies_NS"] is False


def test_dilate_scalar_pair(tmp_path):
    out = tmp_path / "r.json"
    assert run(["dilate", SCALAR, "--L", "2", "--M", "2", "--out", str(out)]) == cli.EXIT_OK
    report = read_report(out)
    verdicts = report["verdicts"]
    assert verdicts["dilatable"] is True
    assert verdicts["dilation_verified"] is True
    names = {c["name"] for c in report["checks"]}
    assert {
        "hat_semigroup",
        "technology",
        "regular_item1",
        "regular_item2",
        "regular_item3",
        "regular_item4",
        "V_isometry",
        "V_semigroup",
        "V0_star_hom",
        "doubly_commuting_hat",
        "doubly_commuting_V",
        "uniqueness",
    } <= names
    assert all(c["pass"] for c in report["checks"])
    assert report["window"]["psd_margin"] > 0


def test_dilate_unitary_scalar():
    assert run(["dilate", UNITARY, "--L", "2"]) == cli.EXIT_OK


def test_dilate_swap_pair(tmp_path):
    """Commuting diagonal row contractions on C^3 over E_1 = E_2 = C^2,
    whose flip swaps the two tensor factors, dilate with every loc(s) of
    full rank: window.rank is 3 (1 + 2 + 4)^2 at M = 2."""
    out = tmp_path / "r.json"
    assert run(["dilate", str(SWAP), "--L", "2", "--M", "2", "--out", str(out)]) == cli.EXIT_OK
    report = read_report(out)
    assert report["window"]["rank"] == 147 == 3 * (1 + 2 + 4) ** 2
    assert all(c["pass"] for c in report["checks"])


def test_swap_pair_with_the_identity_flip_does_not_commute(tmp_path):
    """With the identity as its flip, swap_pair's T_1 and T_2 no longer
    satisfy the commutation relation, and that is all validation finds."""
    data = json.loads(SWAP.read_text(encoding="utf-8"))
    data["flips"]["1,2"] = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
    path = tmp_path / "eye.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["dilate", str(path), "--L", "2", "--M", "2", "--out", str(out)]) == cli.EXIT_INVALID
    failed = [name for name, res in read_report(out)["validation"].items() if not res <= cli.VALIDATION_TOL]
    assert failed == ["commutation_1_2"]


def test_dilate_window_beyond_truncation(tmp_path):
    # the generating-vector kernel does not depend on the truncation bound L
    out = tmp_path / "r.json"
    assert run(["dilate", SCALAR, "--L", "1", "--M", "2", "--out", str(out)]) == cli.EXIT_OK
    assert read_report(out)["window"]["rank"] == 9


def test_dilate_m3_algebra(tmp_path):
    # the only tier-1 dilate over M_3: 81-dimensional raw tensors of the fibers
    inst = tmp_path / "m3.json"
    gen = ["gen", "--family", "multiplication-isometric", "--k", "2", "--dims", "3"]
    assert run(gen + ["--out", str(inst)]) == cli.EXIT_OK
    out = tmp_path / "r.json"
    assert run(["dilate", str(inst), "--L", "2", "--M", "2", "--out", str(out)]) == cli.EXIT_OK
    report = read_report(out)
    assert report["verdicts"]["dilation_verified"] is True
    assert report["window"]["rank"] == 3


def test_dilate_nilpotent_exits_3(tmp_path):
    out = tmp_path / "r.json"
    assert run(["dilate", NILPOTENT, "--out", str(out)]) == cli.EXIT_NOT_DILATABLE
    report = read_report(out)
    assert report["verdicts"]["dilatable"] is False
    assert report["window"]["psd_margin"] < -0.1


def test_gen_roundtrip(tmp_path):
    inst = tmp_path / "gen.json"
    code = run(
        ["gen", "--family", "diagonal-doubly-commuting", "--seed", "1", "--out", str(inst)]
    )
    assert code == cli.EXIT_OK
    assert run(["validate", str(inst)]) == cli.EXIT_OK
    with pytest.raises(SystemExit):  # argparse rejects unknown family names
        run(["gen", "--family", "nope"])


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("flag", [("--dims", "0"), ("--dims", "-1"), ("--k", "0")])
def test_gen_below_one_is_an_argument_error(family, flag, capsys):
    """A size below 1 exits 2 with a message, also for a family that
    ignores the size, and writes no instance."""
    assert run(["gen", "--family", family, *flag]) == cli.EXIT_FORMAT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"dilation-lab: {flag[0][2:]} must be >= 1, got {flag[1]}\n"


def test_verify_golden_roundtrip(tmp_path):
    golden = tmp_path / "golden.json"
    assert run(["dilate", SCALAR, "--L", "2", "--out", str(golden)]) == cli.EXIT_OK
    assert run(["verify", SCALAR, "--report", str(golden)]) == cli.EXIT_OK


def test_verify_detects_tampering(tmp_path):
    golden = tmp_path / "golden.json"
    assert run(["dilate", SCALAR, "--L", "2", "--out", str(golden)]) == cli.EXIT_OK
    data = read_report(golden)
    data["verdicts"]["dilation_verified"] = False
    golden.write_text(json.dumps(data))
    assert run(["verify", SCALAR, "--report", str(golden)]) == cli.EXIT_GOLDEN_MISMATCH


def _drop_pass(report):
    del report["checks"][0]["pass"]


def _set(path, value):
    def edit(report):
        *keys, last = path
        target = report
        for key in keys:
            target = target[key]
        target[last] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop_pass, "check 'hat_semigroup' needs a string name and a boolean pass flag"),
        (_set(["verdicts"], ["x"]), "verdicts must be an object"),
        (_set(["checks", 0, "residual"], "small"), "check hat_semigroup needs a numeric residual and tolerance"),
        (_set(["checks", 0, "tolerance"], None), "check hat_semigroup needs a numeric residual and tolerance"),
        (_set(["window", "psd_margin"], [0.5]), "window must be an object with a numeric psd_margin"),
        (_set(["checks"], {"hat_semigroup": 0.0}), "checks must be a list of objects"),
        (_set(["checks", 0], "hat_semigroup"), "checks must be a list of objects"),
        (_set(["checks", 0, "name"], ["hat_semigroup"]), "check ['hat_semigroup'] needs a string name and a boolean pass flag"),
        (_set(["window"], [2, 2]), "window must be an object with a numeric psd_margin"),
        (_set(["command"], ["dilate"]), "command must be validate, check or dilate"),
        (_set(["parameters"], [1]), "parameters must be an object"),
    ],
)
def test_verify_of_a_malformed_reference_is_a_format_error(tmp_path, capsys, edit, message):
    """A reference report whose checks, verdicts or window do not have the
    shape the comparison reads exits 2 with a message, not a traceback;
    the window's M and rank still match, so a bad psd_margin is read."""
    golden = tmp_path / "golden.json"
    assert run(["dilate", SCALAR, "--L", "2", "--out", str(golden)]) == cli.EXIT_OK
    report = read_report(golden)
    edit(report)
    golden.write_text(json.dumps(report))
    capsys.readouterr()
    assert run(["verify", SCALAR, "--report", str(golden)]) == cli.EXIT_FORMAT
    assert capsys.readouterr().err == f"dilation-lab: reference report: {message}\n"


def test_verify_of_a_matching_invalid_run_exits_1(tmp_path, scalar_pair_data):
    """A report that matches its fresh run exits with the run's code: an
    instance that dilate rejects with exit 1 (generator 1's Gram is 0, so
    T_1 does not vanish on its null vectors) exits 1 under verify too."""
    data = scalar_pair_data
    data["generators"][0]["gram"] = [[[[0.0, 0.0]]]]
    inst = tmp_path / "zero_gram.json"
    inst.write_text(json.dumps(data))
    golden = tmp_path / "golden.json"
    assert run(["dilate", str(inst), "--L", "2", "--M", "2", "--out", str(golden)]) == cli.EXIT_INVALID
    assert run(["verify", str(inst), "--report", str(golden)]) == cli.EXIT_INVALID


def test_verify_of_a_matching_non_dilatable_run_exits_3(tmp_path):
    inst = tmp_path / "nilpotent.json"
    assert run(["gen", "--family", "nilpotent-counterexample", "--out", str(inst)]) == cli.EXIT_OK
    golden = tmp_path / "golden.json"
    assert run(["dilate", str(inst), "--out", str(golden)]) == cli.EXIT_NOT_DILATABLE
    assert run(["verify", str(inst), "--report", str(golden)]) == cli.EXIT_NOT_DILATABLE


def test_reports_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["dilate", SCALAR, "--L", "2", "--out", str(a)]) == cli.EXIT_OK
    assert run(["dilate", SCALAR, "--L", "2", "--out", str(b)]) == cli.EXIT_OK
    ra, rb = read_report(a), read_report(b)
    ra.pop("timing", None)
    rb.pop("timing", None)
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_parse_point_broadcast():
    assert cli._parse_point("3", 2, "--L") == (3, 3)
    assert cli._parse_point("2,4", 2, "--L") == (2, 4)
    from dilationlab.errors import InstanceFormatError

    with pytest.raises(InstanceFormatError):
        cli._parse_point("1,2,3", 2, "--L")
    with pytest.raises(InstanceFormatError):
        cli._parse_point("x", 2, "--L")


def _raise_memory_error(*_args, **_kwargs):
    raise MemoryError("Unable to allocate 64.0 GiB for an array with shape (92160, 92160)")


@pytest.mark.parametrize(
    "command, target",
    [
        ("validate", "validate_representation"),
        ("check", "validate_representation"),
        ("dilate", "window_gram"),
        ("verify", "window_gram"),
    ],
)
def test_out_of_memory_is_a_documented_exit(tmp_path, monkeypatch, capsys, command, target):
    args = [command, SCALAR, "--out", str(tmp_path / "r.json")]
    if command == "verify":
        reference = tmp_path / "reference.json"
        assert run(["dilate", SCALAR, "--L", "2", "--out", str(reference)]) == cli.EXIT_OK
        args += ["--report", str(reference)]
    monkeypatch.setattr(cli, target, _raise_memory_error)
    assert run(args) == cli.EXIT_OUT_OF_MEMORY == 6
    report = read_report(tmp_path / "r.json")
    assert report["error"] == "out of memory: Unable to allocate 64.0 GiB for an array with shape (92160, 92160)"
    assert report["verdicts"] == {} and report["checks"] == []
    assert report["command"] == ("dilate" if command == "verify" else command)
    assert "Traceback" not in capsys.readouterr().err


def _raise_linalg_error(*_args, **_kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize(
    "command, target",
    [
        ("validate", "validate_representation"),
        ("check", "brehmer_check_NS"),
        ("dilate", "kolmogorov"),
        ("dilate", "load_instance"),
        ("verify", "verify_regular_dilation"),
        ("verify", "load_instance"),
    ],
)
def test_linalg_error_is_a_documented_exit(tmp_path, monkeypatch, capsys, command, target):
    """A LinAlgError from any stage exits 1 with a report carrying the
    message under "error", not a traceback."""
    args = [command, SCALAR, "--out", str(tmp_path / "r.json")]
    if command == "verify":
        reference = tmp_path / "reference.json"
        assert run(["dilate", SCALAR, "--L", "2", "--out", str(reference)]) == cli.EXIT_OK
        args += ["--report", str(reference)]
    monkeypatch.setattr(cli, target, _raise_linalg_error)
    assert run(args) == cli.EXIT_INVALID == 1
    report = read_report(tmp_path / "r.json")
    assert report["error"] == "linear algebra failure: SVD did not converge"
    assert report["verdicts"] == {} and report["checks"] == []
    assert report["command"] == ("dilate" if command == "verify" else command)
    assert "Traceback" not in capsys.readouterr().err


def _raise_not_well_defined(*_args, **_kwargs):
    from dilationlab.errors import NotWellDefinedError

    raise NotWellDefinedError("descend_map: descent residual 1.2e-10 exceeds tolerance 1.0e-10")


@pytest.mark.parametrize("command", ["dilate", "verify"])
def test_pipeline_error_is_an_invalid_instance(tmp_path, monkeypatch, capsys, command):
    """An error the pipeline raises on the instance exits 1 with a report
    carrying it under "error", under verify as under dilate."""
    args = [command, SCALAR, "--out", str(tmp_path / "r.json")]
    if command == "verify":
        reference = tmp_path / "reference.json"
        assert run(["dilate", SCALAR, "--L", "2", "--out", str(reference)]) == cli.EXIT_OK
        args += ["--report", str(reference)]
    monkeypatch.setattr(cli, "window_gram", _raise_not_well_defined)
    assert run(args) == cli.EXIT_INVALID == 1
    report = read_report(tmp_path / "r.json")
    assert report["error"] == "descend_map: descent residual 1.2e-10 exceeds tolerance 1.0e-10"
    assert report["verdicts"] == {"valid": False} and report["checks"] == []
    assert report["command"] == "dilate"
    assert "Traceback" not in capsys.readouterr().err


def test_recovery_failure_is_a_failed_V_recovery_check(tmp_path, monkeypatch, capsys):
    """A least-squares recovery of V_0 or a V_{e_i} that fails its
    consistency check ends the verification with a failed V_recovery check
    and exit 4."""
    from dilationlab import dilation

    monkeypatch.setattr(dilation, "lstsq_map", _raise_not_well_defined)
    out = tmp_path / "r.json"
    assert run(["dilate", SCALAR, "--L", "2", "--out", str(out)]) == cli.EXIT_CHECK_FAILED == 4
    report = read_report(out)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["V_recovery"]["residual"] == "inf" and checks["V_recovery"]["pass"] is False
    assert "V_semigroup" not in checks
    assert report["verdicts"]["dilatable"] is True
    assert report["verdicts"]["dilation_verified"] is False
    assert "operator recovery failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, k",
    [("diagonal-doubly-commuting", 3), ("random-contractive", 3), ("nilpotent-counterexample", 2)],
)
def test_ns_section_matches_per_key_loop(family, k):
    """The NS values, stacked by rank per v and computed once per
    restricted point s[v], equal the per-point alternating sum of the
    oracle, one eigvalsh each, for every reported key, within TOL
    (test_factorwise.TOL) per summed term: the stacked sum may add its
    2^|v| terms in another order."""
    from dilationlab import lattice
    from dilationlab.families import generate
    from dilationlab.instances import parse_instance
    from oracles import brehmer_sum_point
    from test_factorwise import TOL

    inst = parse_instance(generate(family, seed=1, k=k))
    k = inst.system.k
    box = (2,) * k
    _dc, ns = cli._check_section(inst, {"NS_box": list(box)})
    want = {}
    for v in lattice.subsets(range(1, k + 1)):
        for s in lattice.box(box):
            if v and all(s[i - 1] for i in v):
                want[f"v={list(v)},s={list(s)}"] = brehmer_sum_point(inst.representation, v, s)
    assert list(ns) == list(want)
    for key, value in want.items():
        assert abs(ns[key] - value) <= TOL * 2**k, key
    assert len(set(ns.values())) > 1


def test_check_section_takes_one_solve_per_shape_and_one_eigvalsh_per_rank(monkeypatch):
    """On multiplication-isometric M_2, k = 3, NS_box (2, 2, 2), the check
    section builds its 98 non-identity blocks with one solve per (mu shape,
    loc ranks) group and takes one eigvalsh per (rank, v) group of Brehmer
    sums: every loc here has rank 2, so one per nonempty v."""
    from dilationlab import lattice
    from dilationlab.families import generate
    from dilationlab.instances import parse_instance

    inst = parse_instance(generate("multiplication-isometric", k=3, dims=2))
    calls = {"solve": 0, "eigvalsh": 0}
    for name in calls:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("numpy.linalg") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    cli._check_section(inst, {"NS_box": [2, 2, 2]})
    rep, sys_ = inst.representation, inst.system
    keys = {
        (sv, lattice.restrict(sv, u))
        for v in lattice.subsets((1, 2, 3))
        for sv in lattice.box((2, 2, 2))
        if v and lattice.support(sv) == v
        for u in lattice.subsets(v)
    }
    groups = {
        tuple(sys_.fiber_dim(p) for p in (t, lattice.sub(t, s), s)) + (rep.loc(t).rank, rep.loc(lattice.sub(t, s)).rank)
        for t, s in keys
        if s != t and any(s)
    }
    assert len([key for key in keys if any(key[1])]) == 98
    assert calls["eigvalsh"] == 7
    assert calls["solve"] == len(groups) == 1


# -- fuzzing the CLI with mutated sample instances ------------------------------

# every exit code the README documents
DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5, 6}
# swap_pair is left out: the mutator assumes one-dimensional generators
SAMPLE_INSTANCES = ("scalar_pair", "nilpotent_pair", "unitary_scalar")


def _complex_array(obj) -> np.ndarray:
    pairs = np.array(obj, dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def _json_array(a) -> list:
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _swap(m: int, n: int) -> np.ndarray:
    """The flip C^m (x) C^n -> C^n (x) C^m of scalar correspondences."""
    out = np.zeros((n * m, m * n))
    for x in range(m):
        for y in range(n):
            out[y * m + x, x * n + y] = 1.0
    return out


def _mutated_instance(name: str, perm, gens) -> dict:
    """A sample instance (over C, one-dimensional generators, scalar flips)
    with its generators permuted by `perm` and generator a, taken from
    generator perm[a], changed by gens[a] = (scale, gram, zero_t): Gram times
    scale^2 and T times scale; gram "zero" sets the Gram to 0 and
    "duplicate" adds a second basis vector equal to the first (a rank-one
    2 x 2 Gram); zero_t sets every T map to 0."""
    data = json.loads((INSTANCES_DIR / f"{name}.json").read_text(encoding="utf-8"))
    k = len(data["generators"])
    flips = {
        tuple(int(i) for i in key.split(",")): _complex_array(v)[0, 0]
        for key, v in data["flips"].items()
    }
    generators, t_maps, dims = [], [], []
    for (scale, gram_kind, zero_t), old in zip(gens, perm, strict=True):
        gram = _complex_array(data["generators"][old]["gram"])[0, 0, 0] * scale**2
        gram = 0.0 if gram_kind == "zero" else gram
        t = 0.0 if zero_t else _complex_array(data["representation"]["T"][old])[0] * scale
        m = 2 if gram_kind == "duplicate" else 1
        eye = _json_array(np.eye(m)[None])
        generators.append(
            {"dim": m, "gram": _json_array(np.full((m, m, 1), gram)), "left_action": eye, "right_action": eye}
        )
        d = data["representation"]["H_dim"]
        t_maps.append(_json_array(np.broadcast_to(t, (m, d, d))))
        dims.append(m)
    data["generators"] = generators
    data["representation"]["T"] = t_maps
    data["flips"] = {}
    for a in range(k):
        for b in range(a + 1, k):
            i, j = perm[a] + 1, perm[b] + 1
            phase = flips[(i, j)] if i < j else np.conj(flips[(j, i)])
            data["flips"][f"{a + 1},{b + 1}"] = _json_array(phase * _swap(dims[a], dims[b]))
    return data


@st.composite
def _mutations(draw):
    name = draw(st.sampled_from(SAMPLE_INSTANCES))
    k = 1 if name == "unitary_scalar" else 2
    perm = draw(st.permutations(range(k)))
    gens = [
        (
            draw(st.sampled_from((1e-6, 1e-3, 1.0, 1e3, 1e6))),
            draw(st.sampled_from(("full", "zero", "duplicate"))),
            draw(st.booleans()),
        )
        for _ in range(k)
    ]
    # window corners: every coordinate of L at 0, 1 or 2 and of M at 1 or 2
    # (M = 0 in some direction is a format error, tested above)
    bound_l = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    bound_m = draw(st.lists(st.integers(1, 2), min_size=k, max_size=k))
    return name, perm, gens, (bound_l, bound_m)


@settings(max_examples=40, deadline=None, derandomize=True)
@example(("scalar_pair", [0, 1], [(1.0, "zero", False), (1.0, "full", False)], ([2, 2], [2, 2])))
@example(("scalar_pair", [0, 1], [(1.0, "zero", True), (1.0, "full", False)], ([2, 2], [2, 2])))
@given(_mutations())
def test_dilate_on_mutated_instances_ends_in_a_documented_exit(case):
    """Rescaled and permuted generators, zero or rank-deficient Grams, zero
    T maps and window corners end in a documented exit code, with a report
    carrying "error" for exits 1 and 6, and never in an exception."""
    name, perm, gens, (bound_l, bound_m) = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        out = Path(tmp) / "report.json"
        path.write_text(json.dumps(_mutated_instance(name, perm, gens)), encoding="utf-8")
        window = ["--L", ",".join(map(str, bound_l)), "--M", ",".join(map(str, bound_m))]
        code = cli.main(["dilate", str(path), *window, "--out", str(out)])
        assert code in DOCUMENTED_EXITS
        if code in (1, 6):
            assert "error" in read_report(out)


def test_tol_flag_and_instance_parameter_give_the_same_run(tmp_path):
    """--tol x and parameters.tol: x build the system with the same
    tolerance, so they give the same exit code, verdicts, checks and window
    (here on scalar_pair with generator 1 rescaled by 1e3, where the
    default tolerance fails a descent)."""
    data = _mutated_instance("scalar_pair", [0, 1], [(1e3, "full", False), (1.0, "full", False)])
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(data), encoding="utf-8")
    data["parameters"] = {"tol": 1e-6}
    with_tol = tmp_path / "with_tol.json"
    with_tol.write_text(json.dumps(data), encoding="utf-8")
    runs = []
    for path, flags in ((plain, ["--tol", "1e-6"]), (with_tol, [])):
        out = tmp_path / f"{path.stem}.report.json"
        code = run(["dilate", str(path), "--L", "2", "--M", "2", *flags, "--out", str(out)])
        report = read_report(out)
        runs.append((code, report["verdicts"], report["checks"], report["window"]))
        assert report["parameters"]["tol"] == 1e-6
    assert runs[0] == runs[1]
    assert runs[0][0] != cli.EXIT_INVALID


@pytest.mark.parametrize("command", ["validate", "check", "dilate"])
def test_fiber_dropped_by_the_null_cutoff_is_invalid_under_every_command(tmp_path, command):
    """scalar_pair with generator 1 rescaled by 1e6, generator 2 by 1e-6 and
    both T maps zero: the null cutoff drops X(e_2) (Gram 1e-12) but keeps
    X(e_1 + e_2) (Gram 1), so U_{e_1,e_2} is not onto its fiber. validate
    builds the generator pairs' lowering blocks for the commutation
    residual, so it meets this as check and dilate do."""
    data = _mutated_instance("scalar_pair", [0, 1], [(1e6, "full", True), (1e-6, "full", True)])
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "report.json"
    assert run([command, str(path), "--out", str(out)]) == cli.EXIT_INVALID
    report = read_report(out)
    assert "is not onto its fiber" in report["error"]
    assert report["verdicts"] == {"valid": False}
