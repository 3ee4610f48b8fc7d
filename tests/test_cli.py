import json

import pytest

from dilationlab import cli

from conftest import INSTANCES_DIR

SCALAR = str(INSTANCES_DIR / "scalar_pair.json")
NILPOTENT = str(INSTANCES_DIR / "nilpotent_pair.json")
UNITARY = str(INSTANCES_DIR / "unitary_scalar.json")


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


def test_validate_invalid_instance(tmp_path, scalar_pair):
    import copy

    data = copy.deepcopy(scalar_pair.data)
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


@pytest.mark.parametrize("value, text", [(float("nan"), "NaN"), (float("inf"), "Infinity")])
def test_non_finite_numbers_are_format_errors(tmp_path, scalar_pair, value, text):
    import copy

    data = copy.deepcopy(scalar_pair.data)
    data["representation"]["T"][0][0][0][0] = [value, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))  # written as NaN / Infinity
    assert text in bad.read_text()
    assert run(["dilate", str(bad)]) == cli.EXIT_FORMAT


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


def test_dilate_window_beyond_truncation(tmp_path):
    # the generating-vector kernel does not depend on the truncation bound L
    out = tmp_path / "r.json"
    assert run(["dilate", SCALAR, "--L", "1", "--M", "2", "--out", str(out)]) == cli.EXIT_OK
    assert read_report(out)["window"]["rank"] == 9


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
