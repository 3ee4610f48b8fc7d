import hashlib
import json

import numpy as np
import pytest

from dilationlab import cli
from dilationlab.errors import InstanceFormatError, InvalidArgumentError
from dilationlab.families import FAMILIES, _scalar_instance, generate
from dilationlab.instances import (
    array_to_json,
    instance_to_json,
    json_to_complex,
    load_instance,
    parse_instance,
)

from conftest import INSTANCES_DIR
from oracles import array_to_json_loop
from test_dtypes import instance_arrays


def test_complex_codec_roundtrip():
    z = 1.25 - 0.5j
    assert json_to_complex(array_to_json(np.asarray(z)), "here") == z
    with pytest.raises(InstanceFormatError):
        json_to_complex("nope", "here")
    with pytest.raises(InstanceFormatError):
        json_to_complex([1.0], "here")


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_array_encoder_writes_the_entrywise_bytes(family):
    """One stacked encoder writes every array of a generated instance, real
    or complex, signed zeros included, byte for byte as the entry-by-entry
    writer does."""
    inst = parse_instance(generate(family, seed=1, k=2, dims=2))
    arrays = instance_arrays(inst)
    arrays["signed zeros"] = np.array([[-0.0, 0.0], [complex(0.0, -0.0), complex(-0.0, 1.5)]])
    for name, a in arrays.items():
        assert json.dumps(array_to_json(a)) == json.dumps(array_to_json_loop(a)), name


def test_instance_roundtrip(scalar_pair):
    data = instance_to_json(
        scalar_pair.system, scalar_pair.representation, scalar_pair.parameters
    )
    again = parse_instance(data)
    assert instance_to_json(again.system, again.representation, again.parameters) == data
    assert again.representation.dim == 1
    t = again.representation.t_maps[0]
    assert t[0, 0, 0] == pytest.approx(0.6)


def test_report_instance_is_the_sha256_of_the_file(tmp_path, scalar_pair_data):
    """A report identifies its instance by the SHA-256 of the file's bytes,
    read once by load_instance: the same data written in another layout is
    another file and gets another digest, on every command and on an error
    report alike."""
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(scalar_pair_data, separators=(",", ":")))
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(scalar_pair_data, indent=2))
    digests = []
    for path in (compact, indented):
        want = hashlib.sha256(path.read_bytes()).hexdigest()
        assert load_instance(str(path)).digest == want
        for argv in (["validate", str(path)], ["dilate", str(path), "--L", "1"]):
            out = tmp_path / f"{path.stem}-{argv[0]}.json"
            assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
            assert json.loads(out.read_text())["instance"] == want
        digests.append(want)
    assert digests[0] != digests[1]
    # an instance that fails while running reports the digest as well
    scalar_pair_data["representation"]["T"][0][0][0][0] = [3.0, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scalar_pair_data))
    out = tmp_path / "bad-report.json"
    assert cli.main(["validate", str(bad), "--out", str(out)]) == cli.EXIT_INVALID
    assert json.loads(out.read_text())["instance"] == hashlib.sha256(bad.read_bytes()).hexdigest()


def test_load_bundled_instances():
    for name in ("scalar_pair.json", "nilpotent_pair.json", "unitary_scalar.json"):
        inst = load_instance(str(INSTANCES_DIR / name))
        assert inst.system.k >= 1
        assert inst.representation.dim >= 1


def test_missing_fields_raise_format_error(scalar_pair_data):
    with pytest.raises(InstanceFormatError):
        parse_instance({})
    data = scalar_pair_data
    data.pop("representation")
    with pytest.raises(InstanceFormatError):
        parse_instance(data)


def test_malformed_matrix_raises_format_error(scalar_pair_data):
    data = scalar_pair_data
    data["representation"]["T"][0][0][0] = "oops"
    with pytest.raises(InstanceFormatError):
        parse_instance(data)


def test_mathematically_invalid_raises_argument_error(scalar_pair_data):
    data = scalar_pair_data
    # break the flip: no longer a correspondence isomorphism
    data["flips"]["1,2"] = [[[2.0, 0.0]]]
    with pytest.raises(InvalidArgumentError):
        parse_instance(data)


def test_parse_keeps_noncontractive_for_validation():
    # mathematical validation of T happens downstream, not at parse time
    inst = parse_instance(_scalar_instance([np.array([[2.0]])]))
    assert inst.representation.t_maps[0][0, 0, 0] == pytest.approx(2.0)
