import json
import pathlib

import jsonschema
import numpy as np
import pytest

from aphomog import cli
from aphomog import fields as F

DEMO_MANIFESTS = sorted((pathlib.Path(__file__).parents[1] / "demos" / "manifests").glob("*.json"))


def _sine_manifest(command="homogenize", **params):
    base = {"T": 64.0, "h": 1 / 256}
    base.update(params)
    return {
        "command": command,
        "seed": 7,
        "field": F.field_to_config(F.sine_scalar_field()),
        "params": base,
    }


def test_dumps_canonical_format():
    s = cli.dumps_canonical({"b": 1.0 / 3.0, "a": [1, True, None]})
    assert s == '{"a": [1, true, null], "b": 0.33333333333333331}'
    assert len("33333333333333331") == 17


def test_manifest_hash_stable_under_key_order():
    m1 = {"command": "rho", "seed": 1, "params": {"x": 1.5}}
    m2 = {"params": {"x": 1.5}, "seed": 1, "command": "rho"}
    assert cli.manifest_hash(m1) == cli.manifest_hash(m2)


def test_homogenize_run_and_reproduce(tmp_path):
    man = _sine_manifest()
    path = cli.run_manifest(man, str(tmp_path / "out"))
    result = json.load(open(path))
    ahat = result["payload"]["ahat"][0][0][0][0]
    assert abs(ahat - np.sqrt(3.0)) <= 1e-3
    assert result["manifest_hash"] == cli.manifest_hash(man)
    assert "numpy" in result["environment"]
    ok, drift = cli.reproduce(path)
    assert ok and drift == []


def test_missing_seed_exits_2_without_artifacts(tmp_path):
    man = _sine_manifest()
    del man["seed"]
    man_path = tmp_path / "man.json"
    man_path.write_text(json.dumps(man))
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--manifest", str(man_path), "--out", str(out_dir)])
    assert code == 2
    assert not (out_dir / "homogenize_result.json").exists()


def test_unknown_command_rejected():
    with pytest.raises(cli.ManifestError):
        cli.validate_manifest({"command": "explode", "seed": 1, "params": {}})


def test_rate_constant_field_floor_limited(tmp_path):
    f = F.ConstantField(2.0, d=1, m=1)
    man = {"command": "rate", "seed": 3, "field": F.field_to_config(f),
           "params": {"eps_list": [1 / 8, 1 / 16, 1 / 32, 1 / 64]}}
    path = cli.run_manifest(man, str(tmp_path))
    result = json.load(open(path))
    assert result["payload"]["floor_limited"] is True
    assert (tmp_path / "rate.csv").exists()


def test_reproduce_detects_tampering(tmp_path):
    man = _sine_manifest(T=16.0, h=1 / 64)
    path = cli.run_manifest(man, str(tmp_path))
    result = json.load(open(path))
    result["payload"]["ahat"][0][0][0][0] += 1e-6
    tampered = tmp_path / "tampered.json"
    tampered.write_text(cli.dumps_canonical(result))
    code = cli.main(["reproduce", "--result", str(tampered)])
    assert code == 4


def test_reproduce_detects_seed_change(tmp_path):
    f = F.golden_ratio_field()
    man = {"command": "rho", "seed": 11, "field": F.field_to_config(f),
           "params": {"R_list": [2, 4, 8], "y_samples": 8, "test_points": 128}}
    path = cli.run_manifest(man, str(tmp_path))
    result = json.load(open(path))
    result["manifest"]["seed"] = 12
    result["seed"] = 12
    result["manifest_hash"] = cli.manifest_hash(result["manifest"])
    edited = tmp_path / "edited.json"
    edited.write_text(cli.dumps_canonical(result))
    code = cli.main(["reproduce", "--result", str(edited)])
    assert code == 4


def test_reproduce_of_seeded_rho_is_bit_stable(tmp_path):
    f = F.golden_ratio_field()
    man = {"command": "rho", "seed": 11, "field": F.field_to_config(f),
           "params": {"R_list": [2, 4, 8], "y_samples": 8, "test_points": 128}}
    path = cli.run_manifest(man, str(tmp_path))
    ok, drift = cli.reproduce(path)
    assert ok, drift


def test_no_stray_files_and_no_tmp_left(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    out = tmp_path / "artifacts"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    man = _sine_manifest(T=16.0, h=1 / 64)
    cli.run_manifest(man, str(out))
    assert list(workdir.iterdir()) == []
    assert not [p for p in out.iterdir() if p.suffix == ".tmp"]


def test_theta_and_discrepancy_commands(tmp_path):
    man_t = {"command": "theta", "seed": 0,
             "params": {"lambda": [1.0, F.GOLDEN_RATIO],
                        "R_list": [8, 16, 32], "ell": [8, 16, 32]}}
    path = cli.run_manifest(man_t, str(tmp_path / "t"))
    rep = json.load(open(path))["payload"]["report"]
    assert len(rep["values"]) == 3
    man_d = {"command": "discrepancy", "seed": 0,
             "params": {"lambda": [1.0, F.GOLDEN_RATIO], "R": 50, "ell": 2,
                        "H_list": [4, 16]}}
    path = cli.run_manifest(man_d, str(tmp_path / "d"))
    payload = json.load(open(path))["payload"]
    assert payload["exact"] <= payload["etk_bounds"]["4"]
    assert payload["N"] == 200


def test_corrector_command_writes_binaries(tmp_path):
    man = _sine_manifest("corrector", T=16.0, h=1 / 64)
    cli.run_manifest(man, str(tmp_path))
    assert (tmp_path / "corrector_chi_j0_b0.bin").exists()
    from aphomog.grids import load_grid_function
    u = load_grid_function(tmp_path / "corrector_chi_j0_b0.bin")
    assert u.values.shape[0] == 1


def _exit_code(tmp_path, man):
    man_path = tmp_path / "man.json"
    man_path.write_text(json.dumps(man))
    return cli.main(["run", "--manifest", str(man_path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("edit, code", [
    ({}, 0),
    ({"params": {}}, 2),                                    # T missing
    ({"params": {"T": "sixteen"}}, 2),
    ({"field": {"variant": "mystery", "d": 1, "m": 1}}, 2),
    ({"field": {"variant": "trig_polynomial", "d": 1}}, 2),  # no m, no terms
    ({"params": {"T": 16.0, "h": 1.0}}, 3),                 # h > T/64: refused by the solver
])
def test_run_exit_codes(tmp_path, edit, code):
    man = _sine_manifest("corrector", T=16.0, h=1 / 64)
    man.update(edit)
    assert _exit_code(tmp_path, man) == code
    assert (tmp_path / "out" / "corrector_result.json").exists() == (code == 0)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_empty_params_exit_2(tmp_path, command):
    man = {"command": command, "seed": 0, "params": {}}
    if command in cli._FIELD_COMMANDS:
        man["field"] = F.field_to_config(F.sine_scalar_field())
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out" / f"{command}_result.json").exists()


def test_atomic_write_failure_leaves_nothing(tmp_path):
    def failing_writer(path):
        with open(path, "w") as f:
            f.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        cli._atomic_write(str(tmp_path / "rho.csv"), failing_writer)
    assert list(tmp_path.iterdir()) == []


def test_unreadable_manifest_exits_2(tmp_path):
    man_path = tmp_path / "man.json"
    man_path.write_text("{not json")
    assert cli.main(["run", "--manifest", str(man_path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("name", ["manifest"] + list(cli.PARAMS_SCHEMAS))
def test_schemas_are_valid_json_schemas(name):
    schema = cli.MANIFEST_SCHEMA if name == "manifest" else cli.PARAMS_SCHEMAS[name]
    jsonschema.Draft202012Validator.check_schema(schema)


@pytest.mark.parametrize("path", DEMO_MANIFESTS, ids=lambda p: p.stem)
def test_demo_manifests_validate(path):
    cli.validate_manifest(json.loads(path.read_text()))
