import json
import logging
import pathlib

import jsonschema
import numpy as np
import pytest

from aphomog import cli
from aphomog import fields as F

DEMO_MANIFESTS = sorted((pathlib.Path(__file__).parents[1] / "demos" / "manifests").glob("*.json"))


def _read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


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
    result = _read_json(path)
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
    result = _read_json(path)
    assert result["payload"]["floor_limited"] is True
    assert (tmp_path / "rate.csv").exists()


def test_reproduce_detects_tampering(tmp_path):
    man = _sine_manifest(T=16.0, h=1 / 64)
    path = cli.run_manifest(man, str(tmp_path))
    result = _read_json(path)
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
    result = _read_json(path)
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
    rep = _read_json(path)["payload"]["report"]
    assert len(rep["values"]) == 3
    man_d = {"command": "discrepancy", "seed": 0,
             "params": {"lambda": [1.0, F.GOLDEN_RATIO], "R": 50, "ell": 2,
                        "H_list": [4, 16]}}
    path = cli.run_manifest(man_d, str(tmp_path / "d"))
    payload = _read_json(path)["payload"]
    assert payload["exact"] <= payload["etk_bounds"]["4"]
    assert payload["N"] == 200


def test_corrector_command_writes_binaries(tmp_path):
    man = _sine_manifest("corrector", T=16.0, h=1 / 64)
    cli.run_manifest(man, str(tmp_path))
    assert (tmp_path / "corrector_chi_j0_b0.bin").exists()
    from aphomog.grids import load_grid_function
    u = load_grid_function(tmp_path / "corrector_chi_j0_b0.bin")
    assert u.values.shape[0] == 1


@pytest.mark.parametrize("command", ["homogenize", "corrector"])
def test_threads_keyword_changes_nothing(tmp_path, command):
    field = F.TrigPolynomialField(2, 1, [([0.0, 0.0], 2.0, 0.0),
                                         ([1.0, 0.0], 0.0, 0.5),
                                         ([0.0, 1.0], 0.0, 0.5)])
    man = {"command": command, "seed": 5, "field": F.field_to_config(field),
           "params": {"T": 4.0, "h": 1 / 16}}
    one, four = (_read_json(cli.run_manifest(man, str(tmp_path / f"t{n}"), threads=n))
                 for n in (1, 4))
    assert one["payload"] == four["payload"]
    assert one["artifacts"] == four["artifacts"]
    assert (command == "corrector") == bool(one["artifacts"])


def test_threads_flag_is_gone(tmp_path):
    man_path = tmp_path / "man.json"
    man_path.write_text(json.dumps(_sine_manifest("corrector", T=16.0, h=1 / 64)))
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--threads", "2", "--manifest", str(man_path),
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("level", ["bogus", "verbose", ""])
def test_unknown_log_level_exits_2(tmp_path, level):
    man_path = tmp_path / "man.json"
    man_path.write_text(json.dumps(_sine_manifest("corrector", T=16.0, h=1 / 64)))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--log-level", level, "run", "--manifest", str(man_path),
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_run_logs_command_time_and_result_path(tmp_path, caplog):
    man = {"command": "rho", "seed": 3, "field": F.field_to_config(F.golden_ratio_field()),
           "params": {"R_list": [1, 2], "y_samples": 4, "test_points": 64}}
    man_path = tmp_path / "man.json"
    man_path.write_text(json.dumps(man))
    with caplog.at_level(logging.INFO, logger="aphomog"):
        code = cli.main(["--log-level", "info", "run", "--manifest", str(man_path),
                         "--out", str(tmp_path / "out")])
    assert code == 0
    path = tmp_path / "out" / "rho_result.json"
    runs = [r.getMessage() for r in caplog.records if r.name == "aphomog"]
    assert len(runs) == 1
    assert runs[0].startswith("run_manifest command=rho wall_s=")
    assert runs[0].endswith(f"result={path}")
    rungs = [r for r in caplog.records if r.name == "aphomog.metrics"]
    assert len(rungs) == 2
    # the log lines add nothing to the result
    assert list(json.loads(path.read_text())["payload"]) == ["report"]


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


def test_rerun_into_one_directory_records_the_same_artifacts(tmp_path):
    man = {"command": "rho", "seed": 3, "field": F.field_to_config(F.golden_ratio_field()),
           "params": {"R_list": [1, 2], "y_samples": 4, "test_points": 64}}
    first, second = (_read_json(cli.run_manifest(man, str(tmp_path)))["artifacts"]
                     for _ in range(2))
    assert list(first) == ["rho.csv"]
    assert first == second


@pytest.mark.parametrize("edit, code", [
    (lambda r: r["manifest"].pop("field"), 2),               # invalid manifest
    (lambda r: r.pop("manifest"), 2),
    (lambda r: r["manifest"]["params"].update(h=1.0), 3),    # h > T/64: refused by the solver
], ids=["invalid-manifest", "no-manifest", "compute-failure"])
def test_reproduce_exit_codes(tmp_path, edit, code):
    path = pathlib.Path(cli.run_manifest(_sine_manifest(T=16.0, h=1 / 64), str(tmp_path)))
    result = _read_json(path)
    edit(result)
    if "manifest" in result:
        result["manifest_hash"] = cli.manifest_hash(result["manifest"])
    path.write_text(cli.dumps_canonical(result))
    assert cli.main(["reproduce", "--result", str(path)]) == code


def test_reproduce_of_missing_file_exits_2(tmp_path):
    assert cli.main(["reproduce", "--result", str(tmp_path / "none.json")]) == 2


def test_unknown_params_key_exits_2_and_writes_nothing(tmp_path):
    man = _sine_manifest(T=16.0, h=1 / 64, bufer=1.0)
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["h", "T", "field"])
def test_non_finite_number_exits_2_and_writes_nothing(tmp_path, where, value):
    man = _sine_manifest("corrector", T=16.0, h=1 / 64)
    if where == "field":
        man["field"]["terms"][1]["sin"][0][0][0][0] = value
    else:
        man["params"][where] = value
    with pytest.raises(cli.ManifestError):
        cli.validate_manifest(man)
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out").exists()


def test_reproduce_accepts_results_with_the_compare_entry(tmp_path):
    # older results store "compare": {"rtol": 0, "atol": 0}; comparison is exact anyway
    man = {"command": "rho", "seed": 3, "field": F.field_to_config(F.golden_ratio_field()),
           "params": {"R_list": [1, 2], "y_samples": 4, "test_points": 64}}
    path = pathlib.Path(cli.run_manifest(man, str(tmp_path)))
    result = _read_json(path)
    assert "compare" not in result
    result["compare"] = {"rtol": 0.0, "atol": 0.0}
    path.write_text(cli.dumps_canonical(result) + "\n")
    assert cli.main(["reproduce", "--result", str(path)]) == 0
