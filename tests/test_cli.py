import dataclasses
import json
import logging
import os
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from aphomog import cli
from aphomog import fields as F
from oracle_tools import FIELD_SCHEMA, field_schema_fault, jsonschema_fault, schema_fault

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
    if cli.COMMANDS[command].needs_field:
        man["field"] = F.field_to_config(F.sine_scalar_field())
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out" / f"{command}_result.json").exists()


@pytest.mark.parametrize("failing", [1, 2, 3], ids=["chi-0", "chi-1", "result"])
def test_a_failing_write_leaves_no_file_in_out(tmp_path, monkeypatch, failing):
    # d = 2: two chi companions, then the result; write number `failing` raises
    # after it has written its file
    man = {"command": "corrector", "seed": 0, "field": F.field_to_config(F.laminate_field()),
           "params": {"T": 1.0, "h": 1 / 64, "bc": "periodic"}}
    written = []

    def counted(write):
        def wrapper(*args):
            write(*args)
            written.append(args[-1])
            if len(written) == failing:
                raise OSError("disk full")
        return wrapper

    monkeypatch.setattr(cli, "save_grid_function", counted(cli.save_grid_function))
    monkeypatch.setattr(cli, "_text", lambda text, real=cli._text: counted(real(text)))
    out = tmp_path / "out"
    with pytest.raises(OSError, match="disk full"):
        cli.run_manifest(man, str(out))
    assert len(written) == failing
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize("name", ["manifest"] + list(cli.COMMANDS))
def test_schemas_are_valid_json_schemas(name):
    schema = cli.MANIFEST_SCHEMA if name == "manifest" else cli.COMMANDS[name].params
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


def test_reproduce_compares_the_artifacts_map(tmp_path):
    path = pathlib.Path(cli.run_manifest(_sine_manifest("corrector", T=16.0, h=1 / 64),
                                         str(tmp_path)))
    assert cli.main(["reproduce", "--result", str(path)]) == 0
    result = _read_json(path)
    result["artifacts"]["corrector_chi_j0_b0.bin"] = "0" * 64
    path.write_text(cli.dumps_canonical(result) + "\n")
    assert cli.main(["reproduce", "--result", str(path)]) == 4


def test_reproduce_of_missing_file_exits_2(tmp_path):
    assert cli.main(["reproduce", "--result", str(tmp_path / "none.json")]) == 2


def test_unknown_params_key_exits_2_and_writes_nothing(tmp_path):
    man = _sine_manifest(T=16.0, h=1 / 64, bufer=1.0)
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["theta", "discrepancy"])
def test_a_field_for_a_command_that_takes_none_exits_2(tmp_path, command):
    man = {"command": command, "seed": 0, "field": F.field_to_config(F.sine_scalar_field()),
           "params": {"lambda": [1.0, F.GOLDEN_RATIO], "R_list": [8, 16], "R": 8, "ell": 8}}
    del man["params"]["R" if command == "theta" else "R_list"]
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out").exists()


def test_manifest_out_dir_key_exits_2_and_writes_nothing(tmp_path):
    # the output directory is --out alone; a manifest key naming another is unknown
    man = {"command": "theta", "seed": 0, "out_dir": str(tmp_path / "elsewhere"),
           "params": {"lambda": [1.0, F.GOLDEN_RATIO], "R_list": [8, 16], "ell": 8}}
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "elsewhere").exists()


@pytest.mark.parametrize("command, params", [
    ("rho", {"R_list": [4, 2]}),
    ("theta", {"lambda": [1.0, F.GOLDEN_RATIO], "R_list": [8, 16, 32], "ell": [8] * 5}),
    ("theta", {"lambda": [1.0, F.GOLDEN_RATIO], "R_list": [8, 4, 2], "ell": 8}),
    ("rate", {"eps_list": [0.25, 0.125, 0.0625]}),
    ("rate", {"eps_list": [0.25, 0.125, 0.125, 0.0625]}),
    ("rate", {"eps_list": [4, 2, 1, 0.5]}),
    ("holder", {"eps_list": [8, 4, 2, 1.5]}),
    ("holder", {"eps_list": [0.125, 0.0625, 16.0]}),
], ids=["rho-decreasing", "theta-ell-length", "theta-decreasing", "rate-3-eps",
        "rate-repeated-eps", "rate-eps-above-1", "holder-smallest-eps-above-1",
        "holder-eps-grid-below-4-cells"])
def test_params_that_do_not_fit_together_exit_2_and_write_nothing(tmp_path, command,
                                                                   params):
    man = {"command": command, "seed": 0, "params": params}
    if cli.COMMANDS[command].needs_field:
        man["field"] = F.field_to_config(F.sine_scalar_field())
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out").exists()


def test_holder_takes_eps_above_1_when_the_smallest_is_at_most_1(tmp_path):
    # holder solves one corrector, at T = 1/min(eps); the rate rule is not its rule
    man = {"command": "holder", "seed": 0, "field": F.field_to_config(F.sine_scalar_field()),
           "params": {"eps_list": [4, 2, 1, 0.5]}}
    assert _exit_code(tmp_path, man) == 0


@pytest.mark.parametrize("command, params", [
    ("homogenize", {"T": 16.0, "h": 1 / 64}),
    ("rho", {"R_list": [1, 2]}),
    ("theta", {"lambda": [1.0, F.GOLDEN_RATIO], "R_list": [8, 16], "ell": 8}),
], ids=["homogenize", "rho", "theta"])
def test_negative_seed_exits_2_and_writes_nothing(tmp_path, command, params):
    man = {"command": command, "seed": -1, "params": params}
    if cli.COMMANDS[command].needs_field:
        man["field"] = F.field_to_config(F.sine_scalar_field())
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out").exists()


def test_non_elliptic_field_exits_2_without_result(tmp_path):
    man = _sine_manifest(T=16.0, h=1 / 64)
    man["field"] = {"variant": "constant", "d": 1, "m": 1, "value": -1}
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out" / "homogenize_result.json").exists()


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


_IMPORT_PROBE = """
import json, sys
import aphomog.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "jsonschema")
                or m.split(".")[:2] == ["numpy", "ma"])
from aphomog.cli import run_manifest, validate_manifest
manifest = json.loads(sys.argv[1])
validate_manifest(manifest)
before = set(sys.modules)
run_manifest(manifest, sys.argv[2])
print(json.dumps(loaded))
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _modules(tmp_path, man):
    """(scipy, jsonschema and numpy.ma modules loaded by ``import aphomog.cli``,
    every module first loaded by the run)."""
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(man),
                           str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in done.stdout.strip().splitlines()[-2:]]


_THETA_RUN = {"command": "theta", "seed": 0,
              "params": {"lambda": [1.0, F.GOLDEN_RATIO], "R_list": [8, 16], "ell": 8}}
_CORRECTOR_1D_RUN = {"command": "corrector", "seed": 0,
                     "field": F.field_to_config(F.golden_ratio_field()),
                     "params": {"T": 2, "h": 1 / 32, "buffer": 1}}


@pytest.mark.parametrize("command", ["homogenize", "rate", "rho"])
def test_a_run_imports_no_module(tmp_path, command):
    # a d = 2 homogenize, a d = 2 rate or a rho run first-imports no module,
    # whose import time would land in the run's wall time: the package loads
    # numpy's lazily loaded submodules with itself, and the solves transform
    # on numpy.fft (a 1D solve imports scipy.sparse.linalg, theta scipy.spatial)
    if command == "rho":
        field = F.field_to_config(F.golden_ratio_field())
        params = {"R_list": [1, 2], "y_samples": 4, "test_points": 64}
    else:
        field = {"variant": "trig_polynomial", "d": 2, "m": 1,
                 "terms": [{"frequency": [0, 0], "cos": 2.0, "sin": 0.0},
                           {"frequency": [1, 0], "cos": 0.0, "sin": 1.0}]}
        params = ({"T": 2, "h": 1 / 32, "tol": 1e-8} if command == "homogenize" else
                  {"eps_list": [1, 0.5, 0.25, 0.125], "corrector_h": 1 / 64, "tol": 1e-8})
    man = {"command": command, "seed": 0, "field": field, "params": params}
    assert _modules(tmp_path, man)[1] == []


@pytest.fixture(scope="module")
def theta_modules(tmp_path_factory):
    return _modules(tmp_path_factory.mktemp("theta"), _THETA_RUN)


def test_the_package_loads_no_scipy_module(theta_modules):
    # the preconditioner's transforms are numpy.fft's at every size and the
    # stencil matvec needs no sparse matrix; the environment record reads
    # scipy's version from its metadata
    loaded, _ = theta_modules
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]


def test_the_cli_loads_neither_jsonschema_nor_numpy_ma(theta_modules):
    # the package checks its schemas itself, and the rho ladder's seen-shift
    # mask is a set lookup (np.isin would import numpy.ma through np.unique)
    loaded, _ = theta_modules
    assert loaded == []


def test_a_theta_run_loads_scipy_spatial(theta_modules):
    # covering_radius is the one user of scipy.spatial and imports it itself
    assert "scipy.spatial" in theta_modules[1]


def test_a_1d_corrector_run_loads_scipy_sparse_linalg(tmp_path):
    # the d = 1 preconditioner is the one user of splu and imports it itself
    loaded, run = _modules(tmp_path, _CORRECTOR_1D_RUN)
    assert loaded == []
    assert "scipy.sparse.linalg" in run


# ---------------------------------------------------------------------------
# a run writes nothing until its compute returns


@pytest.mark.parametrize("field", [
    {"variant": "constant", "d": 1, "m": 1, "value": -1},
    {"variant": "trig_polynomial", "d": 1},                 # no m, no terms
], ids=["not-elliptic", "unbuildable"])
def test_a_field_that_fails_exits_2_and_leaves_no_out(tmp_path, field):
    man = _sine_manifest(T=16.0, h=1 / 64)
    man["field"] = field
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out").exists()


def test_a_compute_failure_exits_3_and_leaves_no_out(tmp_path):
    man = _sine_manifest("corrector", T=16.0, h=1.0)        # h > T/64: refused by the solver
    assert _exit_code(tmp_path, man) == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, code", [
    ({"params": {"T": 16.0, "h": 1.0}}, 3),
    ({"field": {"variant": "constant", "d": 1, "m": 1, "value": -1}}, 2),
], ids=["compute-failure", "not-elliptic"])
def test_a_failing_rerun_leaves_the_earlier_result_byte_identical(tmp_path, edit, code):
    man = _sine_manifest("corrector", T=16.0, h=1 / 64)
    cli.run_manifest(man, str(tmp_path / "out"))
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert "corrector_chi_j0_b0.bin" in before
    man.update(edit)
    assert _exit_code(tmp_path, man) == code
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before


# one-key mutations of every params key of every demo command, set or not
_MUTATIONS = [0, -1, 1, 2, 0.5, 3.5, [], [1], [1, 2], [2, 1], [0.5, 0.25], "x", None, True, {}]
_SWEEP = [(path, key, value) for path in DEMO_MANIFESTS
          for key in cli.COMMANDS[_read_json(path)["command"]].params["properties"]
          for value in _MUTATIONS]


@pytest.mark.parametrize("path, key, value", _SWEEP, ids=[
    f"{p.stem}-{k}={json.dumps(v, separators=(',', ':'))}" for p, k, v in _SWEEP])
def test_one_key_mutation_exits_0_or_2_and_a_failure_leaves_no_out(tmp_path, path, key,
                                                                    value):
    man = _read_json(path)
    man["params"][key] = value
    # the package's checker refuses exactly what jsonschema refuses, with its message
    schema = cli.COMMANDS[man["command"]].params
    fault = jsonschema_fault(schema, man["params"], "params")
    assert schema_fault(schema, man["params"], "params") == fault
    if fault is not None:
        with pytest.raises(cli.ManifestError) as refused:
            cli.validate_manifest(man)
        assert str(refused.value) == fault
    code = _exit_code(tmp_path, man)
    # a step coarser than T/64 is the one compute failure a params key can cause
    assert code in (0, 2) or (code == 3 and key in ("h", "corrector_h")), code
    assert (tmp_path / "out").exists() == (code == 0)


# one-key mutations of every field key of every demo field config, set or not
_FIELD_DEMOS = [path for path in DEMO_MANIFESTS if "field" in _read_json(path)]
_FIELD_KEYS = sorted({k for schema in F.FIELD_SCHEMAS.values() for k in schema["properties"]}
                     | {"bogus"})


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@pytest.mark.parametrize("path, key", [(p, k) for p in _FIELD_DEMOS for k in _FIELD_KEYS],
                         ids=[f"{p.stem}-{k}" for p in _FIELD_DEMOS for k in _FIELD_KEYS])
def test_one_key_field_mutation_is_refused_by_the_closed_schema(path, key):
    assert len(_FIELD_DEMOS) == 6
    closed = F.FIELD_SCHEMAS[_read_json(path)["field"]["variant"]]["properties"]
    for value in _MUTATIONS:
        man = _read_json(path)
        man["field"][key] = value
        # no demo value is another variant's name; d and m are counts, order only 1
        must_refuse = (key not in closed or key == "variant"
                       or (key in ("d", "m", "order") and not _is_count(value))
                       or (key == "order" and value != 1))
        # the package's checker refuses exactly what the jsonschema validator
        # it replaced refused, with best_match's message
        fault = jsonschema_fault(FIELD_SCHEMA, man["field"], "field")
        assert field_schema_fault(man["field"]) == fault, (key, value)
        try:
            F.field_from_config(man["field"])
        except ValueError as exc:
            refused_by_fields = True
            assert fault is None or str(exc) == fault, (key, value)
        else:
            refused_by_fields = False
        try:
            field = cli.validate_manifest(man)        # no compute runs
        except cli.ManifestError:
            assert refused_by_fields, (key, value)
            continue
        assert not refused_by_fields, (key, value)
        assert not must_refuse, (key, value)
        assert isinstance(field, F.CoefficientField)


@pytest.mark.parametrize("edit", [{"d": True}, {"bogus": 1}, {"order": 2}],
                         ids=["d-true", "bogus", "order-2"])
def test_a_field_key_outside_the_closed_schema_exits_2_and_leaves_no_out(tmp_path, edit):
    man = _read_json(DEMO_MANIFESTS[0].with_name("rho_golden.json"))
    man["field"].update(edit)
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out").exists()


def _subschemas(schema):
    """``schema`` and every schema nested in it through properties or items."""
    yield schema
    for sub in [*schema.get("properties", {}).values(),
                *([schema["items"]] if "items" in schema else [])]:
        yield from _subschemas(sub)


_PROBES = [None, True, False, 0, 1, -1, 2.0, 0.5, 1.5, "x", "auto", "constant",
           [], [0], [1, 2.5], {}, {"variant": "constant"}, {"bogus": 1}]


_SCHEMAS = {"manifest": cli.MANIFEST_SCHEMA, "field": F._VARIANT,
            **{f"params-{c}": cmd.params for c, cmd in cli.COMMANDS.items()},
            **{f"field-{v}": schema for v, schema in F.FIELD_SCHEMAS.items()}}


@pytest.mark.parametrize("name", list(_SCHEMAS))
def test_the_checker_implements_every_keyword_of_the_package_schemas(name):
    # the checker raises on a keyword, a type or an additionalProperties it does
    # not implement, and compares enum and const values as scalars; every nested
    # schema is checked against jsonschema on probes
    for sub in _subschemas(_SCHEMAS[name]):
        assert not [v for v in [*sub.get("enum", []), *([sub["const"]] if "const" in sub else [])]
                    if isinstance(v, (list, dict))], sub
        for probe in _PROBES:
            assert schema_fault(sub, probe, "x") == jsonschema_fault(sub, probe, "x"), (sub, probe)


@pytest.mark.parametrize("keyword", [{"anyOf": [{}]}, {"pattern": "x"}, {"maxItems": 1}])
def test_a_keyword_the_checker_does_not_implement_raises(keyword):
    with pytest.raises(NotImplementedError):
        F._check_schema(keyword, [], "x")


@pytest.mark.parametrize("name, obj", [
    ("manifest", {"command": "x", "seed": -1, "params": 3, "bogus": 1}),
    ("manifest", {"command": "rho", "seed": -1, "params": 3}),
    ("params-corrector", {"T": -1, "h": -1, "bc": "x"}),
    ("params-corrector", {"T": -1, "bogus": 1}),
    ("params-corrector", {"zz": 1, "T": 1, "aa": 2}),
    ("params-rho", {"R_list": [0, -1], "norm": 2}),
    ("params-theta", {"lambda": [1], "R_list": [1], "ell": [0, 2.5]}),
    ("params-theta", {"lambda": [1], "R_list": [1], "ell": [2.5, 0]}),
    ("params-theta", {"lambda": [1], "R_list": [1], "ell": 0.5}),
    ("field-trig_polynomial", {"variant": "trig_polynomial", "d": 0, "m": True, "terms": 3}),
    ("field-quasi_periodic", {"variant": "quasi_periodic", "d": 1, "m": 1, "layout": [[1, "x"], []],
                              "torus_terms": [{"frequency": [], "cos": 1}]}),
], ids=lambda v: v if isinstance(v, str) else None)
def test_several_faults_give_best_matchs_choice(name, obj):
    # the shallowest fault, the later of two paths at one depth, and the first
    # listed of two faults at one path (ell: 0.5 breaks type, then minimum)
    fault = jsonschema_fault(_SCHEMAS[name], obj, "x")
    assert fault is not None
    assert schema_fault(_SCHEMAS[name], obj, "x") == fault


def test_every_stock_field_config_validates():
    sampled = F.PeriodicSampledField([1.0, 2.0], 2.0 + np.zeros((4, 8, 2, 2, 1, 1)))
    for f in (F.identity_field(2, 2), F.sine_scalar_field(), F.laminate_field(),
              F.golden_ratio_field(), sampled):
        cfg = json.loads(json.dumps(F.field_to_config(f)))
        jsonschema.validate(cfg, F.FIELD_SCHEMAS[cfg["variant"]])
        man = {"command": "homogenize", "seed": 0, "params": {"T": 1.0}, "field": cfg}
        assert F.field_to_config(cli.validate_manifest(man)) == cfg


def _flux_manifest(**params):
    man = _read_json(DEMO_MANIFESTS[0].with_name("flux_golden.json"))
    man["params"].update(params)
    return man


@pytest.mark.parametrize("key, value", [("region_factor", v) for v in (2, 1, 0.5)]
                         + [("buffer", v) for v in (0, 1, 2, 0.5, 3.5)])
def test_flux_region_that_does_not_fit_exits_2_and_writes_nothing(tmp_path, key, value):
    assert _exit_code(tmp_path, _flux_manifest(**{key: value})) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("buffer, region_factor, code", [
    (4, 9, 0), (3.99, 9, 2),        # the region of side 9T fits a box of side (2 buffer + 1) T
    (6, 3, 0), (6, 2.99, 2),        # the snapped region spans at least 3T
])
def test_flux_region_boundaries_at_T16(tmp_path, buffer, region_factor, code):
    man = _flux_manifest(T_list=[16.0], h=1 / 64, buffer=buffer, region_factor=region_factor)
    assert _exit_code(tmp_path, man) == code


def test_flux_on_a_periodic_field_ignores_region_factor_and_buffer(tmp_path):
    man = {"command": "flux", "seed": 7, "field": F.field_to_config(F.sine_scalar_field()),
           "params": {"T_list": [16.0], "h": 1 / 64, "buffer": 0, "region_factor": 2}}
    assert _exit_code(tmp_path, man) == 0


def test_reproduce_lists_the_environment_keys_that_changed(tmp_path, capsys):
    path = pathlib.Path(cli.run_manifest(_THETA_RUN, str(tmp_path)))
    result = _read_json(path)
    assert sorted(result["environment"]) == ["numpy", "python", "scipy"]
    result["environment"]["scipy"] = "0.0"
    path.write_text(cli.dumps_canonical(result) + "\n")
    # only the payload and the artifacts map are compared
    assert cli.main(["reproduce", "--result", str(path)]) == 0
    result["payload"]["report"]["values"][0] += 1.0
    path.write_text(cli.dumps_canonical(result) + "\n")
    capsys.readouterr()
    assert cli.main(["reproduce", "--result", str(path)]) == 4
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["environment"] == ["scipy"]


@pytest.mark.parametrize("edit", [
    {"d": 2},                                  # the golden field, with scalar terms, has d = 1
    {"variant": "constant", "d": 3, "m": 2, "value": [[[[2.0]], [[0.0]]], [[[0.0]], [[2.0]]]]},
    {"variant": "periodic_sampled", "d": 1, "m": 2, "period": [1.0, 2.0], "order": 1,
     "samples": (2.0 + np.zeros((4, 4, 2, 2, 1, 1))).tolist()},
], ids=["golden-d2", "constant-d3-m2", "periodic_sampled"])
def test_a_config_whose_d_or_m_is_not_its_fields_exits_2_and_leaves_no_out(tmp_path, edit):
    man = _read_json(DEMO_MANIFESTS[0].with_name("rho_golden.json"))
    for term in man["field"]["torus_terms"]:
        term["cos"], term["sin"] = term["cos"][0][0][0][0], term["sin"][0][0][0][0]
    man["field"] = edit if "variant" in edit else dict(man["field"], **edit)
    with pytest.raises(ValueError, match="the config states"):
        F.field_from_config(man["field"])
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("leaf", ["2", True], ids=["string", "boolean"])
def test_a_tensor_of_strings_or_booleans_exits_2_and_leaves_no_out(tmp_path, leaf):
    # numpy would read "2" as 2.0 and True as 1.0
    man = _read_json(DEMO_MANIFESTS[0].with_name("rho_golden.json"))
    man["field"]["torus_terms"][0]["cos"] = [[[[leaf]]]]
    assert _exit_code(tmp_path, man) == 2
    assert not (tmp_path / "out").exists()


def test_a_non_finite_payload_exits_3_and_writes_no_companion(tmp_path, monkeypatch):
    def run(manifest, field):
        return {"value": float("nan")}, "nan", {"companion.csv": cli._text("a,b\n")}

    monkeypatch.setitem(cli.COMMANDS, "rho", dataclasses.replace(cli.COMMANDS["rho"], run=run))
    man = _read_json(DEMO_MANIFESTS[0].with_name("rho_golden.json"))
    assert _exit_code(tmp_path, man) == 3
    assert not (tmp_path / "out").exists()


def test_running_out_of_memory_exits_3_and_leaves_no_out(tmp_path, monkeypatch):
    def run(manifest, field):
        raise MemoryError("Unable to allocate 58.2 TiB")

    monkeypatch.setitem(cli.COMMANDS, "discrepancy",
                        dataclasses.replace(cli.COMMANDS["discrepancy"], run=run))
    man = _read_json(DEMO_MANIFESTS[0].with_name("discrepancy_golden.json"))
    assert _exit_code(tmp_path, man) == 3
    assert not (tmp_path / "out").exists()


_SMALL_RHO = {"command": "rho", "seed": 11, "field": F.field_to_config(F.golden_ratio_field()),
              "params": {"R_list": [2, 4, 8], "y_samples": 8, "test_points": 128}}


def test_an_out_that_is_a_file_exits_2_and_leaves_the_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"not a directory\n")
    assert _exit_code(tmp_path, _SMALL_RHO) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "output unwritable"
    assert out.read_bytes() == b"not a directory\n"


@pytest.mark.parametrize("man", [
    _SMALL_RHO,
    _sine_manifest(T=16.0, h=1 / 64),
    {"command": "rate", "seed": 3, "field": F.field_to_config(F.ConstantField(2.0, d=1, m=1)),
     "params": {"eps_list": [1 / 8, 1 / 16, 1 / 32, 1 / 64]}},
], ids=["rho", "homogenize", "rate"])
def test_a_run_leaves_numpys_global_generator_as_it_was(tmp_path, man):
    # a state no manifest seed gives, so a reseed would show
    np.random.seed(2 ** 31 - 1)
    np.random.random()
    before = np.random.get_state()
    cli.run_manifest(man, str(tmp_path))
    after = np.random.get_state()
    assert before[0] == after[0] and np.array_equal(before[1], after[1])
    assert before[2:] == after[2:]


# ---------------------------------------------------------------------------
# results do not depend on the BLAS thread count

def _bench_field_homogenize():
    """The 2D quasi-periodic homogenize run of the benchmark: 191^2 = 36481 unknowns."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    terms = [{"frequency": k, "cos": c, "sin": 0.0}
             for k, c in [([0, 0, 0, 0], 2.0), ([1, 0, 1, 0], 0.5), ([0, 1, 0, 1], 0.5)]]
    return {"command": "homogenize", "seed": 0,
            "field": {"variant": "quasi_periodic", "d": 2, "m": 1,
                      "layout": [[1.0, phi], [1.0, np.sqrt(2.0)]], "torus_terms": terms},
            "params": {"T": 4, "h": 0.0625, "buffer": 1, "bc": "truncated", "tol": 1e-9}}


def _bench_rho_golden():
    """The rho ladder of the benchmark on the golden field."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    terms = [{"frequency": k, "cos": c, "sin": 0.0}
             for k, c in [([0, 0], 2.0), ([1, 1], 0.5), ([1, -1], 0.5)]]
    return {"command": "rho", "seed": 0,
            "field": {"variant": "quasi_periodic", "d": 1, "m": 1,
                      "layout": [[1.0, phi]], "torus_terms": terms},
            "params": {"R_list": [2, 4, 8, 16, 32], "z_spacing": 0.015625,
                       "test_points": 1024}}


def _run_with_blas_threads(tmp_path, man, threads):
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    man_path, out = tmp_path / "man.json", tmp_path / f"out{threads}"
    man_path.write_text(json.dumps(man))
    proc = subprocess.run([sys.executable, "-m", "aphomog", "run", "--manifest", str(man_path),
                           "--out", str(out)], env=env, capture_output=True, check=True)
    assert proc.stderr == b""
    result = _read_json(next(out.glob("*_result.json")))
    return cli.dumps_canonical(result["payload"]), result["artifacts"]


@pytest.mark.parametrize("name", ["corrector_golden", "flux_golden", "homogenize_2d",
                                  "rho_golden_bench"])
def test_payload_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, name):
    # each run but the rho ladder has inner products over more than 10 000
    # entries, which threaded BLAS splits across threads; the ladder's
    # tables call no BLAS
    if name == "homogenize_2d":
        man = _bench_field_homogenize()
    elif name == "rho_golden_bench":
        man = _bench_rho_golden()
    else:
        man = _read_json(DEMO_MANIFESTS[0].with_name(f"{name}.json"))
    assert _run_with_blas_threads(tmp_path, man, 1) == _run_with_blas_threads(tmp_path, man, 2)


_ELL_PROBES = [0, 1, 2.0, 0.5, True, None, "x", [], [0], [1], [1, 2], [1, 2.5], [2.0], {},
               [True], [[1]], -3, 1.5, [0, 2.5]]


@pytest.mark.parametrize("ell", _ELL_PROBES, ids=repr)
def test_theta_ell_refuses_what_its_any_of_schema_refused(ell):
    # ell was {"anyOf": [_COUNT, _list_of(_COUNT)]}; one radius per ell keeps the
    # subdivision rule out of the verdict
    any_of = {"anyOf": [{"type": "integer", "minimum": 1},
                        {"type": "array", "minItems": 1,
                         "items": {"type": "integer", "minimum": 1}}]}
    refused = not jsonschema.Draft202012Validator(any_of).is_valid(ell)
    radii = [2.0 ** k for k in range(len(ell) if isinstance(ell, list) and ell else 1)]
    man = {"command": "theta", "seed": 0,
           "params": {"lambda": [1.0, F.GOLDEN_RATIO], "R_list": radii, "ell": ell}}
    try:
        cli.validate_manifest(man)
    except cli.ManifestError:
        assert refused
    else:
        assert not refused


@pytest.mark.parametrize("ell, message", [
    (0.5, "params.ell: 0.5 is not of type 'integer', 'array'"),
    ("x", "params.ell: 'x' is not of type 'integer', 'array'"),
    (0, "params.ell: 0 is less than the minimum of 1"),
    ([0, 2], "params.ell[0]: 0 is less than the minimum of 1"),
    ([], "params.ell: [] should be non-empty"),
    ([1.5], "params.ell[0]: 1.5 is not of type 'integer'"),
])
def test_theta_ell_messages(ell, message):
    man = {"command": "theta", "seed": 0,
           "params": {"lambda": [1.0, F.GOLDEN_RATIO], "R_list": [1.0, 2.0], "ell": ell}}
    with pytest.raises(cli.ManifestError) as info:
        cli.validate_manifest(man)
    assert str(info.value) == message
