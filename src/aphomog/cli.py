"""Batch front door: manifest-driven pipelines with reproducible artifacts.

One manifest describes one pipeline run (composition belongs in shell
scripts).  Every artifact embeds the manifest, its hash, the seed, and
tool/environment metadata; floats are serialized with 17 significant
digits and stable key ordering so ``reproduce`` can re-run the embedded
manifest and compare payloads exactly.

Exit codes: 0 success; 2 unreadable input or output directory, manifest
schema violation, a NaN or infinity in params, params that do not fit
together, or a field config that ``fields.field_from_config`` refuses or
that is not elliptic; 3 compute failure (running out of memory included);
4 reproduction drift.  A run writes nothing until its compute returns, so
exits 2 and 3 leave the output directory as it was.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gzip  # noqa: F401  np.savetxt loads it on first call
import hashlib
import json
import logging
import os
import pathlib
import shutil
import sys
import tempfile
import time
from importlib.metadata import PackageNotFoundError, version as pkg_version

import numpy as np
import numpy.fft  # noqa: F401  numpy loads these two on first use
import numpy.random  # noqa: F401

from . import correctors as C
from . import experiments as E
from . import fields as F
from . import metrics as M
from .errors import EllipticityViolation, NonConverged
from .fields import _COUNT, _POSITIVE, _check_finite, _check_schema, _closed, _list_of
from .grids import save_grid_function, window_mean

log = logging.getLogger("aphomog")

# read with the package, as every module a run would otherwise load on first
# use (importlib.metadata loads its email parser here), so no run pays an import
try:
    _TOOL_VERSION = pkg_version("aphomog")
except PackageNotFoundError:
    _TOOL_VERSION = "0.0.0+local"
# versions of the interpreter and of the libraries the numbers come from
_ENVIRONMENT = {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": pkg_version("scipy")}

_POSITIVE_OR_NULL = {"type": ["number", "null"], "exclusiveMinimum": 0}
_NONNEGATIVE = {"type": "number", "minimum": 0}
_COUNT_OR_NULL = {"type": ["integer", "null"], "minimum": 1}
_T = {"type": "number", "minimum": 1}

_CORRECTOR_PARAMS = _closed(["T"], {
    "T": _T, "h": _POSITIVE_OR_NULL, "buffer": _NONNEGATIVE,
    "bc": {"enum": ["auto", "periodic", "truncated"]}, "tol": _POSITIVE})


class ManifestError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic JSON with 17 significant digits and sorted keys


def dumps_canonical(obj):
    if isinstance(obj, float):
        if not np.isfinite(obj):
            raise ValueError("non-finite value in payload")
        return format(obj, ".17g")
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, np.generic):
        return dumps_canonical(obj.item())
    if isinstance(obj, np.ndarray):
        return dumps_canonical(obj.tolist())
    if isinstance(obj, dict):
        items = [f'{json.dumps(str(k))}: {dumps_canonical(obj[k])}'
                 for k in sorted(obj, key=str)]
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def manifest_hash(manifest):
    return hashlib.sha256(dumps_canonical(manifest).encode("utf-8")).hexdigest()


def _text(text):
    """Writer of ``text`` as UTF-8 to a path."""
    return lambda path: pathlib.Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# pipelines


def _corrector_payload(cset):
    _, rel = C.energy_identity_residual(cset)
    means = [[window_mean(cset.chi[j][b], cset.window).tolist()
              for b in range(cset.m)] for j in range(cset.d)]
    return {
        "provenance": cset.provenance(),
        "sup_norm": cset.sup_norm(),
        "window_means": means,
        "energy_residual_relative": rel.tolist(),
    }


def _solver_params(p):
    """(h, buffer, tol) of the corrector solves; shared by corrector, homogenize and flux."""
    return p.get("h"), float(p.get("buffer", 6.0)), float(p.get("tol", 1e-10))


def _corrector_from(manifest, field):
    """Solve the correctors of the manifest; shared by corrector and homogenize."""
    p = manifest["params"]
    h, buffer, tol = _solver_params(p)
    return C.solve_corrector(field, float(p["T"]), h=h,
                             buffer=buffer, bc=p.get("bc", "auto"), tol=tol)


def _run_corrector(manifest, field):
    cset = _corrector_from(manifest, field)
    payload = _corrector_payload(cset)
    files = {f"corrector_chi_j{j}_b{b}.bin": functools.partial(save_grid_function, u)
             for j, row in enumerate(cset.chi) for b, u in enumerate(row)}
    return payload, f"corrector T={cset.T:g} mode={cset.mode} sup={payload['sup_norm']:.6g}", files


def _run_homogenize(manifest, field):
    cset = _corrector_from(manifest, field)
    hm = C.homogenized_matrix(cset)
    payload = {
        "ahat": hm.tensor.tolist(),
        "source": list(hm.source),
        "sym_eig_min": hm.sym_eig_min,
        "sym_eig_max": hm.sym_eig_max,
        "ellipticity_ok": hm.ellipticity_ok,
        "corrector": _corrector_payload(cset),
    }
    return payload, f"homogenize T={cset.T:g} ahat[0,0]={hm.tensor[0, 0, 0, 0]:.9g}", {}


def _run_rho(manifest, field):
    p = manifest["params"]
    rep = M.rho_ladder(field, p["R_list"],
                       y_samples=p.get("y_samples"),
                       z_grid_spacing=p.get("z_spacing"),
                       test_points=p.get("test_points"),
                       norm=p.get("norm", "inf"),
                       rng_seed=int(manifest["seed"]))
    if rep.values.size >= 3 and np.all(rep.values > 0):
        rep.fit()
    summary = (f"rho R in [{rep.parameters[0]:g}, {rep.parameters[-1]:g}] "
               f"exponent={rep.fitted_exponent}")
    return {"report": rep.as_dict()}, summary, {"rho.csv": rep.to_csv}


def _run_theta(manifest, field):
    p = manifest["params"]
    rep = M.theta_ladder(p["lambda"], p["R_list"], p["ell"])
    if rep.values.size >= 3 and np.all(rep.values > 0):
        rep.fit()
    return ({"report": rep.as_dict()}, f"theta ladder exponent={rep.fitted_exponent}",
            {"theta.csv": rep.to_csv})


def _run_discrepancy(manifest, field):
    p = manifest["params"]
    pset = M.kronecker_point_set(p["lambda"], int(p["R"]), int(p["ell"]))
    exact = M.discrepancy_exact(pset) if pset.dimension <= 2 else None
    bounds = {str(H): M.etk_bound(pset, int(H)) for H in p.get("H_list", [4, 16, 64])}
    payload = {"N": pset.size, "dimension": pset.dimension,
               "exact": exact, "etk_bounds": bounds,
               "covering_bound": None if exact is None
               else M.covering_from_discrepancy(exact, pset.dimension),
               "provenance": pset.provenance}
    return payload, f"discrepancy N={pset.size} exact={exact}", {}


def _run_rate(manifest, field):
    p = manifest["params"]
    exp = E.rate_experiment(field, p["eps_list"],
                            corrector_h=p.get("corrector_h"),
                            tol=float(p.get("tol", 1e-9)),
                            include_boundary_corrector=bool(
                                p.get("boundary_corrector", False)))
    lines = ["eps,cells,L2_plain,L2_corrected,H1_plain,H1_corrected"]
    for r in exp["rows"]:
        lines.append(f"{r['eps']:.17g},{r['cells']},{r['L2_plain']:.17g},"
                     f"{r['L2_corrected']:.17g},{r['H1_plain']:.17g},"
                     f"{r['H1_corrected']:.17g}")
    if exp["floor_limited"]:
        summary = "rate: floor-limited (errors at solver floor)"
    else:
        summary = f"rate: fitted L2 slope={exp['fitted'].get('L2_plain', {}).get('slope')}"
    payload = dict(exp, reports={k: v.as_dict() for k, v in exp["reports"].items()})
    return payload, summary, {"rate.csv": _text("\n".join(lines) + "\n")}


def _run_holder(manifest, field):
    p = manifest["params"]
    rep = E.holder_uniformity(field, p["eps_list"], sigma=float(p.get("sigma", 0.5)),
                              corrector_h=p.get("corrector_h"),
                              rng_seed=int(manifest["seed"]))
    return rep, f"holder sigma={rep['sigma']} uniformity_ratio={rep['uniformity_ratio']:.4g}", {}


def _flux_regions(p, field):
    """The flux region of each T of the ladder (None on the cell route)."""
    h, buffer, _ = _solver_params(p)
    region_factor = float(p.get("region_factor", 9.0))
    return [C.flux_region(field, float(T), h, buffer, region_factor) for T in p["T_list"]]


def _run_flux(manifest, field):
    p = manifest["params"]
    h, buffer, tol = _solver_params(p)
    reports = []
    for T, region in zip(p["T_list"], _flux_regions(p, field)):
        cset = C.solve_corrector(field, float(T), h=h, buffer=buffer, tol=tol)
        flux = C.flux_tensor(cset, region=region)
        _, rep = C.solve_flux_corrector(flux, tol=tol)
        rep["mean_abs"] = float(np.max(np.abs(flux.mean)))
        reports.append(rep)
    summary = f"flux T ladder n={len(reports)} last sup_f_scaled={reports[-1]['sup_f_scaled']:.4g}"
    return {"reports": reports}, summary, {}


# ---------------------------------------------------------------------------
# commands


@dataclasses.dataclass(frozen=True)
class _Command:
    """One command: its closed params schema, its pipeline ``run(manifest, field)
    -> (payload, summary, {companion name: writer of a path})``, which writes
    nothing, whether it needs a field, and the ``rule(params, field)`` that
    raises ValueError for params that do not fit together (the library owns it)."""

    params: dict
    run: object
    needs_field: bool = True
    rule: object = lambda params, field: None


COMMANDS = {
    "corrector": _Command(_CORRECTOR_PARAMS, _run_corrector),
    "homogenize": _Command(_CORRECTOR_PARAMS, _run_homogenize),
    "rho": _Command(_closed(["R_list"], {
        "R_list": _list_of(_POSITIVE), "y_samples": _COUNT_OR_NULL,
        "test_points": _COUNT_OR_NULL, "z_spacing": _POSITIVE_OR_NULL,
        "norm": {"enum": ["inf", "euclid"]}}), _run_rho,
        rule=lambda p, field: M.checked_radii(p["R_list"])),
    "theta": _Command(_closed(["lambda", "R_list", "ell"], {
        "lambda": _list_of({"type": "number"}), "R_list": _list_of(_POSITIVE),
        "ell": {"type": ["integer", "array"], "minimum": 1, "minItems": 1, "items": _COUNT}}),
        _run_theta, needs_field=False,
        rule=lambda p, field: M.checked_ells(p["ell"], len(M.checked_radii(p["R_list"])))),
    "discrepancy": _Command(_closed(["lambda", "R", "ell"], {
        "lambda": _list_of({"type": "number"}), "R": _COUNT, "ell": _COUNT,
        "H_list": _list_of(_COUNT)}), _run_discrepancy, needs_field=False),
    "rate": _Command(_closed(["eps_list"], {
        "eps_list": _list_of(_POSITIVE), "corrector_h": _POSITIVE_OR_NULL,
        "tol": _POSITIVE, "boundary_corrector": {"type": "boolean"}}), _run_rate,
        rule=lambda p, field: E.checked_eps(p["eps_list"])),
    "holder": _Command(_closed(["eps_list"], {
        "eps_list": _list_of(_POSITIVE), "corrector_h": _POSITIVE_OR_NULL,
        "sigma": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}}),
        _run_holder, rule=lambda p, field: E.checked_holder_eps(p["eps_list"])),
    "flux": _Command(_closed(["T_list"], {
        "T_list": _list_of(_T), "h": _POSITIVE_OR_NULL, "buffer": _NONNEGATIVE,
        "region_factor": _POSITIVE, "tol": _POSITIVE}), _run_flux, rule=_flux_regions),
}

MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["command", "seed", "params"],
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "seed": {"type": "integer", "minimum": 0},
        "params": {"type": "object"},
        "field": {},                 # fields.field_from_config checks it
    },
    "additionalProperties": False,
}


def validate_manifest(manifest):
    """Check the whole manifest before any compute; return its field, built but not sampled.

    The field config is ``fields.field_from_config``'s to check; a command
    that takes no field refuses one.
    """
    try:
        _check_schema(MANIFEST_SCHEMA, manifest, "manifest")
        command, params = COMMANDS[manifest["command"]], manifest["params"]
        if command.needs_field != ("field" in manifest):
            raise ValueError(f"command {manifest['command']!r} "
                             f"{'needs a' if command.needs_field else 'takes no'} field config")
        _check_finite(params, "params")
        _check_schema(command.params, params, "params")
        field = F.field_from_config(manifest["field"]) if command.needs_field else None
        command.rule(params, field)
    except ValueError as exc:
        raise ManifestError(str(exc)) from exc
    return field


def run_manifest(manifest, out_dir, threads=None):
    """Validate, compute, then write the companion files and the result.

    Returns the path of the result JSON.  Raises ManifestError on an
    invalid manifest or a field that is not elliptic; compute failures
    propagate.  Nothing is written (``out_dir`` is not even created) until
    the compute returns and its payload serializes.  ``threads`` has no
    effect (the benchmark harness passes it).
    """
    t0 = time.perf_counter()
    field = validate_manifest(manifest)
    if field is not None:
        try:
            F.certify_ellipticity(field, rng_seed=int(manifest["seed"]))
        except EllipticityViolation as exc:
            raise ManifestError(f"field not elliptic: {exc}") from exc
    payload, summary, files = COMMANDS[manifest["command"]].run(manifest, field)
    dumps_canonical(payload)       # a non-finite value fails here, before any write
    name = f"{manifest['command']}_result.json"
    # every file is written into a staging directory inside out_dir, then renamed
    # into place, companions first, so a failed write leaves no file and a result
    # implies its companions; the writers create the files with the umask's modes
    os.makedirs(out_dir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".stage-", dir=out_dir)
    try:
        artifacts = {}       # sha256 of companion files (CSV, binaries)
        for companion, writer in files.items():
            writer(os.path.join(stage, companion))
            with open(os.path.join(stage, companion), "rb") as f:
                artifacts[companion] = hashlib.sha256(f.read()).hexdigest()
        result = {
            "tool": {"name": "aphomog", "version": _TOOL_VERSION},
            "manifest": manifest,
            "manifest_hash": manifest_hash(manifest),
            "seed": manifest["seed"],
            "environment": _ENVIRONMENT,
            "payload": payload,
            "artifacts": artifacts,
        }
        _text(dumps_canonical(result) + "\n")(os.path.join(stage, name))
        for written in [*files, name]:
            os.replace(os.path.join(stage, written), os.path.join(out_dir, written))
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    path = os.path.join(out_dir, name)
    log.info("run_manifest command=%s wall_s=%.3f result=%s",
             manifest["command"], time.perf_counter() - t0, path)
    print(summary + f" -> {path}")
    return path


# ---------------------------------------------------------------------------
# reproduction


def _diff_payload(a, b, path="payload", out=None):
    """(path, kind, values) of every difference between two payloads; exact."""
    out = [] if out is None else out
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            if k not in a or k not in b:
                out.append((f"{path}.{k}", "missing", None))
                continue
            _diff_payload(a[k], b[k], f"{path}.{k}", out)
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append((path, "length", (len(a), len(b))))
            return out
        for i, (x, y) in enumerate(zip(a, b)):
            _diff_payload(x, y, f"{path}[{i}]", out)
        return out
    if a != b:
        out.append((path, "value", (a, b)))
    return out


def _read_json(path, what):
    """JSON content of ``path``; an unreadable file raises ManifestError."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{what} unreadable: {exc}") from exc


def reproduce(result_path):
    """Re-run the embedded manifest and compare payloads and artifact hashes exactly.

    Returns (ok, drift_list).  Raises ManifestError when the result is
    unreadable or its manifest invalid.
    """
    stored = _read_json(result_path, "result")
    try:
        manifest, stored_hash, stored_payload, stored_artifacts = (
            stored["manifest"], stored["manifest_hash"], stored["payload"], stored["artifacts"])
    except (KeyError, TypeError) as exc:
        raise ManifestError(
            f"result lacks its manifest, hash, payload or artifacts: {exc!r}") from exc
    if manifest_hash(manifest) != stored_hash:
        return False, [("manifest_hash", "value", (stored_hash, manifest_hash(manifest)))]
    with tempfile.TemporaryDirectory() as tmp:
        fresh = _read_json(run_manifest(manifest, tmp), "result")
    drift = _diff_payload(stored_payload, fresh["payload"])
    _diff_payload(stored_artifacts, fresh["artifacts"], "artifacts", drift)
    return (len(drift) == 0), drift


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="aphomog",
        description="homogenization lab: manifest-driven pipelines")
    parser.add_argument("--log-level", default="WARNING", type=str.upper,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"))
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run", help="execute one manifest")
    p_run.add_argument("--manifest", required=True)
    p_run.add_argument("--out", default=None,
                       help="output directory (or APHOMOG_OUT, default ./out)")
    p_rep = sub.add_parser("reproduce", help="re-run a result and compare")
    p_rep.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level)

    # one error mapping for both modes: bad input exits 2, a failed compute 3
    try:
        if args.mode == "run":
            run_manifest(_read_json(args.manifest, "manifest"),
                         args.out or os.environ.get("APHOMOG_OUT", "out"))
            return 0
        ok, drift = reproduce(args.result)
    except ManifestError as exc:
        print(json.dumps({"error": "manifest invalid", "detail": str(exc)}))
        return 2
    except OSError as exc:      # reads raise ManifestError: this is --out
        print(json.dumps({"error": "output unwritable",
                          "detail": f"{type(exc).__name__}: {exc}"}))
        return 2
    except (NonConverged, ValueError, ArithmeticError, MemoryError) as exc:
        print(json.dumps({"error": "compute failure",
                          "detail": f"{type(exc).__name__}: {exc}"}))
        return 3
    if ok:
        print("reproduce: payloads and artifacts match")
        return 0
    stored = _read_json(args.result, "result").get("environment")
    stored = stored if isinstance(stored, dict) else {}
    print(json.dumps({"error": "drift", "items":
                      [{"path": p, "kind": k, "values": list(v) if v else None}
                       for p, k, v in drift[:50]],
                      "environment": [k for k, v in sorted(_ENVIRONMENT.items())
                                      if stored.get(k) != v]}))
    return 4


if __name__ == "__main__":
    sys.exit(main())
