"""Batch front door: manifest-driven pipelines with reproducible artifacts.

One manifest describes one pipeline run (composition belongs in shell
scripts).  Every artifact embeds the manifest, its hash, the seed, and
tool/environment metadata; floats are serialized with 17 significant
digits and stable key ordering so ``reproduce`` can re-run the embedded
manifest and compare payloads exactly.

Exit codes: 0 success, 2 unreadable input, manifest schema violation or a
NaN or infinity in params or field, 3 compute failure, 4 reproduction drift.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import pathlib
import sys
import tempfile
import threading
import time
from importlib.metadata import version as pkg_version

import numpy as np
import jsonschema
from jsonschema.exceptions import best_match

from . import correctors as C
from . import experiments as E
from . import fields as F
from . import metrics as M
from .errors import NonConverged
from .grids import Box, save_grid_function, window_mean

log = logging.getLogger("aphomog")

COMMANDS = ("corrector", "homogenize", "rho", "theta", "discrepancy",
            "rate", "holder", "flux")

MANIFEST_SCHEMA = {
    "type": "object",
    "required": ["command", "seed", "params"],
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "seed": {"type": "integer"},
        "params": {"type": "object"},
        "field": {"type": "object"},
        "out_dir": {"type": "string"},
    },
    "additionalProperties": False,
}

_FIELD_COMMANDS = {"corrector", "homogenize", "rho", "rate", "holder", "flux"}


_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_POSITIVE_OR_NULL = {"type": ["number", "null"], "exclusiveMinimum": 0}
_NONNEGATIVE = {"type": "number", "minimum": 0}
_COUNT = {"type": "integer", "minimum": 1}
_COUNT_OR_NULL = {"type": ["integer", "null"], "minimum": 1}
_T = {"type": "number", "minimum": 1}


def _list_of(item):
    return {"type": "array", "minItems": 1, "items": item}


def _params(required, properties):
    return {"type": "object", "required": required, "properties": properties,
            "additionalProperties": False}


_CORRECTOR_PARAMS = _params(["T"], {
    "T": _T, "h": _POSITIVE_OR_NULL, "buffer": _NONNEGATIVE,
    "bc": {"enum": ["auto", "periodic", "truncated"]}, "tol": _POSITIVE})

# per-command params, checked by validate_manifest before any compute
PARAMS_SCHEMAS = {
    "corrector": _CORRECTOR_PARAMS,
    "homogenize": _CORRECTOR_PARAMS,
    "rho": _params(["R_list"], {
        "R_list": _list_of(_POSITIVE), "y_samples": _COUNT_OR_NULL,
        "test_points": _COUNT_OR_NULL, "z_spacing": _POSITIVE_OR_NULL,
        "norm": {"enum": ["inf", "euclid"]}}),
    "theta": _params(["lambda", "R_list", "ell"], {
        "lambda": _list_of({"type": "number"}), "R_list": _list_of(_POSITIVE),
        "ell": {"anyOf": [_COUNT, _list_of(_COUNT)]}}),
    "discrepancy": _params(["lambda", "R", "ell"], {
        "lambda": _list_of({"type": "number"}), "R": _COUNT, "ell": _COUNT,
        "H_list": _list_of(_COUNT)}),
    "rate": _params(["eps_list"], {
        "eps_list": _list_of(_POSITIVE), "corrector_h": _POSITIVE_OR_NULL,
        "tol": _POSITIVE, "boundary_corrector": {"type": "boolean"}}),
    "holder": _params(["eps_list"], {
        "eps_list": _list_of(_POSITIVE), "corrector_h": _POSITIVE_OR_NULL,
        "sigma": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}}),
    "flux": _params(["T_list"], {
        "T_list": _list_of(_T), "h": _POSITIVE_OR_NULL, "buffer": _NONNEGATIVE,
        "region_factor": _POSITIVE, "tol": _POSITIVE}),
}


# built once (jsonschema.validate checks the schema itself on every call);
# best_match picks the error that jsonschema.validate would raise
_MANIFEST_VALIDATOR = jsonschema.Draft202012Validator(MANIFEST_SCHEMA)
_PARAMS_VALIDATORS = {cmd: jsonschema.Draft202012Validator(schema)
                      for cmd, schema in PARAMS_SCHEMAS.items()}


class ManifestError(ValueError):
    pass


def _check_finite(obj, path):
    """Raise ManifestError at the first NaN or infinity inside ``obj``."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ManifestError(f"{path}: non-finite number {obj!r}")
    if isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _check_finite(v, f"{path}[{i}]")


def validate_manifest(manifest):
    exc = best_match(_MANIFEST_VALIDATOR.iter_errors(manifest))
    if exc is not None:
        raise ManifestError(str(exc.message)) from exc
    # JSON Schema "number" admits NaN and infinity, which json.load reads
    for key in ("params", "field"):
        _check_finite(manifest.get(key), key)
    exc = best_match(_PARAMS_VALIDATORS[manifest["command"]].iter_errors(manifest["params"]))
    if exc is not None:
        raise ManifestError(f"params{exc.json_path[1:]}: {exc.message}") from exc
    if manifest["command"] in _FIELD_COMMANDS and "field" not in manifest:
        raise ManifestError(f"command {manifest['command']!r} needs a field config")


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


def _atomic_write(path, write):
    """Create ``path`` by calling ``write(tmp_path)`` on a sibling temp file, then renaming.

    The temp name is unique per process and thread.  The writer creates the
    file, so it gets the umask's permissions (``mkstemp`` would give 0600).
    """
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _text(text):
    """Writer of ``text`` as UTF-8 for :func:`_atomic_write`."""
    return lambda path: pathlib.Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# pipelines


def _field_from(manifest):
    try:
        field = F.field_from_config(manifest["field"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"invalid field config: {type(exc).__name__}: {exc}") from exc
    F.certify_ellipticity(field, rng_seed=int(manifest["seed"]))
    return field


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


def _corrector_from(manifest):
    """Solve the correctors of the manifest; shared by corrector and homogenize."""
    p = manifest["params"]
    h, buffer, tol = _solver_params(p)
    return C.solve_corrector(_field_from(manifest), float(p["T"]), h=h,
                             buffer=buffer, bc=p.get("bc", "auto"), tol=tol)


def _run_corrector(manifest, write):
    cset = _corrector_from(manifest)
    payload = _corrector_payload(cset)
    for j in range(cset.d):
        for b in range(cset.m):
            write(f"corrector_chi_j{j}_b{b}.bin",
                  functools.partial(save_grid_function, cset.chi[j][b]))
    summary = f"corrector T={cset.T:g} mode={cset.mode} sup={payload['sup_norm']:.6g}"
    return payload, summary


def _run_homogenize(manifest, write):
    cset = _corrector_from(manifest)
    hm = C.homogenized_matrix(cset)
    payload = {
        "ahat": hm.tensor.tolist(),
        "source": list(hm.source),
        "sym_eig_min": hm.sym_eig_min,
        "sym_eig_max": hm.sym_eig_max,
        "ellipticity_ok": hm.ellipticity_ok,
        "corrector": _corrector_payload(cset),
    }
    summary = f"homogenize T={cset.T:g} ahat[0,0]={hm.tensor[0, 0, 0, 0]:.9g}"
    return payload, summary


def _run_rho(manifest, write):
    field = _field_from(manifest)
    p = manifest["params"]
    rep = M.rho_ladder(field, p["R_list"],
                       y_samples=p.get("y_samples"),
                       z_grid_spacing=p.get("z_spacing"),
                       test_points=p.get("test_points"),
                       norm=p.get("norm", "inf"),
                       rng_seed=int(manifest["seed"]))
    if rep.values.size >= 3 and np.all(rep.values > 0):
        rep.fit()
    write("rho.csv", rep.to_csv)
    payload = {"report": rep.as_dict()}
    summary = (f"rho R in [{rep.parameters[0]:g}, {rep.parameters[-1]:g}] "
               f"exponent={rep.fitted_exponent}")
    return payload, summary


def _run_theta(manifest, write):
    p = manifest["params"]
    rep = M.theta_ladder(p["lambda"], p["R_list"], p["ell"])
    if rep.values.size >= 3 and np.all(rep.values > 0):
        rep.fit()
    write("theta.csv", rep.to_csv)
    payload = {"report": rep.as_dict()}
    summary = f"theta ladder exponent={rep.fitted_exponent}"
    return payload, summary


def _run_discrepancy(manifest, write):
    p = manifest["params"]
    pset = M.kronecker_point_set(p["lambda"], int(p["R"]), int(p["ell"]))
    exact = M.discrepancy_exact(pset) if pset.dimension <= 2 else None
    bounds = {str(H): M.etk_bound(pset, int(H)) for H in p.get("H_list", [4, 16, 64])}
    payload = {"N": pset.size, "dimension": pset.dimension,
               "exact": exact, "etk_bounds": bounds,
               "covering_bound": None if exact is None
               else M.covering_from_discrepancy(exact, pset.dimension),
               "provenance": pset.provenance}
    summary = f"discrepancy N={pset.size} exact={exact}"
    return payload, summary


def _run_rate(manifest, write):
    field = _field_from(manifest)
    p = manifest["params"]
    exp = E.rate_experiment(field, p["eps_list"],
                            corrector_h=p.get("corrector_h"),
                            tol=float(p.get("tol", 1e-9)),
                            include_boundary_corrector=bool(
                                p.get("boundary_corrector", False)))
    lines = ["eps,cells,L2_plain,L2_corrected,H1_plain,H1_corrected"]
    for r in exp.rows:
        lines.append(f"{r['eps']:.17g},{r['cells']},{r['L2_plain']:.17g},"
                     f"{r['L2_corrected']:.17g},{r['H1_plain']:.17g},"
                     f"{r['H1_corrected']:.17g}")
    write("rate.csv", _text("\n".join(lines) + "\n"))
    payload = exp.as_dict()
    if exp.floor_limited:
        summary = "rate: floor-limited (errors at solver floor)"
    else:
        slope = exp.fitted.get("L2_plain", {}).get("slope")
        summary = f"rate: fitted L2 slope={slope}"
    return payload, summary


def _run_holder(manifest, write):
    field = _field_from(manifest)
    p = manifest["params"]
    rep = E.holder_uniformity(field, p["eps_list"], sigma=float(p.get("sigma", 0.5)),
                              corrector_h=p.get("corrector_h"),
                              rng_seed=int(manifest["seed"]))
    payload = rep
    summary = f"holder sigma={rep['sigma']} uniformity_ratio={rep['uniformity_ratio']:.4g}"
    return payload, summary


def _run_flux(manifest, write):
    field = _field_from(manifest)
    p = manifest["params"]
    h, buffer, tol = _solver_params(p)
    reports = []
    for T in p["T_list"]:
        T = float(T)
        cset = C.solve_corrector(field, T, h=h, buffer=buffer, tol=tol)
        region = None
        if cset.mode == "truncated":
            region = Box.cube(float(p.get("region_factor", 9.0)) * T, d=field.d)
        flux = C.flux_tensor(cset, region=region)
        _, rep = C.solve_flux_corrector(flux, tol=tol)
        rep["mean_abs"] = float(np.max(np.abs(flux.mean)))
        reports.append(rep)
    payload = {"reports": reports}
    summary = f"flux T ladder n={len(reports)} last sup_f_scaled=" \
              f"{reports[-1]['sup_f_scaled']:.4g}"
    return payload, summary


_PIPELINES = {
    "corrector": _run_corrector,
    "homogenize": _run_homogenize,
    "rho": _run_rho,
    "theta": _run_theta,
    "discrepancy": _run_discrepancy,
    "rate": _run_rate,
    "holder": _run_holder,
    "flux": _run_flux,
}


def run_manifest(manifest, out_dir, threads=None):
    """Validate, dispatch, and write the result artifact atomically.

    Returns the path of the result JSON.  Raises ManifestError on schema
    violations; compute failures propagate.  ``threads`` has no effect
    (the benchmark harness passes it).
    """
    t0 = time.perf_counter()
    validate_manifest(manifest)
    os.makedirs(out_dir, exist_ok=True)
    np.random.seed(int(manifest["seed"]) % (2 ** 31))   # guards stray global draws
    written = []

    def write(name, writer):
        """Write companion file ``name`` of ``out_dir`` atomically and record it."""
        _atomic_write(os.path.join(out_dir, name), writer)
        written.append(name)

    payload, summary = _PIPELINES[manifest["command"]](manifest, write)
    artifacts = {}
    for name in sorted(set(written)):
        with open(os.path.join(out_dir, name), "rb") as f:
            artifacts[name] = hashlib.sha256(f.read()).hexdigest()
    result = {
        "tool": {"name": "aphomog", "version": _tool_version()},
        "manifest": manifest,
        "manifest_hash": manifest_hash(manifest),
        "seed": manifest["seed"],
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "payload": payload,
        "artifacts": artifacts,      # sha256 of companion files (CSV, binaries)
    }
    path = os.path.join(out_dir, f"{manifest['command']}_result.json")
    _atomic_write(path, _text(dumps_canonical(result) + "\n"))
    log.info("run_manifest command=%s wall_s=%.3f result=%s",
             manifest["command"], time.perf_counter() - t0, path)
    print(summary + f" -> {path}")
    return path


def _tool_version():
    try:
        return pkg_version("aphomog")
    except Exception:
        return "0.0.0+local"


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
    """Re-run the embedded manifest and compare payloads exactly.

    Returns (ok, drift_list).  Raises ManifestError when the result is
    unreadable or its manifest invalid.
    """
    stored = _read_json(result_path, "result")
    try:
        manifest, stored_hash, stored_payload = (stored["manifest"], stored["manifest_hash"],
                                                 stored["payload"])
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"result lacks its manifest, hash or payload: {exc!r}") from exc
    if manifest_hash(manifest) != stored_hash:
        return False, [("manifest_hash", "value", (stored_hash, manifest_hash(manifest)))]
    with tempfile.TemporaryDirectory() as tmp:
        new_path = run_manifest(manifest, tmp)
        with open(new_path, encoding="utf-8") as f:
            fresh = json.load(f)
    drift = _diff_payload(stored_payload, fresh["payload"])
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
    except (NonConverged, ValueError, ArithmeticError) as exc:
        print(json.dumps({"error": "compute failure",
                          "detail": f"{type(exc).__name__}: {exc}"}))
        return 3
    if ok:
        print("reproduce: payloads match")
        return 0
    print(json.dumps({"error": "drift", "items":
                      [{"path": p, "kind": k, "values": list(v) if v else None}
                       for p, k, v in drift[:50]]}))
    return 4


if __name__ == "__main__":
    sys.exit(main())
