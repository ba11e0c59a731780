"""Benchmark workloads: one CLI manifest each, plus the checks on its output.

Every workload is a manifest for ``aphomog.cli.run_manifest``.  The
benchmark seed becomes the manifest ``seed``; nothing else depends on it,
so the same seed always gives the same manifest.  This module imports
nothing from ``aphomog``: ``run.py`` builds manifests and checks result
payloads without paying the package import.

Sizes are chosen so that one manifest runs in about 1-3 s on a 2-core
x86 box; a benchmark run then holds several samples and reports their
median.  Why each workload exists is in ``bench/README.md``.
"""

from __future__ import annotations

import json
import math
import os

PHI = (1.0 + math.sqrt(5.0)) / 2.0
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# The seed whose outputs are stored under bench/reference/.
DEFAULT_SEED = 0
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

# Stated accuracy bounds of the output checks.
ENERGY_RESIDUAL_MAX = 1e-2        # corrector-2d: relative energy-identity residual
AHAT_SQRT3_TOL = 5e-3             # rate-2d: |ahat_entry - sqrt(3)| on every rung
# Relative tolerance against the stored reference outputs.  Quantities that
# pass through a Krylov solve at tol 1e-9 may move when the solver changes
# (preconditioner, reduction order); rho involves no solve.
REFERENCE_RTOL = {"corrector-2d": 1e-3, "rho-golden": 1e-9, "rate-2d": 1e-3}


def _term(frequency, cos, sin=0.0):
    return {"frequency": list(frequency), "cos": cos, "sin": sin}


def quasi_periodic_2d_field():
    """a(x) = 2 + 1/2 cos 2pi(x1 + x2) + 1/2 cos 2pi(phi x1 + sqrt2 x2).

    Torus dimension 4 with layout [[1, phi], [1, sqrt2]]: the torus point
    of x is (x1, phi x1, x2, sqrt2 x2).
    """
    return {"variant": "quasi_periodic", "d": 2, "m": 1,
            "layout": [[1.0, PHI], [1.0, SQRT2]],
            "torus_terms": [_term([0, 0, 0, 0], 2.0),
                            _term([1, 0, 1, 0], 0.5),
                            _term([0, 1, 0, 1], 0.5)]}


def golden_field():
    """2 + cos(2pi x) cos(2pi phi x), the package's ``golden_ratio_field``."""
    return {"variant": "quasi_periodic", "d": 1, "m": 1,
            "layout": [[1.0, PHI]],
            "torus_terms": [_term([0, 0], 2.0),
                            _term([1, 1], 0.5),
                            _term([1, -1], 0.5)]}


def laminate_field():
    """a(y) = 2 + sin(2pi y1) times the identity; ahat_11 = sqrt(3)."""
    return {"variant": "trig_polynomial", "d": 2, "m": 1,
            "terms": [_term([0, 0], 2.0), _term([1, 0], 0.0, 1.0)]}


def oscillation_bound(field):
    """Upper bound on sup A - inf A: twice the sum of |coefficients| of
    the non-constant terms of a scalar trigonometric field config."""
    terms = field.get("torus_terms", field.get("terms"))
    total = 0.0
    for t in terms:
        if any(t["frequency"]):
            total += abs(float(t["cos"])) + abs(float(t["sin"]))
    return 2.0 * total


WORKLOADS = {
    "corrector-2d": {
        "command": "homogenize",
        "field": quasi_periodic_2d_field(),
        # buffered-Dirichlet route: side (2*1+1)*4 = 12, 192^2 cells
        "params": {"T": 4, "h": 0.0625, "buffer": 1, "bc": "truncated",
                   "tol": 1e-9},
    },
    "rho-golden": {
        "command": "rho",
        "field": golden_field(),
        "params": {"R_list": [2, 4, 8, 16, 32], "z_spacing": 0.015625,
                   "test_points": 1024},
    },
    "rate-2d": {
        "command": "rate",
        "field": laminate_field(),
        # eps 1 ... 1/8 gives 32^2 ... 256^2 cells; periodic-route corrector
        "params": {"eps_list": [1, 0.5, 0.25, 0.125], "corrector_h": 0.015625,
                   "tol": 1e-9},
    },
}


def manifest(workload, seed):
    """The CLI manifest of ``workload`` for benchmark seed ``seed``."""
    spec = WORKLOADS[workload]
    return {"command": spec["command"], "seed": int(seed),
            "field": json.loads(json.dumps(spec["field"])),
            "params": dict(spec["params"])}


# ---------------------------------------------------------------------------
# output checks


def observables(workload, payload):
    """The numbers compared against the stored reference, by name."""
    if workload == "corrector-2d":
        out = {f"ahat[{i}][{j}]": payload["ahat"][i][j][0][0]
               for i in range(2) for j in range(2)}
        out["sym_eig_min"] = payload["sym_eig_min"]
        out["sym_eig_max"] = payload["sym_eig_max"]
        out["sup_norm"] = payload["corrector"]["sup_norm"]
        return out
    if workload == "rho-golden":
        rep = payload["report"]
        return {f"rho[R={r:g}]": v for r, v in zip(rep["parameters"], rep["values"])}
    if workload == "rate-2d":
        out = {}
        for row in payload["rows"]:
            for key in ("ahat_entry", "L2_plain", "L2_corrected",
                        "H1_plain", "H1_corrected"):
                out[f"{key}[eps={row['eps']:g}]"] = row[key]
        return out
    raise KeyError(workload)


def invariant_problems(workload, payload):
    """Seed-independent invariants; returns a list of violations."""
    problems = []
    if workload == "corrector-2d":
        if payload.get("ellipticity_ok") is not True:
            problems.append("ahat fails the ellipticity check")
        rel = [v for row in payload["corrector"]["energy_residual_relative"] for v in row]
        if not rel or max(abs(v) for v in rel) > ENERGY_RESIDUAL_MAX:
            problems.append(f"energy residual {rel} above {ENERGY_RESIDUAL_MAX}")
    elif workload == "rho-golden":
        vals = payload["report"]["values"]
        bound = oscillation_bound(WORKLOADS[workload]["field"])
        if len(vals) != len(WORKLOADS[workload]["params"]["R_list"]):
            problems.append("rho ladder has the wrong length")
        if any(not (0.0 <= v <= bound) for v in vals):
            problems.append(f"rho values {vals} outside [0, {bound}]")
        if any(b > a for a, b in zip(vals, vals[1:])):
            problems.append(f"rho values {vals} increase with R")
    elif workload == "rate-2d":
        rows = payload["rows"]
        if len(rows) != len(WORKLOADS[workload]["params"]["eps_list"]):
            problems.append("rate ladder has the wrong length")
        for row in rows:
            if abs(row["ahat_entry"] - SQRT3) > AHAT_SQRT3_TOL:
                problems.append(f"ahat_entry {row['ahat_entry']} at eps={row['eps']} "
                                f"is not within {AHAT_SQRT3_TOL} of sqrt(3)")
    else:
        raise KeyError(workload)
    return problems


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload):
    with open(reference_path(workload), encoding="utf-8") as f:
        return json.load(f)


def reference_problems(workload, payload, reference):
    """Differences from the stored reference beyond REFERENCE_RTOL."""
    if reference["manifest"] != manifest(workload, DEFAULT_SEED):
        return ["the stored reference was made from another manifest"]
    rtol = REFERENCE_RTOL[workload]
    got = observables(workload, payload)
    want = reference["observables"]
    if set(got) != set(want):
        return [f"observables {sorted(got)} differ from reference {sorted(want)}"]
    return [f"{k} = {got[k]!r}, reference {want[k]!r} (rtol {rtol})"
            for k in sorted(want)
            if not math.isclose(got[k], want[k], rel_tol=rtol, abs_tol=0.0)]


def check_output(workload, seed, payload, reference=None):
    """All problems with one run's result payload; empty means correct.

    Invariants hold for every seed; at DEFAULT_SEED the observables must
    also match ``reference`` (loaded from bench/reference/ when None).
    """
    try:
        problems = invariant_problems(workload, payload)
        if int(seed) == DEFAULT_SEED:
            if reference is None:
                reference = load_reference(workload)
            problems += reference_problems(workload, payload, reference)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems = [f"malformed payload: {type(exc).__name__}: {exc}"]
    return problems
