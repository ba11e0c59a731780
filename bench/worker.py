"""One benchmark sample, run in a fresh Python process.

    python3 bench/worker.py REQUEST.json

The request names a mode and, for ``setup`` and ``run``, a manifest:

- ``env``: import the package and report the environment record;
- ``setup``: time ``import aphomog`` plus loading and validating the
  manifest, then exit;
- ``run``: the same set-up, then time ``run_manifest`` (wall, CPU of the
  whole process, peak RSS); with ``trace`` set, the layer spans are
  recorded and reduced to per-layer metrics.

The report is written as JSON to ``request["report"]``.  A failing
``run_manifest`` propagates, so the process exits nonzero.  The package is
imported from ``src/`` of the checkout that holds this file, never from
site-packages.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _cpu_s():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _environment():
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(request_path):
    with open(request_path, encoding="utf-8") as f:
        req = json.load(f)
    sys.path.insert(0, SRC)
    report = {}

    t0 = time.perf_counter()
    import aphomog
    from aphomog import cli
    if req["mode"] != "env":
        with open(req["manifest"], encoding="utf-8") as f:
            manifest = json.load(f)
        cli.validate_manifest(manifest)
    report["setup_s"] = time.perf_counter() - t0
    if not os.path.abspath(aphomog.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported aphomog from {aphomog.__file__}, not {SRC}")

    if req["mode"] == "env":
        report["environment"] = _environment()
    elif req["mode"] == "run":
        restore = None
        if req.get("trace"):
            import tracer  # bench/ is sys.path[0] when run as a script
            recorder = tracer.Recorder()
            restore = tracer.instrument(recorder)
        cpu0 = _cpu_s()
        t1 = time.perf_counter()
        result_path = cli.run_manifest(manifest, req["out_dir"], threads=req.get("threads"))
        report["wall_s"] = time.perf_counter() - t1
        report["cpu_s"] = _cpu_s() - cpu0
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["result_path"] = result_path
        if restore is not None:
            restore()
            report["layers"] = tracer.layer_metrics(recorder.spans)
    with open(req["report"], "w", encoding="utf-8") as f:
        json.dump(report, f)


if __name__ == "__main__":
    main(sys.argv[1])
