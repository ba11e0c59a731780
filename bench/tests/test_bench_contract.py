"""Output checks, error accounting and the metric names of BENCHMARK.json."""

import copy
import json
import os

import pytest

import run
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _rho_payload():
    ref = workloads.load_reference("rho-golden")
    R = workloads.WORKLOADS["rho-golden"]["params"]["R_list"]
    return {"report": {"parameters": [float(r) for r in R],
                       "values": [ref["observables"][f"rho[R={r:g}]"] for r in R]}}


def _rate_payload():
    obs = workloads.load_reference("rate-2d")["observables"]
    rows = []
    for eps in workloads.WORKLOADS["rate-2d"]["params"]["eps_list"]:
        row = {"eps": float(eps)}
        for key in ("ahat_entry", "L2_plain", "L2_corrected", "H1_plain", "H1_corrected"):
            row[key] = obs[f"{key}[eps={eps:g}]"]
        rows.append(row)
    return {"rows": rows}


def test_references_match_their_manifests():
    for name in workloads.WORKLOADS:
        ref = workloads.load_reference(name)
        assert ref["manifest"] == workloads.manifest(name, workloads.DEFAULT_SEED)


def test_reference_payloads_pass_for_every_seed():
    for seed in (workloads.DEFAULT_SEED, 7):
        assert workloads.check_output("rho-golden", seed, _rho_payload()) == []
        assert workloads.check_output("rate-2d", seed, _rate_payload()) == []


@pytest.mark.parametrize("corrupt", [
    lambda p: p["report"]["values"].__setitem__(-1, p["report"]["values"][0] * 1.5),
    lambda p: p["report"]["values"].__setitem__(0, -0.1),
    lambda p: p["report"]["values"].__setitem__(0, 5.0),
    lambda p: p["report"].pop("values"),
])
def test_corrupted_rho_output_fails_the_check(corrupt):
    payload = copy.deepcopy(_rho_payload())
    corrupt(payload)
    assert workloads.check_output("rho-golden", 11, payload)


def test_default_seed_compares_against_the_reference():
    payload = _rate_payload()
    payload["rows"][0]["L2_plain"] *= 1.01          # invariants still hold
    assert workloads.invariant_problems("rate-2d", payload) == []
    assert workloads.check_output("rate-2d", 11, payload) == []
    assert workloads.check_output("rate-2d", workloads.DEFAULT_SEED, payload)


def test_rate_ahat_away_from_sqrt3_fails():
    payload = _rate_payload()
    payload["rows"][2]["ahat_entry"] = 1.8
    assert workloads.check_output("rate-2d", 3, payload)


def test_corrector_invariants():
    payload = {"ellipticity_ok": True,
               "corrector": {"energy_residual_relative": [[2e-3], [1e-3]]}}
    assert workloads.invariant_problems("corrector-2d", payload) == []
    payload["ellipticity_ok"] = False
    assert workloads.invariant_problems("corrector-2d", payload)
    payload["ellipticity_ok"] = True
    payload["corrector"]["energy_residual_relative"][1][0] = 0.5
    assert workloads.invariant_problems("corrector-2d", payload)


def test_corrupted_output_counts_in_error_rate(tmp_path, monkeypatch):
    ctx = run.Context("rho-golden", 5, str(tmp_path))
    good = _rho_payload()
    bad = copy.deepcopy(good)
    bad["report"]["values"][2] = 3.0
    payloads = iter([good, bad])

    def fake_worker(request, env=None):
        path = os.path.join(request["out_dir"], "rho_result.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"payload": next(payloads)}, f)
        return {"result_path": path, "wall_s": 1.0, "cpu_s": 1.0,
                "peak_rss_mb": 100.0, "setup_s": 0.5}, ""

    def failing_worker(request, env=None):
        return None, "worker exited 3: NonConverged"

    monkeypatch.setattr(ctx, "worker", fake_worker)
    samples = [ctx.run_sample(), ctx.run_sample()]
    monkeypatch.setattr(ctx, "worker", failing_worker)
    samples.append(ctx.run_sample())
    assert [bool(s["problems"]) for s in samples] == [False, True, True]

    values = run.end_to_end_metrics(run.passed(samples), [0.4])
    res = run.result_object(samples, values, run.END_TO_END.get)
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 3, 2)


def test_printed_metric_names_are_declared():
    spec = _manifest()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    assert set(e2e) == set(run.END_TO_END)
    assert all(e2e[n]["unit"] == u for n, u in run.END_TO_END.items())
    printed = set(tracer.layer_metrics([])) | set(run.PER_LAYER_EXTRA)
    assert set(layer) == printed
    assert all(layer[n]["unit"] == run.per_layer_unit(n) for n in printed)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_per_layer_metrics_from_samples():
    layers = tracer.layer_metrics([])
    traced = [{"wall_s": 2.2, "layers": dict(layers, **{"trace.coverage": c})}
              for c in (0.9, 0.99, 0.98)]
    untraced = [{"wall_s": 2.0}, {"wall_s": 2.1}]
    values = run.per_layer_metrics(untraced, traced, [{"wall_s": 1.0}])
    assert set(values) == set(layers) | set(run.PER_LAYER_EXTRA)
    res = run.result_object([{"problems": []}] * 6, values, run.per_layer_unit)
    assert res["metrics"]["trace.coverage"]["value"] == pytest.approx(0.98)
    assert res["metrics"]["trace.overhead_s"]["value"] == pytest.approx(0.15)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(11))) == (pytest.approx(100 / 11), 0)
    p, v = run.tail_percentile(list(range(100)))
    assert p == pytest.approx(90.0) and v == 89
