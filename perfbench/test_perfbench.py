"""Tests of the benchmark's own arithmetic and checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import checks
import spans
from workloads import INPUT_SETS, WORKLOADS, Sweep

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------


def span(i, parent, name, start, end, attrs=None):
    return [i, parent, name, start, end, attrs]


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([], 0.0, 1.0) == 0.0
    assert spans.covered_length([(0.1, 0.3), (0.2, 0.5), (0.7, 0.8)], 0.0, 1.0) == pytest.approx(0.5)
    assert spans.covered_length([(-1.0, 0.25), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.35)
    assert spans.covered_length([(0.2, 0.4), (0.25, 0.3)], 0.0, 1.0) == pytest.approx(0.2)


def test_self_time_subtracts_sequential_children():
    doc = [span(1, None, "harness.run_sweep", 0.0, 10.0),
           span(2, 1, "norms.generator_stats", 1.0, 4.0),
           span(3, 2, "sdp.solve_sdp", 1.5, 3.5),
           span(4, 1, "lindblad.exact_channel", 5.0, 6.0)]
    own = spans.self_times(doc)
    assert own[1] == pytest.approx(6.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(1.0)


def test_self_time_counts_parallel_children_once():
    # two pool workers run children of the same parent at once
    doc = [span(1, None, "harness.run_sweep", 0.0, 10.0),
           span(2, 1, "sdp.solve_sdp", 1.0, 6.0),
           span(3, 1, "sdp.solve_sdp", 2.0, 8.0)]
    own = spans.self_times(doc)
    assert own[1] == pytest.approx(3.0)
    metrics = spans.layer_metrics({"spans": doc, "missing": []})
    assert metrics["sdp.solve_sdp.self_s"] == pytest.approx(11.0)
    assert metrics["harness.run_sweep.self_s"] == pytest.approx(3.0)
    assert spans.dominant_layer(metrics) == "sdp"


def test_layer_metrics_counts_and_ratios():
    doc = {"missing": ["forking.fork_s1_run"], "spans": [
        span(1, None, "norms.diamond_norm_solution", 0.0, 0.010, {"iterations": 12, "gap": 1e-9}),
        span(2, 1, "sdp.solve_sdp", 0.001, 0.009, {"iterations": 12, "gap": 1e-9}),
        span(3, None, "norms.diamond_norm_solution", 0.020, 0.050, {"iterations": 15, "gap": 3e-9}),
        span(4, 3, "sdp.solve_sdp", 0.021, 0.049, {"iterations": 15, "gap": 3e-9}),
        span(5, None, "lindblad.constituent_channel", 0.1, 0.2, {"key": [0, 1, 0.5, True]}),
        span(6, 5, "linalg.mat_exp", 0.12, 0.18),
        span(7, None, "lindblad.constituent_channel", 0.3, 0.4, {"key": [0, 1, 0.5, True]}),
        span(8, None, "lindblad.constituent_channel", 0.5, 0.6, {"key": [0, 2, 0.5, True]}),
        span(9, None, "lindblad.constituent_channel", 0.7, 0.8, {"key": [0, 2, 0.5, True]}),
    ]}
    m = spans.layer_metrics(doc)
    assert m["norms.diamond_norm.calls"] == 2
    assert m["sdp.solve_sdp.iterations"] == 27
    assert m["norms.diamond_norm.gap_max"] == pytest.approx(3e-9)
    assert m["norms.diamond_norm.ms_p50"] == pytest.approx(20.0)
    assert m["norms.diamond_norm.self_s"] == pytest.approx(0.004)
    assert m["lindblad.constituent_channel.calls"] == 4
    assert m["lindblad.constituent_channel.unique_frac"] == pytest.approx(0.5)
    assert m["lindblad.constituent_channel.self_s"] == pytest.approx(0.34)
    assert m["linalg.mat_exp.calls"] == 1
    assert m["forking.runs.calls"] == 0
    assert m["trace.missing_layers"] == 1


def test_recorder_links_worker_spans_to_the_waiting_span():
    rec = spans.Recorder("t")
    leaf = rec.wrap("sdp.solve_sdp", lambda: None)

    def fan_out():
        workers = [threading.Thread(target=leaf) for _ in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)
        leaf()

    rec.wrap("harness.run_sweep", fan_out)()
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s[2], []).append(s)
    (root,) = by_name["harness.run_sweep"]
    assert root[1] is None
    assert len(by_name["sdp.solve_sdp"]) == 4
    assert all(s[1] == root[0] for s in by_name["sdp.solve_sdp"])


def test_install_reports_missing_layer_functions(tmp_path, monkeypatch):
    pkg = tmp_path / "fakesim"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("def main(argv=None):\n    return 0\n")
    (pkg / "sdp.py").write_text("solve_sdp = None\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    rec = spans.Recorder("t")
    missing = rec.install("fakesim")
    assert "sdp.solve_sdp" in missing and "harness.run_sweep" in missing
    assert "cli.main" not in missing
    import fakesim.cli
    assert fakesim.cli.main([]) == 0
    assert [s[2] for s in rec.spans] == ["cli.main"]
    metrics = spans.layer_metrics({"spans": [list(s) for s in rec.spans], "missing": missing})
    assert metrics["trace.missing_layers"] == len(missing)


def test_traced_cli_run_records_layers(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text("[experiment]\nmodel = amp_damp\nmethods = s1_det s2_det\nt = 1.0\n"
                      f"n_grid = 4 8\nseed = 1\noutputs = {tmp_path / 'out'}\n")
    dump = tmp_path / "spans.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "spans.py"), "--out", str(dump),
                    "--", "sweep", str(config)], env=env, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    doc = json.loads(dump.read_text())
    assert doc["missing"] == []
    names = {s[2] for s in doc["spans"]}
    assert {"cli.main", "harness.run_sweep", "norms.generator_stats", "sdp.solve_sdp",
            "lindblad.constituent_channel", "linalg.mat_exp", "formulas.s2_det"} <= names
    ids = {s[0]: s for s in doc["spans"]}
    sweep_id = next(s[0] for s in doc["spans"] if s[2] == "harness.run_sweep")
    for s in doc["spans"]:
        if s[2] == "norms.diamond_norm":  # bound by name in harness, called on pool workers
            chain = s
            while chain[1] is not None:
                chain = ids[chain[1]]
                if chain[0] == sweep_id:
                    break
            assert chain[0] == sweep_id
    metrics = spans.layer_metrics(doc)
    assert metrics["norms.diamond_norm.calls"] == 4 + 4  # generator_stats + points
    assert 0 < metrics["norms.diamond_norm.gap_max"] <= 1e-7


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

HEADER = "method,n,epsilon_bound,epsilon_empirical,trace_dist,gates_cs,gates_qf,status,wall_time_ms"
POINTS = [("s1_det", 8), ("qdrift", 8)]
REFERENCE = {"s1_det/8": 0.0123456789, "qdrift/8": 0.0456}


def write_csv(path, rows, sampled=False):
    header = HEADER + (",stat_err" if sampled else "")
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


def row(method, n, eps, bound=1.0, status="ok", stat_err=None):
    cells = [method, str(n), repr(bound), repr(eps), "0.001", "8", "", status, "12"]
    if stat_err is not None:
        cells.append(repr(stat_err))
    return ",".join(cells)


def test_sweep_check_accepts_reference_values(tmp_path):
    path = write_csv(tmp_path / "s.csv", [row("s1_det", 8, 0.0123456789 + 4e-7),
                                          row("qdrift", 8, 0.0456)])
    out = checks.check_sweep(POINTS, 0, path, REFERENCE, sampled=False)
    assert (out.attempted, out.failed) == (2, 0)


def test_sweep_check_rejects_perturbed_epsilon(tmp_path):
    path = write_csv(tmp_path / "s.csv", [row("s1_det", 8, 0.0123456789 * (1 + 1e-3)),
                                          row("qdrift", 8, 0.0456)])
    out = checks.check_sweep(POINTS, 0, path, REFERENCE, sampled=False)
    assert (out.attempted, out.failed) == (2, 1)
    assert out.problems[0].startswith("s1_det/8")


@pytest.mark.parametrize("rows, failed", [
    ([row("s1_det", 8, 0.0123456789, bound=0.01), row("qdrift", 8, 0.0456)], 1),  # over bound
    ([row("s1_det", 8, 0.0123456789, status="error: boom"), row("qdrift", 8, 0.0456)], 1),
    ([row("s1_det", 8, 0.0123456789)], 1),  # a point is missing
    ([row("s1_det", 8, float("nan")), row("qdrift", 8, 0.0456)], 1),
])
def test_sweep_check_rejects_bad_points(tmp_path, rows, failed):
    out = checks.check_sweep(POINTS, 0, write_csv(tmp_path / "s.csv", rows), REFERENCE, False)
    assert (out.attempted, out.failed) == (2, failed)


def test_sweep_check_fails_every_point_of_a_broken_run(tmp_path):
    path = write_csv(tmp_path / "s.csv", [row("s1_det", 8, 0.0123456789), row("qdrift", 8, 0.0456)])
    assert checks.check_sweep(POINTS, 1, path, REFERENCE, False).failed == 2
    assert checks.check_sweep(POINTS, 0, str(tmp_path / "absent.csv"), REFERENCE, False).failed == 2
    (tmp_path / "bad.csv").write_text("method,n\ns1_det,eight\n")
    assert checks.check_sweep(POINTS, 0, str(tmp_path / "bad.csv"), REFERENCE, False).failed == 2


def test_sampled_check_is_statistical(tmp_path):
    ref = {"qdrift/8": 0.05}
    inside = write_csv(tmp_path / "a.csv", [row("qdrift", 8, 0.05 + 4.9e-3, stat_err=1e-3)], True)
    outside = write_csv(tmp_path / "b.csv", [row("qdrift", 8, 0.05 + 5.1e-3, stat_err=1e-3)], True)
    assert checks.check_sweep([("qdrift", 8)], 0, inside, ref, sampled=True).failed == 0
    assert checks.check_sweep([("qdrift", 8)], 0, outside, ref, sampled=True).failed == 1


VALIDATE_OUT = """\
PASS  forking/matches_exact_mixture    max trace distance 1.2e-16
{flag}  forking/work_state_independence  max trace distance 3.0e-17
PASS  forking/trace_distance_bounds    first-order and rate-weighted bounds hold
OK: 3/3 checks passed
"""
FORKING = WORKLOADS["validate_forking"].checks


def test_validate_check_accepts_all_pass():
    out = checks.check_validate(FORKING, 0, VALIDATE_OUT.format(flag="PASS"))
    assert (out.attempted, out.failed) == (3, 0)


def test_validate_check_rejects_a_failed_line():
    out = checks.check_validate(FORKING, 0, VALIDATE_OUT.format(flag="FAIL"))
    assert (out.attempted, out.failed) == (3, 1)
    assert "work_state_independence" in out.problems[0]


def test_validate_check_rejects_missing_checks_and_bad_exits():
    partial = "PASS  forking/matches_exact_mixture  ok\n"
    assert checks.check_validate(FORKING, 0, partial).failed == 2
    assert checks.check_validate(FORKING, 0, "").failed == 3
    assert checks.check_validate(FORKING, 1, VALIDATE_OUT.format(flag="PASS")).failed == 3


# ---------------------------------------------------------------------------
# workloads and reference
# ---------------------------------------------------------------------------


def test_generated_configs_load(tmp_path):
    from lindsim.harness import load_experiment

    for workload in WORKLOADS.values():
        if not isinstance(workload, Sweep):
            continue
        path = tmp_path / f"{workload.name}.ini"
        path.write_text(workload.config(3, str(tmp_path / "out")))
        spec = load_experiment(str(path))
        assert spec.model == workload.model(3)
        assert spec.sampled == workload.sampled
        assert [m.value for m in spec.methods] == list(workload.methods)
        assert spec.n_grid == workload.n_grid


def test_reference_covers_every_input_set():
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for workload in WORKLOADS.values():
        if not isinstance(workload, Sweep):
            continue
        assert len(reference[workload.name]) == INPUT_SETS
        for index in range(INPUT_SETS):
            entry = reference[workload.name][str(index)]
            assert entry["model"] == workload.model(index)
            assert set(entry["eps"]) == {f"{m}/{n}" for m, n in workload.points()}


def test_benchmark_json_matches_the_code():
    from run import metric_unit

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in doc["workloads"]]
    assert gated == [name for name in WORKLOADS if name != "sweep_mixture_m6"]
    assert [w["why"] for w in doc["workloads"]] == [WORKLOADS[name].why for name in gated]
    assert [m["name"] for m in doc["per_layer"]] == (
        list(spans.layer_metrics({"spans": [], "missing": []})) + ["trace.overhead_frac"])
    assert [m["name"] for m in doc["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert metric["unit"] == metric_unit(metric["name"])
