import os

import numpy as np
import pytest

from lindsim import lindblad
from lindsim.formulas import Method
from lindsim.harness import (
    ConfigError,
    ExperimentSpec,
    SweepRecord,
    batch_standard_error,
    fit_order,
    load_experiment,
    log_slope,
    resolve_model,
    run_sweep,
    sweep_point_channel,
    table1_report,
    trajectory_batches,
    write_sweep,
)
from lindsim.tolerances import TOL
from lindsim.validation import validate_all

CONFIG = """
[experiment]
model = amp_damp gamma=1.0
methods = s1_det s2_det qdrift
t = 1.0
n_grid = 4 8 16
seed = 42
outputs = {out}
"""


@pytest.fixture
def spec(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG.format(out=tmp_path / "out"))
    return load_experiment(path)


def test_spec_validation():
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentSpec(model="amp_damp", methods=(Method.S1_DET,), t=1.0, seed=0)
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentSpec(model="amp_damp", methods=(Method.S1_DET,), t=1.0,
                       n_grid=(4,), epsilon_grid=(0.1,), seed=0)
    with pytest.raises(ConfigError, match="monotone"):
        ExperimentSpec(model="amp_damp", methods=(Method.S1_DET,), t=1.0,
                       n_grid=(8, 4, 16), seed=0)
    with pytest.raises(ConfigError, match="positive"):
        ExperimentSpec(model="amp_damp", methods=(Method.S1_DET,), t=-1.0,
                       n_grid=(4,), seed=0)
    with pytest.raises(ConfigError, match="initial_state"):
        ExperimentSpec(model="amp_damp", methods=(Method.S1_DET,), t=1.0,
                       n_grid=(4,), seed=0, initial_state="plasma")
    for t in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="^t must be positive and finite$"):
            ExperimentSpec(model="amp_damp", methods=(Method.S1_DET,), t=t, n_grid=(4,), seed=0)
    for eps in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="^epsilon_grid values must be positive and finite$"):
            ExperimentSpec(model="amp_damp", methods=(Method.S1_DET,), t=1.0,
                           epsilon_grid=(0.1, eps), seed=0)


def test_load_experiment_and_model(spec):
    assert spec.methods == (Method.S1_DET, Method.S2_DET, Method.QDRIFT)
    assert spec.n_grid == (4, 8, 16)
    assert spec.trajectories == 1024  # default
    gen = resolve_model(spec)
    assert gen.dim == 2 and gen.m_total == 2


def test_load_experiment_errors(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nmodel = amp_damp\nmethods = warp\nt = 1\nn_grid = 4\nseed = 0\n")
    with pytest.raises(ConfigError, match="unknown method"):
        load_experiment(path)
    path.write_text("[experiment]\nmodel = amp_damp\nt = 1\nn_grid = 4\nseed = 0\n")
    with pytest.raises(ConfigError, match="missing mandatory key 'methods'"):
        load_experiment(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_experiment(tmp_path / "absent.ini")
    for text, message in (
            ("[other]\nmodel = amp_damp\n", r"must contain an \[experiment\] section"),
            ("[experiment]\nmodel =\nmethods = s1_det\nt = 1\nn_grid = 4\nseed = 0\n",
             "model field is empty"),
            ("[experiment]\nmodel = file\nmethods = s1_det\nt = 1\nn_grid = 4\nseed = 0\n",
             "model file form is"),
            ("[experiment]\nmodel = amp_damp gamma\nmethods = s1_det\nt = 1\nn_grid = 4\nseed = 0\n",
             "model parameter 'gamma' is not key=value")):
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            resolve_model(load_experiment(path))


def test_model_from_generator_file(tmp_path):
    gen_path = tmp_path / "model.gen"
    gen_path.write_text(
        "dim 2\nhamiltonian 0,0 0,0 0,0 0,0\njump\nmatrix 0,0 1,0 0,0 0,0\nrate 0.5\nend\n")
    spec = ExperimentSpec(model=f"file {gen_path}", methods=(Method.S1_DET,),
                          t=1.0, n_grid=(4,), seed=0)
    gen = resolve_model(spec)
    assert gen.terms[0][1] == 0.5


def test_sweep_builds_each_term_superoperator_once(tmp_path, monkeypatch):
    # the generator builds its terms at construction: two kron products for
    # -i[H, .] and three per dissipator; no step of the sweep builds one again
    calls = []
    kron = lindblad.kron
    monkeypatch.setattr(lindblad, "kron", lambda a, b: calls.append(1) or kron(a, b))
    spec = ExperimentSpec(model="random d=3 m=4 seed=11", methods=tuple(Method), t=1.0,
                          n_grid=(4, 8, 16, 32, 64), seed=42, outputs=str(tmp_path))
    assert all(r.status == "ok" for r in run_sweep(spec))
    assert len(calls) == 2 + 3 * (4 - 1)


def test_run_sweep_records_and_bounds(spec):
    records = run_sweep(spec)
    assert len(records) == 9
    assert all(r.status == "ok" for r in records)
    for r in records:
        assert r.epsilon_empirical <= r.epsilon_bound
        assert r.trace_dist <= r.epsilon_empirical / 2 + 1e-12
        assert r.gates_cs > 0
    qd = [r for r in records if r.method == Method.QDRIFT]
    assert all(r.gates_qf == 4 * r.n for r in qd)  # (3M-2)N with M=2
    s1 = [r for r in records if r.method == Method.S1_DET]
    assert all(r.gates_qf is None for r in s1)


def test_run_sweep_error_halving_on_noncommuting_model():
    # per-doubling ratios need noncommuting terms; the damped-qubit builtins
    # have exactly commuting term superoperators and zero Trotter error
    spec = ExperimentSpec(model="random d=2 m=3 seed=7",
                          methods=(Method.S1_DET, Method.S2_DET), t=1.0,
                          n_grid=(4, 8, 16), seed=42)
    records = run_sweep(spec)
    by = {(r.method, r.n): r.epsilon_empirical for r in records}
    for n in (4, 8):
        assert 2.0 * 0.8 <= by[(Method.S1_DET, n)] / by[(Method.S1_DET, 2 * n)] <= 2.0 * 1.2
        assert 4.0 * 0.8 <= by[(Method.S2_DET, n)] / by[(Method.S2_DET, 2 * n)] <= 4.0 * 1.2


def test_damped_qubit_product_formulas_are_exact(spec):
    # amp_damp's commutator term and dissipator commute as superoperators,
    # so the product formulas reproduce the exact channel to solver noise
    # (the rate-weighted mixture is not a product and keeps its 1/N error)
    records = run_sweep(spec)
    for r in records:
        if r.method in (Method.S1_DET, Method.S2_DET):
            assert r.epsilon_empirical < 1e-8
        else:
            assert r.epsilon_empirical <= r.epsilon_bound


def test_run_sweep_writes_deterministic_csv(tmp_path):
    outs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.ini"
        path.write_text(CONFIG.format(out=tmp_path / name))
        spec = load_experiment(path)
        write_sweep(spec, run_sweep(spec))
        with open(tmp_path / name / "sweep.csv", encoding="utf-8") as fh:
            outs.append(fh.read())
        assert (tmp_path / name / "sweep_s1_det.dat").exists()
        assert (tmp_path / name / "sweep.gp").exists()

    def strip_wall_time(text):
        rows = [line.split(",") for line in text.strip().split("\n")]
        assert rows[0] == ["method", "n", "epsilon_bound", "epsilon_empirical",
                           "trace_dist", "gates_cs", "gates_qf", "status", "wall_time_ms"]
        return [row[:8] for row in rows]

    assert strip_wall_time(outs[0]) == strip_wall_time(outs[1])
    assert "\r" not in outs[0]


def test_run_sweep_epsilon_grid(tmp_path):
    spec = ExperimentSpec(model="amp_damp", methods=(Method.S1_DET,), t=1.0,
                          epsilon_grid=(0.5, 0.25), seed=0,
                          outputs=str(tmp_path / "out"))
    records = run_sweep(spec)
    assert [r.n for r in records] == sorted(r.n for r in records)
    for r in records:
        assert r.epsilon_empirical <= r.epsilon_bound


def test_run_sweep_sampled_mode_has_stat_err(tmp_path):
    spec = ExperimentSpec(model="amp_damp", methods=(Method.QDRIFT,), t=1.0,
                          n_grid=(4, 8), seed=1, trajectories=64,
                          sampled=True, outputs=str(tmp_path / "out"))
    records = run_sweep(spec)
    write_sweep(spec, records)
    assert all(r.stat_err is not None and r.stat_err >= 0 for r in records)
    with open(tmp_path / "out" / "sweep.csv", encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header.endswith(",stat_err")
    # sampled records satisfy the bound within 3 sigma
    for r in records:
        assert r.epsilon_empirical <= r.epsilon_bound + 3 * r.stat_err


def test_trajectory_batches_are_contiguous_and_near_equal():
    batches = trajectory_batches(15)
    assert [len(b) for b in batches] == [2, 2, 2, 2, 2, 2, 2, 1]
    assert [r for b in batches for r in b] == list(range(15))
    assert trajectory_batches(1024) == [range(128 * b, 128 * (b + 1)) for b in range(8)]
    assert trajectory_batches(3) == [range(0, 1), range(1, 2), range(2, 3)]


def test_sampled_point_is_the_trajectory_mean():
    from lindsim.lindblad import exact_channel
    from lindsim.norms import certified, diamond_norm_solutions
    from lindsim.sampling import mixture_estimate, trajectory_channels

    spec = ExperimentSpec(model="random d=2 m=3 seed=7", methods=(Method.S2_RAN,), t=1.0,
                          n_grid=(6,), seed=3, trajectories=15, sampled=True)
    gen = resolve_model(spec)
    t_exact = exact_channel(gen, 1.0)
    total, batch_errors = sweep_point_channel(spec, gen, Method.S2_RAN, 6, t_exact)
    # one error map per contiguous batch: t_exact minus that batch's mean channel
    batches = trajectory_batches(15)
    assert len(batch_errors) == len(batches)
    for err, b in zip(batch_errors, batches):
        mean = trajectory_channels(Method.S2_RAN, gen, 1.0, 6, 3, b).mean(axis=0)
        assert np.max(np.abs(err - (t_exact - mean))) <= 1e-12
    stat_err = batch_standard_error([sol.value for sol in certified(diamond_norm_solutions(batch_errors))])
    assert stat_err > 0
    expected = mixture_estimate(Method.S2_RAN, gen, 1.0, 6, r_samples=15, seed=3)
    assert np.max(np.abs(total - expected)) <= 1e-12


def test_sampled_sweep_multiplies_out_one_chunk_at_a_time(monkeypatch):
    # 4096 trajectories make batches of 512; each is summed 256 trajectories at
    # a time, so memory does not grow with the count, and the batch means are
    # the unchunked ones
    import lindsim.sampling as sampling
    from lindsim.lindblad import exact_channel

    spec = ExperimentSpec(model="random d=2 m=3 seed=7", methods=(Method.S1_RAN, Method.QDRIFT),
                          t=1.0, n_grid=(6,), seed=4, trajectories=4096, sampled=True)
    real, rows = sampling._products, []
    monkeypatch.setattr(sampling, "_products",
                        lambda steps, index, *a: rows.append(len(index)) or real(steps, index, *a))
    assert all(r.status == "ok" for r in run_sweep(spec))
    assert max(rows) <= 256 and sum(rows) == 2 * 4096
    monkeypatch.undo()
    gen = resolve_model(spec)
    t_exact = exact_channel(gen, 1.0)
    for method in spec.methods:
        _, batch_errors = sweep_point_channel(spec, gen, method, 6, t_exact)
        for err, b in zip(batch_errors, trajectory_batches(4096)):
            unchunked = sampling.trajectory_channels(method, gen, 1.0, 6, 4, b).mean(axis=0)
            assert np.max(np.abs(err - (t_exact - unchunked))) <= 1e-13


def test_sampled_sweep_certifies_batch_means_with_the_points(monkeypatch):
    # one call: the term maps, then every point's error and its 8 batch-mean
    # errors; stat_err comes from those certificates
    import lindsim.norms as norms
    from lindsim.lindblad import exact_channel
    from lindsim.norms import certified, diamond_norm_solutions

    spec = ExperimentSpec(model="random d=2 m=3 seed=7", methods=(Method.S1_RAN, Method.QDRIFT),
                          t=1.0, n_grid=(4, 8), seed=5, trajectories=32, sampled=True)
    real = norms.solve_diamond
    batches = []
    monkeypatch.setattr(norms, "solve_diamond",
                        lambda chois, *a, **k: batches.append(len(chois)) or real(chois, *a, **k))
    records = run_sweep(spec)
    assert batches == [3 + 4 * 9]
    gen = resolve_model(spec)
    t_exact = exact_channel(gen, 1.0)
    for r in records:
        assert r.status == "ok"
        total, batch_errors = sweep_point_channel(spec, gen, r.method, r.n, t_exact)
        sols = certified(diamond_norm_solutions([t_exact - total, *batch_errors]))
        assert r.epsilon_empirical == pytest.approx(sols[0].value, abs=1e-9)
        assert r.stat_err == pytest.approx(batch_standard_error([s.value for s in sols[1:]]),
                                           abs=1e-9)
        assert r.stat_err > 0


def test_failed_batch_mean_solve_fails_only_its_point(monkeypatch):
    # one batch-mean map of the second point does not certify: that point
    # becomes an error record naming method and N, the others stay ok
    import lindsim.harness as harness
    from lindsim.sdp import SdpConvergenceError

    spec = ExperimentSpec(model="random d=2 m=3 seed=7", methods=(Method.QDRIFT,), t=1.0,
                          n_grid=(4, 8, 16), seed=2, trajectories=16, sampled=True)
    clean = run_sweep(spec)
    real = harness.diamond_norm_solutions

    def failing(maps):
        solved = real(maps)
        assert len(maps) == 3 + 3 * 9  # the term maps; per point: its error, then its 8 batch means
        solved[3 + 9 + 4] = SdpConvergenceError("forced failure", 1.0, 7)
        return solved

    monkeypatch.setattr(harness, "diamond_norm_solutions", failing)
    records = run_sweep(spec)
    assert records[1].status.startswith("error: qdrift N=8: forced failure")
    assert np.isnan(records[1].epsilon_empirical) and records[1].stat_err is None
    for i in (0, 2):
        assert records[i].status == "ok"
        assert records[i].epsilon_empirical == clean[i].epsilon_empirical
        assert records[i].stat_err == clean[i].stat_err


def test_exact_point_is_the_mixture_power():
    from lindsim.formulas import METHODS

    spec = ExperimentSpec(model="random d=2 m=3 seed=7", methods=(Method.QDRIFT,), t=1.0,
                          n_grid=(6,), seed=3)
    gen = resolve_model(spec)
    total, batch_errors = sweep_point_channel(spec, gen, Method.QDRIFT, 6, None)
    step = METHODS[Method.QDRIFT].step_channel(gen, 1.0, 6)
    assert batch_errors is None
    assert np.array_equal(total, np.linalg.matrix_power(step, 6))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_uint64_is_config_error(seed):
    with pytest.raises(ConfigError, match="seed"):
        ExperimentSpec(model="amp_damp", methods=(Method.QDRIFT,), t=1.0, n_grid=(4,),
                       seed=seed, sampled=True)


def test_run_sweep_records_failures_and_continues(tmp_path):
    # the exact s2_ran step's 2**40-entry table cannot be allocated: its
    # record errors, the rest run
    spec = ExperimentSpec(model="random d=2 m=40 seed=1",
                          methods=(Method.S2_RAN, Method.S1_DET), t=0.1,
                          n_grid=(4,), seed=0, outputs=str(tmp_path / "out"))
    records = run_sweep(spec)
    by_method = {r.method: r for r in records}
    assert by_method[Method.S2_RAN].status.startswith("error: s2_ran N=4: ")
    assert by_method[Method.S1_DET].status == "ok"


@pytest.mark.parametrize("model", ["random d=2 m=3 seed=7", "random d=3 m=3 seed=5"])
def test_folded_bounds_equal_those_of_generator_stats(model):
    # an n-grid sweep reads its statistics from the term maps it certifies
    # with its points; every bound is the one generator_stats gives, to the bit
    from lindsim.formulas import error_bound
    from lindsim.norms import generator_stats

    spec = ExperimentSpec(model=model, methods=(Method.S1_DET, Method.S2_RAN, Method.QDRIFT),
                          t=1.0, n_grid=(4, 16), seed=0)
    stats = generator_stats(resolve_model(spec))
    records = run_sweep(spec)
    assert all(r.status == "ok" for r in records)
    assert [r.epsilon_bound for r in records] == [error_bound(r.method, stats, spec.t, r.n)
                                                  for r in records]


def test_epsilon_grid_sweep_certifies_its_statistics_first(monkeypatch):
    # an epsilon grid's N come from the bounds: generator_stats is its own
    # call, before the points' call, and the N are those of its statistics
    import lindsim.norms as norms
    from lindsim.formulas import error_bound
    from lindsim.harness import point_steps

    spec = ExperimentSpec(model="random d=2 m=3 seed=7", methods=(Method.S1_DET, Method.S2_DET),
                          t=1.0, epsilon_grid=(0.1, 0.03), seed=0)
    stats = norms.generator_stats(resolve_model(spec))
    real = norms.solve_diamond
    batches = []
    monkeypatch.setattr(norms, "solve_diamond",
                        lambda chois, *a, **k: batches.append(len(chois)) or real(chois, *a, **k))
    records = run_sweep(spec)
    assert batches == [3, 4]
    assert [r.n for r in records] == [point_steps(spec, stats, m, eps)
                                      for m in spec.methods for eps in spec.epsilon_grid]
    assert [r.n for r in records] == [590, 1964, 39, 71]
    assert all(r.status == "ok" and r.epsilon_bound == error_bound(r.method, stats, spec.t, r.n)
               for r in records)


def test_failed_solve_is_recorded_and_its_batch_certifies(monkeypatch):
    # the points' errors are certified in one batch; a point whose solve
    # fails gets its own error and the other points keep their values
    import lindsim.norms as norms

    spec = ExperimentSpec(model="random d=2 m=3 seed=7", methods=(Method.S1_DET, Method.S2_DET),
                          t=1.0, n_grid=(4, 8, 16), seed=0)
    clean = run_sweep(spec)
    real = norms.solve_diamond
    batches = []

    def poisoning(chois, **kwargs):
        chois = np.array(chois)
        batches.append(len(chois))
        if len(chois) == 3 + 6:  # the sweep's call: poison s1_det at N = 8, after the terms
            chois[3 + 1, 0, 0] = np.nan
        return real(chois, **kwargs)

    monkeypatch.setattr(norms, "solve_diamond", poisoning)
    records = run_sweep(spec)
    assert batches == [3 + 6]  # the term maps and every point at once
    assert records[1].status.startswith("error: s1_det N=8: linear algebra failure")
    assert np.isnan(records[1].epsilon_empirical)
    for i in (0, 2, 3, 4, 5):
        assert records[i].status == "ok"
        assert records[i].epsilon_empirical == pytest.approx(clean[i].epsilon_empirical, abs=1e-9)


def test_fit_order_exact_synthetic():
    records = [
        SweepRecord(method=Method.S2_DET, n=n, epsilon_bound=1.0,
                    epsilon_empirical=5.0 / n**2, trace_dist=0.0, gates_cs=1,
                    gates_qf=None, status="ok", wall_time_ms=0)
        for n in (4, 8, 16, 32)
    ]
    slopes = fit_order(records)
    assert slopes[Method.S2_DET] == pytest.approx(-2.0, abs=1e-9)


def _fit_record(method, n, eps):
    return SweepRecord(method=method, n=n, epsilon_bound=1.0, epsilon_empirical=eps,
                       trace_dist=0.0, gates_cs=1, gates_qf=None, status="ok", wall_time_ms=0)


def test_fit_order_needs_three_points():
    records = [_fit_record(Method.S1_DET, n, 1.0 / n) for n in (4, 8)]
    assert fit_order(records) == {}


def test_fit_order_keys_follow_the_records_and_leave_out_short_methods():
    records = [_fit_record(Method.QDRIFT, n, 3.0 / n) for n in (4, 8, 16)]
    records += [_fit_record(Method.S1_DET, n, 1.0 / n) for n in (4, 8)]  # two points
    records += [_fit_record(Method.S1_DET, 16, TOL.sdp_gap_tol)]  # rounding, not a fit point
    records += [_fit_record(Method.S2_DET, n, 2.0 / n**2) for n in (32, 16, 8)]
    records += [_fit_record(Method.S1_RAN, n, 1.0 / n**2) for n in (4, 8, 16)]
    records[-1].status = "error: s1_ran N=16: failed"
    slopes = fit_order(records)
    assert list(slopes) == [Method.QDRIFT, Method.S2_DET]
    assert slopes[Method.QDRIFT] == pytest.approx(-1.0, abs=1e-12)
    assert slopes[Method.S2_DET] == pytest.approx(-2.0, abs=1e-12)


def test_log_slope_matches_a_least_squares_fit():
    xs, ys = np.array([0.2, 0.1, 0.05, 0.025]), np.array([3.1e-2, 8.4e-3, 2.0e-3, 5.9e-4])
    assert log_slope(xs, ys) == pytest.approx(np.polyfit(np.log(xs), np.log(ys), 1)[0], rel=1e-12)


def test_table1_report_worked_example():
    report = table1_report(m=2, t=1.0, lam=1.0, gamma=2.0, omega=1.0, eps=0.1)
    lines = report.splitlines()
    first_order = next(l for l in lines if l.startswith("First-order deterministic"))
    assert "O((tΛ)²M³/ε)" in first_order
    assert first_order.split()[-2:] == ["40", "80"]
    qd_cs = next(l for l in lines if l.startswith("QDRIFT (CS)"))
    n, gates = qd_cs.split()[-2:]
    assert n == gates  # no M factor on the classical-sampling route
    assert "infeasible (M!)" in next(l for l in lines if "randomised (QF)" in l and "Second" in l)


def test_validate_suite_selection():
    report = validate_all(seed=0, suite="identities")
    assert report.passed
    assert {r.suite for r in report.results} == {"identities"}
    with pytest.raises(ConfigError, match="unknown suite"):
        validate_all(suite="everything")


def test_validation_report_csv(tmp_path):
    report = validate_all(seed=0, suite="identities")
    path = report.write_csv(tmp_path / "report.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "suite,check,passed,detail"
    assert len(lines) == len(report.results) + 1


@pytest.mark.parametrize("call, fragment", [
    (lambda: ExperimentSpec(model="amp_damp", methods=(), t=1.0, n_grid=(4,)),
     "at least one method is required"),
    (lambda: resolve_model(ExperimentSpec(model="amp_damp gamma=fast", methods=(Method.S1_DET,),
                                          t=1.0, n_grid=(4,))),
     "model parameter 'gamma=fast' is not numeric"),
], ids=["no_methods", "non_numeric_parameter"])
def test_input_refusals(call, fragment):
    with pytest.raises(ConfigError, match=fragment):
        call()
