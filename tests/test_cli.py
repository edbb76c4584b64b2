import contextlib
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lindsim import norms
from lindsim.cli import main
from lindsim.formulas import Implementation, Method
from lindsim.lindblad import exact_channel, term_superop
from lindsim.linalg import devectorize, mat_exp, trace_distance, vectorize
from lindsim.models import builtin_model
from lindsim.sdp import SdpConvergenceError

CONFIG = """
[experiment]
model = amp_damp gamma=1.0
methods = s1_det qdrift
t = 1.0
n_grid = 4 8 16
seed = 7
outputs = {out}
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG.format(out=tmp_path / "out"))
    return str(path)


def test_gatecount_command(capsys):
    assert main(["gatecount", "--method", "s1_ran", "--impl", "qf", "--m", "2", "--n", "10"]) == 0
    assert capsys.readouterr().out.strip() == "60"


def test_gatecount_rejects_infeasible_forking(capsys):
    assert main(["gatecount", "--method", "s2_ran", "--impl", "qf", "--m", "3", "--n", "4"]) == 2
    assert "M!" in capsys.readouterr().err


def test_table1_command(capsys):
    rc = main(["table1", "--m", "2", "--t", "1", "--lambda", "1",
               "--gamma", "2", "--omega", "1", "--eps", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "O((tΛ)²M³/ε)" in out
    assert "infeasible (M!)" in out


def test_table1_conservative_flag_grows_s2_ran(capsys):
    args = ["table1", "--m", "2", "--t", "1", "--lambda", "1",
            "--gamma", "2", "--omega", "1", "--eps", "0.1"]

    def s2_ran_steps(extra):
        assert main(args + extra) == 0
        row = next(l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("Second-order randomised (CS)"))
        return int(row.split()[-2])

    assert s2_ran_steps(["--conservative-bounds"]) > s2_ran_steps([])


@pytest.mark.parametrize("t, lam", [("1", "1e200"), ("inf", "1")])
def test_table1_overflow_is_bad_input(t, lam, capsys):
    argv = ["table1", "--m", "2", "--t", t, "--lambda", lam, "--gamma", "1", "--omega", "1",
            "--eps", "0.1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


# what a user might type at a numeric flag: huge, tiny, zero, negative, NaN, inf, malformed
NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "-1", "nan", "-nan", "inf", "-inf", "1e200", "1e308", "1e309",
                     "-1e200", "5e-324", "1e-320", "1e-300", "9" * 400, "1.5", "x"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**30, 10**30).map(str),
)


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI run; argparse's rejections are
    SystemExit(2).  A numpy ``RuntimeWarning`` would reach the user's stderr, so none may
    be raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (argv, runtime)
    return code, out.getvalue(), err.getvalue()


def assert_exit_0_or_2(argv):
    code, _, err = run_cli(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err
    assert code == 0 or "error:" in err


TABLE1 = {"--m": "2", "--t": "1", "--lambda": "1", "--gamma": "2", "--omega": "1", "--eps": "0.1"}


@settings(max_examples=300, deadline=None)
@given(odd=st.dictionaries(st.sampled_from(list(TABLE1)), NUMBERS, min_size=1),
       conservative=st.booleans())
def test_table1_exits_0_or_2_on_any_numbers(odd, conservative):
    values = {**TABLE1, **odd}  # some flags odd, the others sane
    assert_exit_0_or_2(["table1", *(f"{flag}={value}" for flag, value in values.items())]
                       + ["--conservative-bounds"] * conservative)


@settings(max_examples=200, deadline=None)
@given(method=st.sampled_from([m.value for m in Method]),
       impl=st.sampled_from([i.value for i in Implementation]),
       odd=st.dictionaries(st.sampled_from(["--m", "--n"]), NUMBERS, min_size=1))
def test_gatecount_exits_0_or_2_on_any_numbers(method, impl, odd):
    values = {"--m": "2", "--n": "10", **odd}
    assert_exit_0_or_2(["gatecount", "--method", method, "--impl", impl,
                        *(f"{flag}={value}" for flag, value in values.items())])


@pytest.mark.parametrize("command", ["sweep", "simulate"])
def test_model_too_large_to_allocate_is_bad_input(command, tmp_path, capsys):
    # numpy refuses a d = 10^9 model's 6.94 EiB arrays before allocating anything
    path = tmp_path / "huge.ini"
    path.write_text(CONFIG.replace("amp_damp gamma=1.0", "random d=1000000000 m=3 seed=1")
                    .format(out=tmp_path / "out"))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input too large (") and err.count("\n") == 1


# a sweep or simulate config whose numbers are sane except the drawn ones
SWEEP_CONFIG = {"t": "1.0", "grid": None, "seed": "1", "trajectories": "8", "model": "1"}
MODELS = ("amp_damp gamma={}", "random d=2 m=2 seed={}", "random d=1000000000 m=3 seed={}")


def write_one_value_config(path, method, model, grid_key, values):
    path.write_text(f"[experiment]\nmodel = {model.format(values['model'])}\n"
                    f"methods = {method}\nt = {values['t']}\n{grid_key} = {values['grid']}\n"
                    f"seed = {values['seed']}\ntrajectories = {values['trajectories']}\n"
                    f"outputs = {path.parent / 'out'}\n")


@settings(max_examples=60, deadline=None)
@given(method=st.sampled_from([m.value for m in Method]),
       model=st.sampled_from(MODELS),
       grid=st.sampled_from([("n_grid", "4"), ("epsilon_grid", "0.1")]),
       odd=st.dictionaries(st.sampled_from(list(SWEEP_CONFIG)), NUMBERS, min_size=1, max_size=2))
# an exact channel that overflows to inf is bad input, not a solver failure
@example("s1_det", MODELS[0], ("n_grid", "4"), {"model": "0.0", "t": "2.7958224665139688e+20"})
# an epsilon below machine precision is bad input, not an astronomical N
@example("s1_det", MODELS[0], ("epsilon_grid", "0.1"),
         {"model": "17297280.0", "grid": "2.1012563011198427e-207"})
# a point whose error does not certify fails simulate as it fails the sweep
@example("s1_det", MODELS[1], ("n_grid", "4"), {"t": "280110205.0"})
def test_sweep_and_simulate_exit_0_1_or_2_on_any_numbers(method, model, grid, odd):
    import tempfile
    from pathlib import Path

    grid_key, grid_value = grid
    values = {**SWEEP_CONFIG, "grid": grid_value, **odd}  # one grid value: simulate's point
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.ini"
        write_one_value_config(path, method, model, grid_key, values)
        for command in ("sweep", "simulate"):
            code, _, err = run_cli([command, str(path)])
            assert code in (0, 1, 2), (command, values, code, err)
            assert "Traceback" not in err
            assert code != 1 or "solver failed" in err, (command, values, err)
            codes.append(code)
    assert codes[0] == codes[1], (values, codes)


def test_simulate_names_the_point_that_does_not_certify(tmp_path):
    # at t = 2.8e8 the error map's SDP stalls; simulate reports the sweep's line
    path = tmp_path / "exp.ini"
    write_one_value_config(path, "s1_det", MODELS[1], "n_grid",
                           {**SWEEP_CONFIG, "grid": "4", "t": "280110205.0"})
    code, out, err = run_cli(["simulate", str(path)])
    assert code == 1 and out == "", (code, out)
    assert err.startswith("error: solver failed: s1_det N=4:") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["sweep", "simulate"])
@pytest.mark.parametrize("model, t, grid", [
    # exp(t L) overflows in the squaring of the matrix exponential
    ("amp_damp gamma=0.0", "2.7958224665139688e+20", "n_grid = 4"),
    # N would be about 2.3e216
    ("amp_damp gamma=17297280.0", "1.0", "epsilon_grid = 2.1012563011198427e-207"),
    # N is about 4.8e21, whose rounding alone (N * 2**-53, about 5e5) exceeds epsilon
    ("amp_damp gamma=17297280.0", "1.0", "epsilon_grid = 1e-6"),
])
def test_out_of_range_input_is_bad_input(command, model, t, grid, tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(f"[experiment]\nmodel = {model}\nmethods = s1_det\nt = {t}\n{grid}\n"
                    f"seed = 1\noutputs = {tmp_path / 'out'}\n")
    code, out, err = run_cli([command, str(path)])
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1, err
    assert out == ""  # simulate prints nothing until every point is built
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "simulate"])
def test_s2_ran_table_beyond_memory_is_bad_input(command, tmp_path):
    # the exact s2_ran step at m = 40 needs a 2**40-entry table, refused at once
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nmodel = random d=2 m=40 seed=1\nmethods = s2_ran\nt = 0.1\n"
                    f"n_grid = 4\nseed = 1\noutputs = {tmp_path / 'out'}\n")
    code, out, err = run_cli([command, str(path)])
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1, err
    assert "Unable to allocate" in err
    assert command == "sweep" or out == ""


def test_memory_error_in_a_solver_worker_is_bad_input(tmp_path, monkeypatch):
    # three d = 3 term maps and fourteen point maps are two lockstep batches;
    # with two CPUs the second is solved by a forked child, whose MemoryError
    # the sweep reports
    import os

    from lindsim import sdp

    parent, real = os.getpid(), sdp._lockstep

    def lockstep(*args):
        if os.getpid() != parent:
            raise MemoryError("no room for the Schur complement")
        return real(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(sdp, "_lockstep", lockstep)
    path = tmp_path / "d3.ini"
    path.write_text("[experiment]\nmodel = random d=3 m=3 seed=5\nmethods = s1_det s2_det\n"
                    f"t = 1.0\nn_grid = 4 8 16 32 64 128 256\nseed = 1\noutputs = {tmp_path / 'out'}\n")
    code, _, err = run_cli(["sweep", str(path)])
    assert code == 2 and err == "error: input too large (no room for the Schur complement)\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_with_epsilon_grid(tmp_path, capsys):
    path = tmp_path / "eps.ini"
    path.write_text(
        "[experiment]\nmodel = random d=2 m=3 seed=7\nmethods = s2_det\nt = 1.0\n"
        f"epsilon_grid = 0.2 0.1 0.05\nseed = 3\noutputs = {tmp_path / 'out'}\n")
    assert main(["sweep", str(path)]) == 0
    out = capsys.readouterr().out
    assert "order s2_det" in out
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_validate_subcommand(capsys):
    assert main(["validate", "identities", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "identities/" in out


def test_validate_writes_one_csv_row_per_check(tmp_path, capsys):
    path = tmp_path / "report.csv"
    assert main(["validate", "identities", "--csv", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    checks = [line.split()[1] for line in out if line.startswith(("PASS", "FAIL"))]
    assert out[-1] == f"wrote {path}"
    rows = path.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "suite,check,passed,detail"
    assert [f"{suite}/{check}" for suite, check, *_ in (r.split(",") for r in rows[1:])] == checks
    assert checks == ["identities/power_difference_contraction", "identities/restricted_sum_identity"]
    assert all(r.split(",")[2] == "1" for r in rows[1:])


def test_validate_names_a_method_without_an_order_fit(monkeypatch, capsys):
    import lindsim.harness as harness

    real = harness.run_sweep

    def two_s2_ran_points(spec):
        return [r for r in real(spec) if not (r.method == Method.S2_RAN and r.n > 8)]

    monkeypatch.setattr(harness, "run_sweep", two_s2_ran_points)
    assert main(["validate", "bounds"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    line = next(l for l in captured.out.splitlines() if "bounds/convergence_orders" in l)
    assert line.startswith("FAIL  bounds/convergence_orders")
    assert re.search(r"  qdrift:\S+ s1_det:\S+ s1_ran:\S+ s2_det:\S+ s2_ran:no fit$", line)


def test_validate_unknown_suite(capsys):
    assert main(["validate", "imaginary"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_sweep_command(config_path, tmp_path, capsys):
    assert main(["sweep", config_path]) == 0
    out = capsys.readouterr().out
    assert "sweep.csv" in out
    assert (tmp_path / "out" / "sweep.csv").exists()
    # amp_damp's terms commute: s1_det's errors are rounding, below the certificate floor
    assert "order qdrift" in out and "order s1_det" not in out


def test_sweep_from_the_mixed_state(tmp_path, capsys):
    path = tmp_path / "mixed.ini"
    path.write_text(
        "[experiment]\nmodel = random d=2 m=3 seed=7\nmethods = s1_det\nt = 1.0\n"
        f"n_grid = 4 8 16\nseed = 3\ninitial_state = mixed\noutputs = {tmp_path / 'out'}\n")
    assert main(["sweep", str(path)]) == 0
    capsys.readouterr()
    header, *rows = (tmp_path / "out" / "sweep.csv").read_text(encoding="utf-8").splitlines()
    row = dict(zip(header.split(","), rows[1].split(",")))
    assert (row["method"], row["n"]) == ("s1_det", "8")
    # by hand: eight first-order steps of dt = 1/8 on I/2, term by term
    gen = builtin_model("random", dict(d=2, m=3, seed=7))
    rho = np.eye(2, dtype=complex) / 2
    steps = [mat_exp(term_superop(gen, k) / 8) for k in (1, 2, 3)]
    for _ in range(8):
        for step in steps:
            rho = devectorize(step @ vectorize(rho))
    exact = devectorize(exact_channel(gen, 1.0) @ vectorize(np.eye(2, dtype=complex) / 2))
    assert float(row["trace_dist"]) == pytest.approx(trace_distance(exact, rho), rel=1e-9)
    assert float(row["trace_dist"]) > 1e-6


def test_simulate_command(config_path, capsys):
    assert main(["simulate", config_path]) == 0
    out = capsys.readouterr().out
    assert "exact state" in out
    assert "cptp" in out
    assert "s1_det" in out and "qdrift" in out


def test_missing_config_is_bad_input(capsys):
    assert main(["sweep", "/nonexistent/exp.ini"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solver_failure_exits_1(config_path, monkeypatch, capsys):
    def failing_solve(chois, **kwargs):
        return [SdpConvergenceError("interior-point step collapsed", 3e-4) for _ in chois]

    monkeypatch.setattr(norms, "solve_diamond", failing_solve)
    assert main(["sweep", config_path]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "step collapsed" in err and "3.000e-04" in err


def test_sweep_with_an_unsolved_point_exits_1(config_path, monkeypatch, capsys):
    # the sweep's one call: amp_damp's two term maps certify, every point fails
    real = norms.solve_diamond
    calls = []

    def failing_points(chois, **kwargs):
        calls.append(len(chois))
        return real(chois[:2], **kwargs) + [SdpConvergenceError("interior-point step collapsed", 3e-4)
                                            for _ in chois[2:]]

    monkeypatch.setattr(norms, "solve_diamond", failing_points)
    assert main(["sweep", config_path]) == 1
    assert calls == [2 + 6]
    err = capsys.readouterr().err
    assert err.startswith("error: solver failed: s1_det N=4: interior-point step collapsed")
    assert err.count("\n") == 1 and "(6 of 6 points failed)" in err


def test_sweep_with_an_unsolved_term_exits_1_and_names_it(config_path, monkeypatch, capsys):
    # the term maps lead the sweep's one call; amp_damp's second one fails
    real = norms.solve_diamond

    def failing_term(chois, **kwargs):
        solved = real(chois, **kwargs)
        solved[1] = SdpConvergenceError("interior-point step collapsed", 3e-4, 12)
        return solved

    monkeypatch.setattr(norms, "solve_diamond", failing_term)
    assert main(["sweep", config_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: solver failed: diamond norm of term 2 of a d=2 generator: "
                                   "interior-point step collapsed (duality gap 3.000e-04, 12 iterations")


def test_sweep_with_an_overflowing_bound_exits_2(tmp_path, capsys):
    # at gamma = 1e103 the s1_det bounds are finite and the s2_det bounds
    # overflow: each s2_det point is its own error record, and the s1_det
    # points certify
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG.format(out=tmp_path / "out").replace("gamma=1.0", "gamma=1e103")
                    .replace("s1_det qdrift", "s1_det s2_det").replace("4 8 16", "4 8"))
    assert main(["sweep", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "bound=4.000e+206" in lines[0] and lines[0].endswith("[ok]") and lines[1].endswith("[ok]")
    assert lines[2].endswith("[error: s2_det N=4: s2_det error bound at N=4 is not finite]")
    assert lines[3].endswith("[error: s2_det N=8: s2_det error bound at N=8 is not finite]")
    assert captured.err == "error: s2_det N=4: s2_det error bound at N=4 is not finite (2 of 4 points failed)\n"


@pytest.mark.parametrize("suite, named", [("forking", "term 1 of a d=2 generator"),
                                           ("identities", "step collapsed")])
def test_validate_solver_failure_exits_1(suite, named, monkeypatch, capsys):
    def failing_solve(chois, **kwargs):
        return [SdpConvergenceError("interior-point step collapsed", 3e-4) for _ in chois]

    monkeypatch.setattr(norms, "solve_diamond", failing_solve)
    assert main(["validate", suite]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver failed:") and err.count("\n") == 1
    assert named in err


def test_malformed_config_is_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nmodel = amp_damp\nmethods = s1_det\nt = 1\nseed = 0\n")
    assert main(["sweep", str(path)]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_random_model_rejects_non_integer_parameters(tmp_path, capsys):
    path = tmp_path / "frac.ini"
    path.write_text(CONFIG.replace("amp_damp gamma=1.0", "random d=2.5 m=3.9 seed=1.5")
                    .format(out=tmp_path / "out"))
    assert main(["sweep", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "d=2.5 m=3.9 seed=1.5" in err
    assert not (tmp_path / "out").exists()


SAMPLED_CONFIG = """
[experiment]
model = random d=2 m=3 seed=7
methods = qdrift
t = 1.0
n_grid = 8
seed = {seed}
trajectories = 40
sampled = true
outputs = {out}
"""


def test_negative_seed_is_bad_input(tmp_path, capsys):
    path = tmp_path / "neg.ini"
    path.write_text(SAMPLED_CONFIG.format(seed=-1, out=tmp_path / "out"))
    assert main(["sweep", str(path)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_reports_the_sampled_channel(tmp_path, capsys):
    from lindsim.formulas import Method, qdrift_exact
    from lindsim.lindblad import exact_channel
    from lindsim.linalg import DensityMatrix, devectorize, trace_distance, vectorize
    from lindsim.models import builtin_model
    from lindsim.sampling import mixture_estimate

    path = tmp_path / "sampled.ini"
    path.write_text(SAMPLED_CONFIG.format(seed=5, out=tmp_path / "out"))
    assert main(["simulate", str(path)]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("qdrift"))
    assert "sampled R=40 stat_err=" in line
    printed = float(line.split("trace_dist=")[1].split()[0])

    gen = builtin_model("random", dict(d=2, m=3, seed=7))
    rho0 = vectorize(DensityMatrix.ground(2).matrix)
    rho_t = devectorize(exact_channel(gen, 1.0) @ rho0)

    def dist(channel):
        return trace_distance(rho_t, devectorize(channel @ rho0))

    sampled = dist(mixture_estimate(Method.QDRIFT, gen, 1.0, 8, r_samples=40, seed=5))
    exact = dist(np.linalg.matrix_power(qdrift_exact(gen, float(np.sum(gen.rates)) / 8), 8))
    assert printed == pytest.approx(sampled, rel=2e-3)
    assert printed != pytest.approx(exact, rel=2e-3)


def test_simulate_certifies_every_batch_mean_in_one_batch(tmp_path, capsys, monkeypatch):
    import lindsim.norms as norms

    real = norms.solve_diamond
    batches = []
    monkeypatch.setattr(norms, "solve_diamond",
                        lambda chois, *a, **k: batches.append(len(chois)) or real(chois, *a, **k))
    path = tmp_path / "sampled.ini"
    path.write_text(SAMPLED_CONFIG.replace("methods = qdrift", "methods = s1_ran s2_ran qdrift")
                    .format(seed=5, out=tmp_path / "out"))
    assert main(["simulate", str(path)]) == 0
    # one call: the three term maps, then every method's own error and batch means
    assert batches == [3 + 3 * (1 + 8)]
    lines = [l for l in capsys.readouterr().out.splitlines() if "sampled R=40 stat_err=" in l]
    assert [l.split()[0] for l in lines] == ["s1_ran", "s2_ran", "qdrift"]
    assert all(float(l.split("stat_err=")[1].split()[0]) > 0 for l in lines)


def test_cli_imports_no_scipy():
    # a CLI process loads numpy alone; scipy is a test-only oracle
    import os
    import subprocess
    import sys
    from pathlib import Path

    import lindsim

    src = str(Path(lindsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, lindsim.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"




IMPORT_SURFACE = """
import sys

def loaded():
    return " ".join(sorted(m for m in sys.modules if m.startswith("lindsim.")))

import lindsim
lindsim.builtin_model, lindsim.generator_stats, lindsim.exact_channel
print(loaded())
import lindsim.cli
print(loaded())
print(lindsim.forking.__name__, hasattr(lindsim, "no_such_name"))
import os
print(os.environ["OPENBLAS_NUM_THREADS"])
"""


def test_entry_points_load_only_the_modules_they_use():
    # import lindsim sets the BLAS default and loads each public name on first use
    import os
    import subprocess
    import sys
    from pathlib import Path

    import lindsim

    src = str(Path(lindsim.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", IMPORT_SURFACE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    setup, cli, submodule, threads = out.stdout.splitlines()
    assert not {"lindsim.cli", "lindsim.harness", "lindsim.formulas", "lindsim.sampling",
                "lindsim.forking", "lindsim.validation"} & set(setup.split())
    assert not {"lindsim.validation", "lindsim.forking"} & set(cli.split())
    assert submodule == "lindsim.forking False"  # a submodule loads on attribute access
    assert threads == "1"


def test_public_names_are_their_home_modules_objects():
    import importlib

    import lindsim

    for name in lindsim.__all__:
        home = importlib.import_module(f"lindsim.{lindsim._EXPORTS[name]}")
        assert getattr(lindsim, name) is getattr(home, name), name
    assert set(lindsim.__all__) <= set(dir(lindsim))
    star = {}
    exec("from lindsim import *", star)
    assert all(star[name] is getattr(lindsim, name) for name in lindsim.__all__)
