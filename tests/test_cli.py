import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lindsim import norms
from lindsim.cli import main
from lindsim.formulas import Implementation, Method
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
    """Exit code and stderr of one in-process CLI run; argparse's rejections are SystemExit(2).
    A numpy ``RuntimeWarning`` would reach the user's stderr, so none may be raised."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (argv, runtime)
    return code, err.getvalue()


def assert_exit_0_or_2(argv):
    code, err = run_cli(argv)
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


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["sweep", "simulate"]),
       model=st.sampled_from(MODELS),
       grid=st.sampled_from([("n_grid", "4"), ("epsilon_grid", "0.1")]),
       odd=st.dictionaries(st.sampled_from(list(SWEEP_CONFIG)), NUMBERS, min_size=1, max_size=2))
# an exact channel that overflows to inf is bad input, not a solver failure
@example("sweep", MODELS[0], ("n_grid", "4"), {"model": "0.0", "t": "2.7958224665139688e+20"})
# an epsilon below machine precision is bad input, not an astronomical N
@example("sweep", MODELS[0], ("epsilon_grid", "0.1"),
         {"model": "17297280.0", "grid": "2.1012563011198427e-207"})
def test_sweep_and_simulate_exit_0_1_or_2_on_any_numbers(command, model, grid, odd):
    import tempfile
    from pathlib import Path

    grid_key, grid_value = grid
    values = {**SWEEP_CONFIG, "grid": grid_value, **odd}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.ini"
        path.write_text(f"[experiment]\nmodel = {model.format(values['model'])}\n"
                        f"methods = s1_det\nt = {values['t']}\n{grid_key} = {values['grid']}\n"
                        f"seed = {values['seed']}\ntrajectories = {values['trajectories']}\n"
                        f"outputs = {Path(tmp) / 'out'}\n")
        code, err = run_cli([command, str(path)])
    assert code in (0, 1, 2), (values, code, err)
    assert "Traceback" not in err
    assert code != 1 or "solver failed" in err, (values, err)


@pytest.mark.parametrize("command", ["sweep", "simulate"])
@pytest.mark.parametrize("model, t, grid", [
    # exp(t L) overflows in the squaring of the matrix exponential
    ("amp_damp gamma=0.0", "2.7958224665139688e+20", "n_grid = 4"),
    # N would be about 2.3e216
    ("amp_damp gamma=17297280.0", "1.0", "epsilon_grid = 2.1012563011198427e-207"),
])
def test_out_of_range_input_is_bad_input(command, model, t, grid, tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(f"[experiment]\nmodel = {model}\nmethods = s1_det\nt = {t}\n{grid}\n"
                    f"seed = 1\noutputs = {tmp_path / 'out'}\n")
    code, err = run_cli([command, str(path)])
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_memory_error_in_a_solver_worker_is_bad_input(tmp_path, monkeypatch):
    # six d = 3 point maps are two lockstep batches; with two CPUs the second
    # is solved by a forked child, whose MemoryError the sweep reports
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
                    f"t = 1.0\nn_grid = 4 8 16\nseed = 1\noutputs = {tmp_path / 'out'}\n")
    code, err = run_cli(["sweep", str(path)])
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


def test_validate_unknown_suite(capsys):
    assert main(["validate", "imaginary"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_sweep_command(config_path, tmp_path, capsys):
    assert main(["sweep", config_path]) == 0
    out = capsys.readouterr().out
    assert "sweep.csv" in out
    assert (tmp_path / "out" / "sweep.csv").exists()
    assert "order s1_det" in out


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
    # generator_stats certifies; the sweep's one batch of points fails
    real = norms.solve_diamond
    calls = []

    def failing_points(chois, **kwargs):
        calls.append(len(chois))
        if len(calls) == 1:
            return real(chois, **kwargs)
        return [SdpConvergenceError("interior-point step collapsed", 3e-4) for _ in chois]

    monkeypatch.setattr(norms, "solve_diamond", failing_points)
    assert main(["sweep", config_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver failed: s1_det N=4: interior-point step collapsed")
    assert err.count("\n") == 1 and "(6 of 6 points failed)" in err


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
    assert batches == [3, 3 * 8]  # generator_stats, then every method's batch means
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
