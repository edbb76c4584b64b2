"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload is something a user runs: a ``lindsim sweep`` over a generated
config, or ``lindsim validate forking``.  The benchmark seed picks one of
``INPUT_SETS`` input sets; set ``i`` uses model seed ``base_seed + i`` and
sampling seed ``42 + i``, so seed 0 reproduces the inputs named in NOTES.md.
Only ``INPUT_SETS`` sets exist because the exact-mode outputs of each are
checked against a stored reference (reference.json).
"""

from __future__ import annotations

from dataclasses import dataclass

INPUT_SETS = 16
SAMPLING_BASE_SEED = 42

# The generators the forking suite builds (harness._model_library, less the
# d=4 model that the suite skips); they are the set-up of validate_forking.
FORKING_SUITE_MODELS = (
    ("amp_damp", {}),
    ("qubit3", {}),
    ("random", {"d": 2, "m": 3, "seed": 7}),
)


def input_set(seed: int) -> int:
    """Index of the input set a benchmark seed selects."""
    return seed % INPUT_SETS


@dataclass(frozen=True)
class Sweep:
    """``lindsim sweep`` on a seeded random model."""

    name: str
    why: str
    d: int
    m: int
    base_seed: int
    methods: tuple
    n_grid: tuple
    sampled: bool = False
    trajectories: int = 1024

    def model_params(self, index: int) -> dict:
        return {"d": self.d, "m": self.m, "seed": self.base_seed + index}

    def model(self, index: int) -> str:
        return "random " + " ".join(f"{k}={v}" for k, v in self.model_params(index).items())

    def setup_models(self, index: int) -> list:
        return [("random", self.model_params(index))]

    def config(self, index: int, outputs: str, sampled: bool | None = None) -> str:
        """INI text of the experiment; ``sampled=False`` gives its exact-mode twin."""
        sampled = self.sampled if sampled is None else sampled
        return "\n".join([
            "[experiment]",
            f"model = {self.model(index)}",
            f"methods = {' '.join(self.methods)}",
            "t = 1.0",
            f"n_grid = {' '.join(str(n) for n in self.n_grid)}",
            f"seed = {SAMPLING_BASE_SEED + index}",
            f"trajectories = {self.trajectories}",
            f"sampled = {'true' if sampled else 'false'}",
            f"outputs = {outputs}",
            "",
        ])

    def points(self) -> list:
        return [(method, n) for method in self.methods for n in self.n_grid]


@dataclass(frozen=True)
class Validate:
    """``lindsim validate <suite>``."""

    name: str
    why: str
    suite: str
    checks: tuple

    def cli_args(self, index: int) -> list:
        return ["validate", self.suite, "--seed", str(index)]

    def setup_models(self, index: int) -> list:
        return [(name, dict(params)) for name, params in FORKING_SUITE_MODELS]


ALL_METHODS = ("s1_det", "s2_det", "s1_ran", "s2_ran", "qdrift")

WORKLOADS = {w.name: w for w in (
    Sweep(
        name="sweep_exact_d3",
        why="d=3 exact sweep of all five methods; SDP-bound, so an SDP change shows and a "
            "term-exponential cache does not",
        d=3, m=4, base_seed=11, methods=ALL_METHODS, n_grid=(4, 8, 16, 32, 64),
    ),
    Sweep(
        name="sweep_sampled_d2",
        why="sampled-mode qubit sweep at N=64; gate-set draws and trajectory products dominate, "
            "with many small d=2 SDP solves",
        d=2, m=3, base_seed=7, methods=("s1_ran", "s2_ran", "qdrift"), n_grid=(64,),
        sampled=True, trajectories=1024,
    ),
    Sweep(
        name="sweep_mixture_m6",
        why="exact sweep of a six-term qubit model; s2_ran over 720 orders repeats term "
            "exponentials, so a cache or one dispatch table shows",
        d=2, m=6, base_seed=5, methods=("s2_det", "s1_ran", "s2_ran", "qdrift"),
        n_grid=(4, 8, 16, 32, 64),
    ),
    Validate(
        name="validate_forking",
        why="the forking suite; few large exponentials of 576x576 composite superoperators, "
            "the only workload that runs the forking layer",
        suite="forking",
        checks=("matches_exact_mixture", "work_state_independence", "trace_distance_bounds"),
    ),
)}
