"""Span tracing of lindsim from outside the package, and the per-layer metrics.

The recorder wraps the public functions of each lindsim module wherever a
``lindsim.*`` module namespace binds them (``harness`` imports
``diamond_norm`` by name, ``cli`` imports ``run_sweep`` by name, and so on),
so no file of the package changes.  Each call becomes one span: id, parent
id, name, start, end and a few attributes read from the arguments or the
result.  Span stacks are thread-local because ``run_sweep`` runs its points
on a thread pool; a span that opens on an empty worker stack takes as parent
the innermost span open on the thread that installed the recorder, which is
the ``run_sweep`` call waiting on the pool.  Spans stay in memory and are
written out once, at the end.

Run as a script, the module traces one CLI invocation:

    python3 perfbench/spans.py --out spans.json --run-id ID -- sweep exp.ini
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time

# Public layer functions, by module.  ``models`` and ``tolerances`` do no
# measurable work and are not traced.
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "harness": ("run_sweep", "validate_all"),
    "formulas": ("s1_dir", "s2_det", "s1_ran_exact", "s2_sigma", "s2_ran_exact", "qdrift_exact"),
    "lindblad": ("term_superop", "constituent_channel", "exact_channel", "choi"),
    "linalg": ("mat_exp",),
    "norms": ("generator_stats", "diamond_norm", "diamond_norm_solution"),
    "sdp": ("solve_sdp",),
    "sampling": ("draw_gateset", "gateset_channel"),
    "forking": ("fork_s1_step", "fork_s1_run", "fork_qdrift_step", "fork_qdrift_run"),
}

LAYERS = tuple(LAYER_FUNCTIONS)


class Recorder:
    """In-memory span store with thread-local span stacks."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # (id, parent id or None, name, start, end, attrs or None)
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = self._stack()
        self._generators = {}  # id(gen) -> (gen, content index); holding gen pins its id
        self._contents = {}
        self._t0 = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        home = self._home_stack
        if stack is home:
            return None
        try:
            return home[-1]
        except IndexError:
            return None

    def wrap(self, name: str, fn, annotate=None):
        """Return ``fn`` wrapped so that every call records one span."""
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = annotate(args, kwargs, result) if annotate and result is not None else None
                spans.append((span_id, parent, name, start, end, attrs))

        return traced

    def generator_index(self, gen) -> int:
        """Index of a generator's content: equal generators share an index."""
        entry = self._generators.get(id(gen))
        if entry is None:
            content = (gen.dim, gen.hamiltonian.tobytes(),
                       tuple((op.tobytes(), float(rate)) for op, rate in gen.terms))
            index = self._contents.setdefault(content, len(self._contents))
            entry = self._generators[id(gen)] = (gen, index)
        return entry[1]

    def _annotators(self, functions: dict) -> dict:
        def sdp_solution(args, kwargs, sol):
            return {"iterations": int(sol.iterations), "gap": float(sol.gap)}

        out = {"sdp.solve_sdp": sdp_solution, "norms.diamond_norm_solution": sdp_solution}
        term = functions.get("lindblad.constituent_channel")
        if term is not None:
            signature = inspect.signature(term)

            def term_key(args, kwargs, result):
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    a = bound.arguments
                    return {"key": [self.generator_index(a["gen"]), int(a["k"]),
                                    float(a["dt"]), bool(a["with_rate"])]}
                except (AttributeError, KeyError, TypeError):
                    return None

            out["lindblad.constituent_channel"] = term_key
        return out

    def install(self, package: str = "lindsim") -> list:
        """Wrap every layer function in every namespace of ``package`` that binds it.

        Returns the names of layer functions that could not be found; they are
        also kept in ``self.missing``.
        """
        importlib.import_module(package)
        functions = {}
        for module_name, names in LAYER_FUNCTIONS.items():
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.missing.extend(f"{module_name}.{n}" for n in names)
                continue
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    functions[f"{module_name}.{name}"] = fn
                else:
                    self.missing.append(f"{module_name}.{name}")
        annotators = self._annotators(functions)
        wrappers = {id(fn): self.wrap(span, fn, annotators.get(span))
                    for span, fn in functions.items()}
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == package or n.startswith(package + ".")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        return self.missing

    def dump(self, path: str) -> None:
        doc = {
            "run_id": self.run_id,
            "missing": self.missing,
            "spans": [[i, p, n, round(s - self._t0, 7), round(e - self._t0, 7), a]
                      for i, p, n, s, e, a in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Per-layer metrics from a span dump
# ---------------------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover.

    Children on other threads may overlap each other, so the covered part is
    the union of the child intervals, not their sum.
    """
    children = {}
    for span_id, parent, _name, start, end, _attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {span_id: (end - start) - covered_length(children.get(span_id, ()), start, end)
            for span_id, _parent, _name, start, end, _attrs in spans}


FORMULA_CHANNELS = tuple(f"formulas.{n}" for n in LAYER_FUNCTIONS["formulas"])
FORK_RUNS = tuple(f"forking.{n}" for n in LAYER_FUNCTIONS["forking"])
DIAMOND = ("norms.diamond_norm", "norms.diamond_norm_solution")


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics (name -> number) from a span dump made by ``Recorder.dump``."""
    spans = doc["spans"]
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def self_s(*names):
        return sum(own[s[0]] for n in names for s in by_name.get(n, ()))

    def inclusive_s(*names):
        return sum(s[4] - s[3] for n in names for s in by_name.get(n, ()))

    def attr(name, key):
        return [s[5][key] for s in by_name.get(name, ()) if s[5] and key in s[5]]

    solves = by_name.get("norms.diamond_norm_solution", ())
    solve_ms = [1000.0 * (s[4] - s[3]) for s in solves]
    term_keys = [tuple(k) for k in attr("lindblad.constituent_channel", "key")]
    term_calls = calls("lindblad.constituent_channel")
    metrics = {
        "sdp.solve_sdp.self_s": self_s("sdp.solve_sdp"),
        "sdp.solve_sdp.iterations": sum(attr("sdp.solve_sdp", "iterations")),
        "norms.diamond_norm.calls": len(solves),
        "norms.diamond_norm.self_s": self_s(*DIAMOND),
        "norms.diamond_norm.ms_p50": statistics.median(solve_ms) if solve_ms else 0.0,
        "norms.diamond_norm.gap_max": max(attr("norms.diamond_norm_solution", "gap"), default=0.0),
        "norms.generator_stats.s": inclusive_s("norms.generator_stats"),
        "lindblad.exact_channel.s": inclusive_s("lindblad.exact_channel"),
        "lindblad.constituent_channel.calls": term_calls,
        "lindblad.constituent_channel.self_s": self_s("lindblad.constituent_channel"),
        "lindblad.constituent_channel.unique_frac":
            len(set(term_keys)) / term_calls if term_calls else 0.0,
        "linalg.mat_exp.calls": calls("linalg.mat_exp"),
        "linalg.mat_exp.self_s": self_s("linalg.mat_exp"),
        "formulas.channels.calls": calls(*FORMULA_CHANNELS),
        "formulas.channels.self_s": self_s(*FORMULA_CHANNELS),
        "sampling.draw_gateset.calls": calls("sampling.draw_gateset"),
        "sampling.draw_gateset.self_s": self_s("sampling.draw_gateset"),
        "sampling.gateset_channel.calls": calls("sampling.gateset_channel"),
        "sampling.gateset_channel.self_s": self_s("sampling.gateset_channel"),
        "forking.runs.calls": calls(*FORK_RUNS),
        "forking.runs.self_s": self_s(*FORK_RUNS),
        "harness.run_sweep.self_s": self_s("harness.run_sweep"),
        "harness.validate_all.self_s": self_s("harness.validate_all"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            own[s[0]] for s in spans if s[2].split(".", 1)[0] == layer)
    metrics["trace.spans"] = len(spans)
    metrics["trace.missing_layers"] = len(doc.get("missing", ()))
    return metrics


def dominant_layer(metrics: dict) -> str:
    """The layer with the largest self time."""
    return max(LAYERS, key=lambda layer: metrics[f"layer.{layer}.self_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Trace one lindsim CLI invocation.")
    parser.add_argument("--out", required=True, help="where to write the span dump (JSON)")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    recorder = Recorder(args.run_id)
    for name in recorder.install():
        print(f"trace: layer function {name} is missing", file=sys.stderr)
    cli = importlib.import_module("lindsim.cli")
    try:
        status = cli.main(cli_args)
    finally:
        recorder.dump(args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
