"""Checks on the outputs of one CLI run.

An operation is one sweep point or one validate check.  A nonzero exit, or
output that is missing or cannot be parsed, fails every operation the run
was expected to perform.

* Exact-mode sweep points: ``status == ok``, ``epsilon_empirical <=
  epsilon_bound`` and ``epsilon_empirical`` within ``DIAMOND_ABS_TOL`` of the
  stored reference.
* Sampled points: ``epsilon_empirical`` within ``SAMPLED_SIGMAS`` of its own
  ``stat_err`` from the exact-mixture reference for the same model and N.
  The test is statistical because the sampled schedules for a given seed are
  expected to change.
* Validate runs: every expected check is reported, and every check line
  reads PASS.
"""

from __future__ import annotations

import csv
import math
import os
import re
from dataclasses import dataclass, field

DIAMOND_ABS_TOL = 1e-6  # lindsim.TOL.diamond_abs_tol at the commit that recorded the reference
SAMPLED_SIGMAS = 5.0

_CHECK_LINE = re.compile(r"^(PASS|FAIL)\s+(\S+)/(\S+)\s")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def _all_failed(expected: int, why: str) -> Outcome:
    return Outcome(attempted=expected, failed=expected, problems=[why])


def _number(text: str) -> float:
    value = float(text)
    if math.isnan(value):
        raise ValueError("nan")
    return value


def check_sweep(points, returncode: int, csv_path: str, reference: dict,
                sampled: bool) -> Outcome:
    """Check one sweep run.

    ``points`` lists the expected (method, n) pairs; ``reference`` maps
    ``"method/n"`` to the exact-mode ``epsilon_empirical``.
    """
    expected = len(points)
    if returncode != 0:
        return _all_failed(expected, f"exit code {returncode}")
    if not os.path.exists(csv_path):
        return _all_failed(expected, f"missing {os.path.basename(csv_path)}")
    try:
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        return _all_failed(expected, f"unreadable CSV: {exc}")
    by_point = {}
    for row in rows:
        try:
            by_point[(row["method"], int(row["n"]))] = row
        except (KeyError, TypeError, ValueError):
            return _all_failed(expected, f"unparsable CSV row {row}")

    out = Outcome(attempted=expected)
    for method, n in points:
        key = f"{method}/{n}"
        problem = _check_point(by_point.get((method, n)), reference.get(key), sampled)
        if problem:
            out.failed += 1
            out.problems.append(f"{key}: {problem}")
    return out


def _check_point(row, ref, sampled: bool):
    """The reason a sweep point fails, or None."""
    if row is None:
        return "missing from the CSV"
    if row.get("status") != "ok":
        return f"status {row.get('status')!r}"
    if ref is None:
        return "no reference value"
    try:
        eps = _number(row["epsilon_empirical"])
        bound = _number(row["epsilon_bound"])
        stat_err = _number(row["stat_err"]) if sampled else None
    except (KeyError, TypeError, ValueError):
        return "unparsable epsilon_empirical, epsilon_bound or stat_err"
    if sampled:
        if abs(eps - ref) > SAMPLED_SIGMAS * stat_err:
            return (f"epsilon_empirical {eps:.6g} is {abs(eps - ref):.3g} from the "
                    f"exact mixture {ref:.6g}, more than {SAMPLED_SIGMAS:g} x stat_err {stat_err:.3g}")
        return None
    if eps > bound:
        return f"epsilon_empirical {eps:.6g} exceeds epsilon_bound {bound:.6g}"
    if abs(eps - ref) > DIAMOND_ABS_TOL:
        return f"epsilon_empirical {eps:.12g} differs from reference {ref:.12g}"
    return None


def check_validate(expected_checks, returncode: int, stdout: str) -> Outcome:
    """Check one validate run from its printed report."""
    expected = len(expected_checks)
    if returncode != 0:
        return _all_failed(expected, f"exit code {returncode}")
    results = {}
    for line in stdout.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            results[match.group(3)] = match.group(1)
    if not results:
        return _all_failed(expected, "no check lines in the output")
    out = Outcome(attempted=max(expected, len(results)))
    for name in expected_checks:
        if name not in results:
            out.failed += 1
            out.problems.append(f"{name}: not reported")
    for name, flag in results.items():
        if flag != "PASS":
            out.failed += 1
            out.problems.append(f"{name}: {flag}")
    return out
