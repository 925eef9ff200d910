"""Batch front-end: parse a config, run checks, emit machine-readable reports.

Exit codes: 0 all requested checks passed, 1 usage or input error,
2 at least one verification failed.  Report rows are written as
``report_<check>.csv`` (or ``.json``) plus a ``summary.json``; CSV floats
use the shortest round-trip decimal representation.  A check passes iff
every boolean cell of its report is true; an empty cell is no verdict.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .ambiguity import FamilyInvalid, MomentSummary, mean_bounds, moment_summary
from .config import CHECKS, ConfigError, ExperimentConfig, parse_config
from .engine import (
    PolicyIncomplete,
    SupportOverflow,
    expectation_under_policy,  # unused here; kept bound for perfbench's span tracer
    expectations_under_policy,
    extract_argmax_policy,
    iid_sum_expectation,  # unused here; kept bound for perfbench's span tracer
    lower_iid_sum_expectation,  # unused here; kept bound for perfbench's span tracer
    payoff_expectations,
)
from .lln_rates import (
    BOUND_TOL,
    ROUND_TOL,
    IntervalMaxResult,
    fang_bound,
    improved_distance_bound,
    interval_distance_phi,
    interval_max,
    rate_reports,
    verdict,
)
from .measures import (
    MartingaleDecomposition,
    PathMeasure,
    chatterji_check,
    conditional_means,
    construct_pstar,
    history_parity_measure,
    lower_bound_reports,
    prop2_check,
    sample_path_sums,
    sample_paths,  # unused here; kept bound for perfbench's span tracer
    uniform_mixture,
)

__all__ = ["main", "run"]

_CHATTERJI_PS = (1.0, 1.25, 1.5, 1.75, 2.0)


def _alpha_tag(alpha: float) -> str:
    return format(alpha, "g")


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_report(path: Path, rows: list[dict], fmt: str) -> Path:
    """Write rows under the columns of the first row, in its key order."""
    if fmt == "json":
        out = path.with_suffix(".json")
        with out.open("w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        return out
    out = path.with_suffix(".csv")
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for row in rows:
            writer.writerow([_cell(v) for v in row.values()])
    return out


def _passed(rows: list[dict]) -> bool:
    """A check passes iff every ``bool`` cell is true; empty (``None``) cells are no verdicts."""
    return all(v for row in rows for v in row.values() if isinstance(v, bool))


def _enum_ns(config: ExperimentConfig) -> list[int]:
    ns = [n for n in config.n_schedule if n <= config.enum_horizon]
    return ns or [config.enum_horizon]


class _RunPlan:
    """Values the checks of one run share, each computed once, on first use.

    ``limit`` is the search for ``max phi``, whose maximizer pins ``pstar``, the run's one P* measure;
    ``expectations`` are ``E_up`` of ``phi``, ``-phi`` and the squared distance to the mean interval
    at ``S_n/n`` over the schedule, by one sweep; ``e_pstars`` the P* values of one forward pass (the
    schedule for ``pstar``, ``mc_horizon`` for ``mc``); ``moments`` the moment summary,
    and ``diagnostics(n)`` the enumerated measures that ``chatterji`` and ``prop2`` both read.
    """

    def __init__(self, config: ExperimentConfig, requested: Sequence[str]):
        self._config, self._requested = config, requested
        self._diagnostics: dict[int, list[tuple[PathMeasure, MartingaleDecomposition]]] = {}

    @functools.cached_property
    def limit(self) -> IntervalMaxResult:
        return interval_max(self._config.phi, *mean_bounds(self._config.family))

    @functools.cached_property
    def expectations(self) -> tuple[tuple[float, ...], ...]:
        c = self._config
        payoffs = (c.phi, lambda x: -c.phi(x), interval_distance_phi(c.family))
        return payoff_expectations(c.family, payoffs, c.n_schedule, c.state_cap)

    @functools.cached_property
    def pstar(self) -> PathMeasure:
        c = self._config
        return construct_pstar(c.family, self.limit.argmax_r, max(*c.n_schedule, c.mc_horizon, c.enum_horizon))

    @functools.cached_property
    def e_pstars(self) -> dict[int, float]:
        c, asked = self._config, self._requested
        ns = [*(c.n_schedule if "pstar" in asked else ()), *((c.mc_horizon,) if "mc" in asked else ())]
        return dict(zip(ns, expectations_under_policy(c.family, c.phi, ns, self.pstar, c.state_cap)))

    @functools.cached_property
    def moments(self) -> MomentSummary:
        return moment_summary(self._config.family, self._config.alphas)

    def diagnostics(self, n: int) -> list[tuple[PathMeasure, MartingaleDecomposition]]:
        """P*, the parity rule and the uniform mixture at horizon n, each with its exact decomposition."""
        if n not in self._diagnostics:
            c = self._config
            measures = [self.pstar, history_parity_measure(c.family, n), uniform_mixture(c.family, n)]
            self._diagnostics[n] = [(m, conditional_means(c.family, m, n, c.state_cap)) for m in measures]
        return self._diagnostics[n]


def _check_eval(config: ExperimentConfig, plan: _RunPlan):
    uppers, negated, _ = plan.expectations
    rows = []
    for n, upper, lower in zip(config.n_schedule, uppers, (-v for v in negated)):
        rows.append(
            {
                "n": n,
                "expectation": upper,
                "lower_expectation": lower,
                "holds_order": verdict(lower, upper, ROUND_TOL),
            }
        )
    return rows


def _check_sweep(config: ExperimentConfig, plan: _RunPlan):
    reports = rate_reports(config.phi, config.n_schedule, plan.expectations[0], plan.limit.max_value, plan.moments)
    rows = []
    for rep in reports:
        row = {"n": rep.n, "expectation": rep.expectation, "limit": rep.limit, "gap": rep.gap}
        for a in config.alphas:
            row[f"bound_theorem3_{_alpha_tag(a)}"] = rep.bound_theorem3[a]
            row[f"holds_theorem3_{_alpha_tag(a)}"] = rep.theorem3_holds[a]
        row["bound_corollary"] = rep.bound_corollary
        row["holds_corollary"] = rep.corollary_holds
        rows.append(row)
    return rows


def _check_variance(config: ExperimentConfig, plan: _RunPlan):
    summary = plan.moments
    rows = []
    for n, dist in zip(config.n_schedule, plan.expectations[2]):
        improved = improved_distance_bound(summary.sigma_bar_sq, n)
        fang = fang_bound(summary.sigma_bar_sq, summary.mu_spread, n)
        rows.append(
            {
                "n": n,
                "mu_lower": summary.mu_lower,
                "mu_upper": summary.mu_upper,
                "sigma_bar_sq": summary.sigma_bar_sq,
                "sigma_bar_argmin": summary.sigma_bar_argmin,
                "dist_sq_moment": dist,
                "dist_lipschitz": interval_distance_phi(config.family).lipschitz_constant,
                "improved_bound": improved,
                "fang_bound": fang,
                "holds_improved": verdict(dist, improved, BOUND_TOL),
                "holds_fang": verdict(dist, fang, BOUND_TOL),
                "holds_ordering": verdict(improved, fang, BOUND_TOL),
            }
        )
    return rows


def _argmax_measure(config: ExperimentConfig, n: int) -> PathMeasure:
    policy = extract_argmax_policy(config.family, n, config.phi, config.state_cap)
    return PathMeasure.from_policy(policy, len(config.family.members), name="argmax-policy")


def _check_chatterji(config: ExperimentConfig, plan: _RunPlan):
    rows = []
    for n in _enum_ns(config):
        for measure, dec in plan.diagnostics(n):
            for p in _CHATTERJI_PS:
                rep = chatterji_check(
                    config.family, measure, n, p, config.state_cap, decomposition=dec
                )
                rows.append(
                    {
                        "measure": rep.measure_name,
                        "n": rep.n,
                        "p": rep.p,
                        "lhs": rep.lhs,
                        "rhs": rep.rhs,
                        "holds": rep.holds,
                        "chain_bound": rep.chain_bound,
                        "holds_chain": rep.chain_holds,
                    }
                )
    return rows


def _check_prop2(config: ExperimentConfig, plan: _RunPlan):
    rows = []
    for n in _enum_ns(config):
        # the argmax measure is enumerated here only (chatterji does not read it), but
        # built first, so a state-cap failure names the backward pass as it always has
        argmax = _argmax_measure(config, n)
        for measure, dec in [*plan.diagnostics(n), (argmax, None)]:
            rep = prop2_check(config.family, measure, n, config.state_cap, decomposition=dec)
            rows.append(
                {
                    "measure": rep.measure_name,
                    "n": rep.n,
                    "ok": rep.ok,
                    "worst_excess": rep.worst_excess,
                    "mu_lower": rep.mu_lower,
                    "mu_upper": rep.mu_upper,
                }
            )
    return rows


def _check_pstar(config: ExperimentConfig, plan: _RunPlan):
    rows = []
    reports = lower_bound_reports(
        config.family, config.phi, config.n_schedule, plan.limit, plan.pstar,
        [plan.e_pstars[n] for n in config.n_schedule], plan.expectations[0], plan.moments.c_alpha,
    )
    for rep in reports:
        row = {
            "n": rep.n,
            "mu_star": rep.mu_star,
            "phi_mu_star": rep.phi_mu_star,
            "e_pstar": rep.e_pstar,
            "e_upper": rep.e_upper,
            "lower_gap": rep.lower_gap,
            "step_mean_error": rep.step_mean_error,
            "holds_dominance": rep.upper_dominates,
        }
        for a in config.alphas:
            row[f"bound_theorem3_{_alpha_tag(a)}"] = rep.bound_theorem3[a]
            row[f"holds_lower_{_alpha_tag(a)}"] = rep.lower_holds[a]
        row["holds_pinning"] = verdict(rep.step_mean_error, 0.0, ROUND_TOL)
        rows.append(row)
    return rows


def _check_mc(config: ExperimentConfig, plan: _RunPlan):
    n = config.mc_horizon
    count = config.mc_samples
    sums = sample_path_sums(config.family, plan.pstar, n, count, config.seed)
    values = np.asarray(config.phi(sums / n), dtype=float)
    sample_mean = float(values.mean())
    sample_std = float(values.std(ddof=1))
    tolerance = 4.0 * sample_std / math.sqrt(count)
    abs_error = abs(sample_mean - plan.e_pstars[n])
    row = {
        "n": n,
        "samples": count,
        "seed": config.seed,
        "exact": plan.e_pstars[n],
        "sample_mean": sample_mean,
        "sample_std": sample_std,
        "abs_error": abs_error,
        "tolerance": tolerance,
        "holds": bool(abs_error <= tolerance),
    }
    return [row]


# Check name -> (row builder, subcommand help).  A builder returns its report
# rows as dicts in column order; the report's columns are the first row's keys.
_CHECK_TABLE = {
    "eval": (_check_eval, "upper and lower expectations per n"),
    "sweep": (_check_sweep, "gap-versus-n sweep against every rate bound"),
    "variance": (_check_variance, "upper variance and distance-moment bounds"),
    "chatterji": (_check_chatterji, "martingale-difference moment inequality"),
    "prop2": (_check_prop2, "conditional-mean containment"),
    "pstar": (_check_pstar, "pinned product measure and the lower bound chain"),
    "mc": (_check_mc, "seeded Monte Carlo consistency"),
}


def run(config: ExperimentConfig, out_dir: Path, checks: Sequence[str] | None = None) -> int:
    """Execute the requested checks, then write reports and a summary; return the exit code.

    Every check runs before the first file is written, so a run that exits 1 writes nothing.
    """
    requested = tuple(checks) if checks is not None else config.checks
    unknown = [c for c in requested if c not in CHECKS]
    if unknown:
        print(f"error: unknown check name {unknown[0]!r}", file=sys.stderr)
        return 1
    plan = _RunPlan(config, requested)
    results = {}
    for name in (c for c in CHECKS if c in requested):
        try:
            results[name] = _CHECK_TABLE[name][0](config, plan)
        except (SupportOverflow, PolicyIncomplete, FamilyInvalid, ValueError) as exc:
            print(f"error: check '{name}': {exc}", file=sys.stderr)
            return 1
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict[str, Any] = {
        "tool": "sublln",
        "version": __version__,
        "family": config.family_name,
        "phi": config.phi.name,
        "seed": config.seed,
        "checks": {},
    }
    overall = True
    for name, rows in results.items():
        report = _write_report(out_dir / f"report_{name}", rows, config.format)
        passed = _passed(rows)
        overall = overall and passed
        summary["checks"][name] = {"passed": passed, "rows": len(rows), "report": report.name}
        print(f"{name}: {'PASS' if passed else 'FAIL'} ({report.name})")
    summary["overall_passed"] = overall
    with (out_dir / "summary.json").open("w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return 0 if overall else 2


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="sublln",
        description="Worst-case expectation engine and rate-bound verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    helps = {name: _CHECK_TABLE[name][1] for name in CHECKS}
    helps["verify-all"] = "every check configured in the config file"
    for name, help_text in helps.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="path to a JSON config")
        p.add_argument("--out", type=Path, default=Path("reports"), help="report directory")
        p.add_argument("--format", choices=("csv", "json"), default=None, help="override report format")
        p.add_argument("--seed", type=_u64, default=None, help="override the config seed")
        p.add_argument("--state-cap", type=int, default=None, help="override the state cap")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_bytes()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    overrides = {}
    if args.format is not None:
        overrides["format"] = args.format
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.state_cap is not None:
        if args.state_cap < 1:
            print("error: --state-cap must be >= 1", file=sys.stderr)
            return 1
        overrides["state_cap"] = args.state_cap
    if overrides:
        config = dataclasses.replace(config, **overrides)
    checks = None if args.command == "verify-all" else [args.command]
    return run(config, args.out, checks)


if __name__ == "__main__":
    raise SystemExit(main())
