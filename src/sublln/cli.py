"""Batch front-end: parse a config, run checks, emit machine-readable reports.

Exit codes: 0 all requested checks passed, 1 usage or input error,
2 at least one verification failed.  Report rows are written as
``report_<check>.csv`` (or ``.json``) plus a ``summary.json``; CSV floats
use the shortest round-trip decimal representation.
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
from .ambiguity import FamilyInvalid, mean_bounds, moment_summary
from .config import CHECKS, ConfigError, ExperimentConfig, parse_config
from .engine import (
    PolicyIncomplete,
    SupportOverflow,
    expectation_under_policy,
    extract_argmax_policy,
    iid_sum_expectation,  # unused here; kept bound for perfbench's span tracer
    iid_sum_expectations,
    lower_iid_sum_expectation,  # unused here; kept bound for perfbench's span tracer
)
from .lln_rates import (
    BOUND_TOL,
    fang_bound,
    improved_distance_bound,
    interval_distance_phi,
    interval_max,
    rate_sweep,
)
from .measures import (
    PathMeasure,
    chatterji_check,
    conditional_means,
    construct_pstar,
    history_parity_measure,
    lower_bound_checks,
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


def _write_report(path: Path, columns: Sequence[str], rows: list[dict], fmt: str) -> Path:
    if fmt == "json":
        out = path.with_suffix(".json")
        with out.open("w") as fh:
            json.dump([{c: r.get(c) for c in columns} for r in rows], fh, indent=2)
            fh.write("\n")
        return out
    out = path.with_suffix(".csv")
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])
    return out


def _enum_ns(config: ExperimentConfig) -> list[int]:
    ns = [n for n in config.n_schedule if n <= config.enum_horizon]
    return ns or [config.enum_horizon]


class _Pstar:
    """Pinned product measures of one run; the limit maximizer is found once, on first use."""

    def __init__(self, config: ExperimentConfig):
        self._config = config

    @functools.cached_property
    def mu_star(self) -> float:
        lo, hi = mean_bounds(self._config.family)
        return interval_max(self._config.phi, lo, hi).argmax_r

    def __call__(self, n: int) -> PathMeasure:
        return construct_pstar(self._config.family, self.mu_star, n)


def _check_eval(config: ExperimentConfig, pstar: _Pstar):
    phi, ns = config.phi, config.n_schedule
    uppers = iid_sum_expectations(config.family, phi, ns, config.state_cap)
    lowers = [-v for v in iid_sum_expectations(config.family, lambda x: -phi(x), ns, config.state_cap)]
    rows = []
    for n, upper, lower in zip(ns, uppers, lowers):
        rows.append(
            {
                "n": n,
                "expectation": upper,
                "lower_expectation": lower,
                "holds_order": bool(lower <= upper + 1e-12),
            }
        )
    columns = ["n", "expectation", "lower_expectation", "holds_order"]
    return columns, rows, all(r["holds_order"] for r in rows)


def _check_sweep(config: ExperimentConfig, pstar: _Pstar):
    reports = rate_sweep(
        config.family, config.phi, config.n_schedule, config.alphas, config.state_cap
    )
    columns = ["n", "expectation", "limit", "gap"]
    for a in config.alphas:
        columns += [f"bound_theorem3_{_alpha_tag(a)}", f"holds_theorem3_{_alpha_tag(a)}"]
    columns += ["bound_corollary", "holds_corollary"]
    rows = []
    for rep in reports:
        row = {"n": rep.n, "expectation": rep.expectation, "limit": rep.limit, "gap": rep.gap}
        for a in config.alphas:
            row[f"bound_theorem3_{_alpha_tag(a)}"] = rep.bound_theorem3[a]
            row[f"holds_theorem3_{_alpha_tag(a)}"] = rep.theorem3_holds[a]
        row["bound_corollary"] = rep.bound_corollary
        row["holds_corollary"] = rep.corollary_holds
        rows.append(row)
    return columns, rows, all(rep.all_hold for rep in reports)


def _check_variance(config: ExperimentConfig, pstar: _Pstar):
    summary = moment_summary(config.family, config.alphas)
    dist_phi = interval_distance_phi(config.family)
    dists = iid_sum_expectations(config.family, dist_phi, config.n_schedule, config.state_cap)
    rows = []
    for n, dist in zip(config.n_schedule, dists):
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
                "dist_lipschitz": dist_phi.lipschitz_constant,
                "improved_bound": improved,
                "fang_bound": fang,
                "holds_improved": bool(dist <= improved + BOUND_TOL),
                "holds_fang": bool(dist <= fang + BOUND_TOL),
                "holds_ordering": bool(improved <= fang + BOUND_TOL),
            }
        )
    columns = [
        "n",
        "mu_lower",
        "mu_upper",
        "sigma_bar_sq",
        "sigma_bar_argmin",
        "dist_sq_moment",
        "dist_lipschitz",
        "improved_bound",
        "fang_bound",
        "holds_improved",
        "holds_fang",
        "holds_ordering",
    ]
    passed = all(r["holds_improved"] and r["holds_fang"] and r["holds_ordering"] for r in rows)
    return columns, rows, passed


def _diagnostic_measures(
    config: ExperimentConfig, pstar: _Pstar, n: int, with_argmax: bool
) -> list[PathMeasure]:
    measures = [
        pstar(n),
        history_parity_measure(config.family, n),
        uniform_mixture(config.family, n),
    ]
    if with_argmax:
        policy = extract_argmax_policy(config.family, n, config.phi, config.state_cap)
        measures.append(
            PathMeasure.from_policy(policy, len(config.family.members), name="argmax-policy")
        )
    return measures


def _check_chatterji(config: ExperimentConfig, pstar: _Pstar):
    rows = []
    for n in _enum_ns(config):
        for measure in _diagnostic_measures(config, pstar, n, with_argmax=False):
            dec = conditional_means(config.family, measure, n, config.state_cap)
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
    columns = ["measure", "n", "p", "lhs", "rhs", "holds", "chain_bound", "holds_chain"]
    return columns, rows, all(r["holds"] and r["holds_chain"] for r in rows)


def _check_prop2(config: ExperimentConfig, pstar: _Pstar):
    rows = []
    for n in _enum_ns(config):
        for measure in _diagnostic_measures(config, pstar, n, with_argmax=True):
            rep = prop2_check(config.family, measure, n, config.state_cap)
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
    columns = ["measure", "n", "ok", "worst_excess", "mu_lower", "mu_upper"]
    return columns, rows, all(r["ok"] for r in rows)


def _check_pstar(config: ExperimentConfig, pstar: _Pstar):
    columns = [
        "n",
        "mu_star",
        "phi_mu_star",
        "e_pstar",
        "e_upper",
        "lower_gap",
        "step_mean_error",
        "holds_dominance",
    ]
    for a in config.alphas:
        columns += [f"bound_theorem3_{_alpha_tag(a)}", f"holds_lower_{_alpha_tag(a)}"]
    columns.append("holds_pinning")
    rows = []
    reports = lower_bound_checks(
        config.family, config.phi, config.n_schedule, alphas=config.alphas, state_cap=config.state_cap
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
            "holds_pinning": bool(rep.step_mean_error <= 1e-12),
        }
        for a in config.alphas:
            row[f"bound_theorem3_{_alpha_tag(a)}"] = rep.bound_theorem3[a]
            row[f"holds_lower_{_alpha_tag(a)}"] = rep.lower_holds[a]
        rows.append(row)
    passed = all(
        r["holds_dominance"]
        and r["holds_pinning"]
        and all(r[f"holds_lower_{_alpha_tag(a)}"] for a in config.alphas)
        for r in rows
    )
    return columns, rows, passed


def _check_mc(config: ExperimentConfig, pstar: _Pstar):
    n = config.mc_horizon
    count = config.mc_samples
    measure = pstar(n)
    exact = expectation_under_policy(config.family, n, config.phi, measure, config.state_cap)
    sums = sample_path_sums(config.family, measure, n, count, config.seed)
    values = np.asarray(config.phi(sums / n), dtype=float)
    sample_mean = float(values.mean())
    sample_std = float(values.std(ddof=1))
    tolerance = 4.0 * sample_std / math.sqrt(count)
    abs_error = abs(sample_mean - exact)
    row = {
        "n": n,
        "samples": count,
        "seed": config.seed,
        "exact": exact,
        "sample_mean": sample_mean,
        "sample_std": sample_std,
        "abs_error": abs_error,
        "tolerance": tolerance,
        "holds": bool(abs_error <= tolerance),
    }
    columns = ["n", "samples", "seed", "exact", "sample_mean", "sample_std", "abs_error", "tolerance", "holds"]
    return columns, [row], row["holds"]


_CHECK_FUNCS = {
    "eval": _check_eval,
    "sweep": _check_sweep,
    "variance": _check_variance,
    "chatterji": _check_chatterji,
    "prop2": _check_prop2,
    "pstar": _check_pstar,
    "mc": _check_mc,
}


def run(config: ExperimentConfig, out_dir: Path, checks: Sequence[str] | None = None) -> int:
    """Execute the requested checks, write reports and a summary; return the exit code."""
    requested = tuple(checks) if checks is not None else config.checks
    unknown = [c for c in requested if c not in CHECKS]
    if unknown:
        print(f"error: unknown check name {unknown[0]!r}", file=sys.stderr)
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
    pstar = _Pstar(config)
    for name in (c for c in CHECKS if c in requested):
        try:
            columns, rows, passed = _CHECK_FUNCS[name](config, pstar)
        except (SupportOverflow, PolicyIncomplete, FamilyInvalid, ValueError) as exc:
            print(f"error: check '{name}': {exc}", file=sys.stderr)
            return 1
        report = _write_report(out_dir / f"report_{name}", columns, rows, config.format)
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
    descriptions = {
        "eval": "upper and lower expectations per n",
        "sweep": "gap-versus-n sweep against every rate bound",
        "variance": "upper variance and distance-moment bounds",
        "chatterji": "martingale-difference moment inequality",
        "prop2": "conditional-mean containment",
        "pstar": "pinned product measure and the lower bound chain",
        "mc": "seeded Monte Carlo consistency",
        "verify-all": "every check configured in the config file",
    }
    for name in CHECKS + ("verify-all",):
        p = sub.add_parser(name, help=descriptions[name])
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
