"""One sublln benchmark workload, run in its own process.

Normally started by ``perfbench/run.py``, which pins BLAS threads to one and
puts the checkout's ``src`` first on ``PYTHONPATH``::

    python3 perfbench/workloads.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/workloads.py --workload NAME --seed N --setup-only

Every workload is a closed loop with one client: an op starts only after the
previous one has finished.  A round is one pass over the workload's fixed
input set; rounds run until ``--seconds`` have passed, and the round in
progress is always completed, so every statistic is taken over whole rounds.
Every op's output is checked against references produced by the seed
commit (``references.json``) and against cross-checks that cost no extra
program work; an op that raises or fails a check is counted as failed, never
skipped or retried.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time starts before numpy and sublln are imported

import argparse
import contextlib
import csv
import dataclasses
import functools
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import sublln
from sublln import ambiguity, cli, corpus, engine, lln_rates, measures
from sublln.config import parse_config

from tracer import CTX, LAYER, OP, RULES, Tracer

TOL = 1e-12  # ROADMAP aim 1: |value - reference| <= TOL * max(1, |reference|)
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Report columns of the ``mc`` check that depend on the seed; they are checked
# through that report's ``holds`` column instead.
_MC_SEED_COLUMNS = ("seed", "sample_mean", "sample_std", "abs_error", "tolerance")


def _jsonable(value):
    """Round-trip through JSON so outputs compare with stored references."""
    return json.loads(json.dumps(value))


def compare(got, ref, where: str, errors: list[str]) -> None:
    """Append a message for every leaf of ``got`` that differs from ``ref``."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(got) != sorted(ref):
            errors.append(f"{where}: keys {sorted(got)} != {sorted(ref)}")
            return
        for key in ref:
            compare(got[key], ref[key], f"{where}.{key}", errors)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            errors.append(f"{where}: length {len(got)} != {len(ref)}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            compare(g, r, f"{where}[{i}]", errors)
    elif isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not abs(got - ref) <= TOL * max(1.0, abs(ref)):
            errors.append(f"{where}: {got!r} differs from reference {ref!r}")
    elif got != ref or type(got) is not type(ref):
        errors.append(f"{where}: {got!r} != reference {ref!r}")


def close_to(got: float, want: float, where: str, errors: list[str]) -> None:
    compare(float(got), float(want), where, errors)


@functools.cache
def _binomial(n: int) -> tuple[list[float], np.ndarray]:
    probs = [float(Fraction(math.comb(n, k), 2**n)) for k in range(n + 1)]
    return probs, np.array([(2 * k - n) / n for k in range(n + 1)])


def binomial_expectation(phi, n: int) -> float:
    """``E[phi(S_n / n)]`` for n fair +-1 coin flips, by the binomial closed form."""
    probs, xs = _binomial(n)
    return math.fsum(p * float(v) for p, v in zip(probs, np.asarray(phi(xs), dtype=float)))


def _parse_cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    if text == "":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _read_report(path: Path) -> list[dict]:
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with path.open(newline="") as fh:
        return [{k: _parse_cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]


# --------------------------------------------------------------------------
# Workloads.  Each one builds its inputs in __init__ (timed as set-up), hands
# out one round of ops, and reduces each op's output to a JSON-comparable
# summary.  ``ops`` yields (label, thunk); a thunk takes no arguments.
# --------------------------------------------------------------------------


class VerifyAll:
    """``sublln.cli.run`` on every shipped config, seed overridden."""

    name = "verify_all"
    tail_percentile = 75  # the middle of the 2nd and 3rd slowest configs, whose ops take about as long

    def __init__(self, root: Path, seed: int, refs: dict):
        self.seed = seed
        self.refs = refs
        self.configs = {}
        for path in sorted((root / "configs").glob("*.json")):
            config = parse_config(path.read_bytes())
            self.configs[path.stem] = dataclasses.replace(config, seed=seed)

    def ops(self, tmp: Path):
        for stem, config in self.configs.items():
            yield stem, lambda c=config, out=tmp / stem: self._run(c, out)

    @staticmethod
    def _run(config, out_dir: Path):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.run(config, out_dir)
        return code, out_dir

    def summarize(self, label, output) -> dict:
        code, out_dir = output
        summary = json.loads((out_dir / "summary.json").read_text())
        reports = {}
        for check, info in summary["checks"].items():
            rows = _read_report(out_dir / info["report"])
            if check == "mc":
                rows = [{k: v for k, v in row.items() if k not in _MC_SEED_COLUMNS} for row in rows]
            reports[check] = rows
        return _jsonable({
            "exit_code": code,
            "summary": {k: v for k, v in summary.items() if k != "seed"},
            "reports": reports,
        })

    def check(self, label, output) -> list[str]:
        errors: list[str] = []
        got = self.summarize(label, output)
        compare(got, self.refs[label], label, errors)
        out_dir = output[1]
        summary = json.loads((out_dir / "summary.json").read_text())
        if summary.get("seed") != self.seed:
            errors.append(f"{label}: summary seed {summary.get('seed')!r} != {self.seed}")
        if "mc" in summary["checks"]:
            for row in _read_report(out_dir / summary["checks"]["mc"]["report"]):
                if row["seed"] != self.seed:
                    errors.append(f"{label}: mc seed {row['seed']!r} != {self.seed}")
        config = self.configs[label]
        if config.family_name == "fair_coin":
            for check, columns in (("eval", ("expectation", "lower_expectation")), ("sweep", ("expectation",))):
                for row in got["reports"].get(check, []):
                    want = binomial_expectation(config.phi, row["n"])
                    for column in columns:
                        close_to(row[column], want, f"{label}.{check}.{column}[n={row['n']}] vs binomial", errors)
        return errors


class CorpusSweep:
    """One ``rate_sweep`` per corpus family and catalog shape, doubling n to 1024."""

    name = "corpus_sweep"
    tail_percentile = 93  # the middle of the six three_atom sweeps, the slowest 6 of 42 ops
    schedule = [2**k for k in range(11)]

    def __init__(self, root: Path, seed: int, refs: dict):
        self.refs = refs
        self.inputs = {
            f"{fname}/{i}": (family, phi)
            for fname, family in corpus.corpus_families().items()
            for i, phi in enumerate(corpus.catalog_for(family))
        }

    def ops(self, tmp: Path):
        for label, (family, phi) in self.inputs.items():
            yield label, lambda f=family, p=phi: lln_rates.rate_sweep(f, p, self.schedule)

    def summarize(self, label, reports) -> list:
        return _jsonable([
            {
                "n": r.n,
                "expectation": r.expectation,
                "limit": r.limit,
                "gap": r.gap,
                "bound_theorem3": {str(a): b for a, b in r.bound_theorem3.items()},
                "theorem3_holds": {str(a): h for a, h in r.theorem3_holds.items()},
                "bound_corollary": r.bound_corollary,
                "corollary_holds": r.corollary_holds,
            }
            for r in reports
        ])

    def check(self, label, reports) -> list[str]:
        errors: list[str] = []
        compare(self.summarize(label, reports), self.refs[label], label, errors)
        family, phi = self.inputs[label]
        if family.name == "fair_coin":
            for r in reports:
                close_to(r.expectation, binomial_expectation(phi, r.n), f"{label}[n={r.n}] vs binomial", errors)
        return errors


def fine_lattice_family() -> ambiguity.AmbiguityFamily:
    """Three members on step 0.01 with every atom on a multiple of 0.25.

    Only one coordinate in 25 can be reached, so about 4 % of the dense
    partial-sum states are reachable (three_atom reaches all of its states).
    """
    return ambiguity.AmbiguityFamily.build(
        0.0,
        0.01,
        [
            [(-0.75, 0.3), (0.25, 0.4), (1.0, 0.3)],
            [(-0.5, 0.5), (0.5, 0.5)],
            [(-1.0, 0.2), (0.0, 0.3), (0.75, 0.5)],
        ],
        name="fine_lattice",
    )


class DeepBackward:
    """One ``iid_sum_expectation`` pass per input at the largest horizons."""

    name = "deep_backward"
    tail_percentile = 83  # the middle of the n=4096 passes, the slowest 1 of 3 ops
    state_cap = 40_000_000  # above three_atom's 33,566,721 dense states at n=4096

    def __init__(self, root: Path, seed: int, refs: dict):
        self.refs = refs
        three_atom = corpus.corpus_families()["three_atom"]
        fine = fine_lattice_family()
        self.inputs = {
            "three_atom/1024": (three_atom, corpus.catalog_for(three_atom)[2], 1024),
            "three_atom/4096": (three_atom, corpus.catalog_for(three_atom)[2], 4096),
            "fine_lattice/512": (fine, corpus.catalog_for(fine)[2], 512),
        }

    def ops(self, tmp: Path):
        for label, (family, phi, n) in self.inputs.items():
            yield label, lambda f=family, p=phi, n=n: engine.iid_sum_expectation(f, n, p, self.state_cap)

    def summarize(self, label, value) -> dict:
        return {"value": float(value)}

    def check(self, label, value) -> list[str]:
        errors: list[str] = []
        compare(self.summarize(label, value), self.refs[label], label, errors)
        return errors


WORKLOADS = {w.name: w for w in (VerifyAll, CorpusSweep, DeepBackward)}


# --------------------------------------------------------------------------
# Tracing: which functions are wrapped, and the per-layer metrics derived
# from the spans.  Work counts are computed from each call's arguments with
# the formulas the seed code uses; they are not measured.
# --------------------------------------------------------------------------


def trace_points():
    spans = [(cli, "run", "cli"), (engine, "build_support", "engine.support")]
    for module in (cli, lln_rates, measures, engine):
        spans.append((module, "iid_sum_expectation", "engine.backward"))
    for module in (cli, engine):
        spans.append((module, "extract_argmax_policy", "engine.backward"))
    for module in (cli, measures, engine):
        spans.append((module, "expectation_under_policy", "engine.forward"))
    for module in (cli, lln_rates, measures):
        spans.append((module, "interval_max", "lln_rates.interval_max"))
    spans.append((cli, "moment_summary", "ambiguity.moments"))
    for module, attr in (
        (ambiguity, "upper_variance"), (ambiguity, "moment_c_alpha"),
        (lln_rates, "upper_variance"), (lln_rates, "moment_c_alpha"), (measures, "moment_c_alpha"),
    ):
        spans.append((module, attr, "ambiguity.moments"))
    for module in (cli, measures):
        spans.append((module, "conditional_means", "measures.enumerate"))
    spans.append((cli, "sample_paths", "measures.sample"))
    spans.append((measures, "unit_array", "rng"))
    contexts = [(cli, "lower_iid_sum_expectation"), (engine, "lower_iid_sum_expectation")]
    counted = [(measures.PathMeasure, "mixture_weights")]
    return spans, contexts, counted


def lattice_span(family) -> int:
    coords = [family.member_coords(i) for i in range(len(family.members))]
    return max(int(c.max()) for c in coords) - min(int(c.min()) for c in coords)


def dense_states(family, n: int) -> int:
    """Dense partial-sum states of an n-step pass (``build_support``'s count)."""
    return (n + 1) + lattice_span(family) * n * (n + 1) // 2


class ReachableCounter:
    """Reachable partial-sum states, by the same mask recursion as ``build_support``."""

    def __init__(self):
        self._cumulative: dict = {}

    def __call__(self, family, n: int) -> int:
        counts = self._cumulative.get(family)
        if counts is None or len(counts) <= n:
            coords = [family.member_coords(i) for i in range(len(family.members))]
            k_min = min(int(c.min()) for c in coords)
            shifts = sorted({int(s) - k_min for c in coords for s in c})
            span = lattice_span(family)
            mask = np.ones(1, dtype=bool)
            counts = [1]
            for _ in range(n):
                nxt = np.zeros(mask.size + span, dtype=bool)
                for s in shifts:
                    nxt[s : s + mask.size] |= mask
                mask = nxt
                counts.append(counts[-1] + int(np.count_nonzero(mask)))
            self._cumulative[family] = counts
        return counts[n]


def grid_points(phi, lo: float, hi: float) -> int:
    """Grid size of ``interval_max``, by the seed's step rule."""
    span = hi - lo
    if span == 0.0:
        return 1
    L = phi.lipschitz_constant
    if L == 0.0:
        return 2
    target = 1e-9 * max(1.0, L * span)
    return min(10**6, max(1, math.ceil(span * L / (2.0 * target)))) + 1


PER_LAYER = [
    ("engine.support.calls", "count"),
    ("engine.support.busy_s", "s"),
    ("engine.support.mask_bytes", "bytes"),
    ("engine.backward.calls", "count"),
    ("engine.backward.busy_s", "s"),
    ("engine.backward.state_steps", "count"),
    ("engine.backward.ns_per_state_step", "ns"),
    ("engine.backward.reachable_ratio", "ratio"),
    ("engine.backward.distinct_ratio", "ratio"),
    ("engine.forward.calls", "count"),
    ("engine.forward.busy_s", "s"),
    ("engine.forward.rule_calls", "count"),
    ("lln_rates.interval_max.calls", "count"),
    ("lln_rates.interval_max.busy_s", "s"),
    ("lln_rates.interval_max.grid_points", "count"),
    ("ambiguity.moments.busy_s", "s"),
    ("measures.enumerate.calls", "count"),
    ("measures.enumerate.busy_s", "s"),
    ("measures.enumerate.paths", "count"),
    ("measures.sample.busy_s", "s"),
    ("rng.busy_s", "s"),
    ("rng.draws", "count"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]
COMPUTED = {
    "engine.support.mask_bytes",
    "engine.backward.state_steps",
    "engine.backward.ns_per_state_step",
    "engine.backward.reachable_ratio",
    "lln_rates.interval_max.grid_points",
    "measures.enumerate.paths",
    "rng.draws",
}


def _phi_key(phi):
    return getattr(phi, "name", None) or id(phi)


def layer_metrics(tracer: Tracer, round_of_op: list[int], report_bytes: list[int]) -> dict:
    """Per-round layer totals from the spans; the median over rounds is reported."""
    reachable = ReachableCounter()
    rounds = max(round_of_op) + 1
    per_round = [dict.fromkeys((name for name, _ in PER_LAYER), 0) for _ in range(rounds)]
    cells = [set() for _ in range(rounds)]
    reach = [0] * rounds
    backward_busy = [0.0] * rounds
    for span in tracer.spans:
        layer = span[LAYER]
        if layer == "op":
            continue
        r = round_of_op[span[OP]]
        m = per_round[r]
        busy = Tracer.self_time(span)
        if layer == "cli":
            m["cli.self_s"] += busy
            continue
        if f"{layer}.calls" in m:
            m[f"{layer}.calls"] += 1
        m[f"{layer}.busy_s"] += busy
        if layer == "engine.forward":
            m["engine.forward.rule_calls"] += span[RULES]
        args = Tracer.arguments(span)
        if layer == "engine.support":
            m["engine.support.mask_bytes"] += dense_states(args["family"], args["n"])
        elif layer == "engine.backward":
            family, n = args["family"], args["n"]
            m["engine.backward.state_steps"] += dense_states(family, n)
            reach[r] += reachable(family, n)
            backward_busy[r] += busy
            lower = span[CTX]
            sign, phi = (1, args["phi"]) if lower is None else (-1, lower)
            cells[r].add((family, _phi_key(phi), n, sign))
        elif layer == "lln_rates.interval_max":
            m["lln_rates.interval_max.grid_points"] += grid_points(args["phi"], args["mu_lower"], args["mu_upper"])
        elif layer == "measures.enumerate":
            m["measures.enumerate.paths"] += len(args["family"].union_atoms()[0]) ** args["n"]
        elif layer == "rng":
            m["rng.draws"] += args["count"]
    for r, m in enumerate(per_round):
        steps = m["engine.backward.state_steps"]
        calls = m["engine.backward.calls"]
        m["engine.backward.ns_per_state_step"] = backward_busy[r] * 1e9 / steps if steps else 0.0
        m["engine.backward.reachable_ratio"] = reach[r] / steps if steps else 0.0
        m["engine.backward.distinct_ratio"] = len(cells[r]) / calls if calls else 0.0
        m["cli.report_bytes"] = report_bytes[r]
    return {name: statistics.median(m[name] for m in per_round) for name, _ in PER_LAYER if name != "trace.overhead_s"}


# --------------------------------------------------------------------------
# Measurement loop.
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Phase:
    round_s: list = dataclasses.field(default_factory=list)
    op_s: list = dataclasses.field(default_factory=list)
    op_label: list = dataclasses.field(default_factory=list)
    round_of_op: list = dataclasses.field(default_factory=list)
    report_bytes: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)


def run_phase(workload, seconds: float, tmp_root: Path, tracer: Tracer | None = None) -> Phase:
    phase = Phase()
    start = time.perf_counter()
    while not phase.round_s or time.perf_counter() - start < seconds:
        gc.collect()
        tmp = tmp_root / f"round{len(phase.round_s)}"
        tmp.mkdir(parents=True)
        done, failed = {}, set()
        t_round = time.perf_counter()
        for label, thunk in workload.ops(tmp):
            op_id = len(phase.op_s)
            phase.round_of_op.append(len(phase.round_s))
            t_op = time.perf_counter()
            try:
                done[label] = tracer.run_op(op_id, thunk) if tracer else thunk()
            except Exception as exc:  # a failing op is counted, never retried
                failed.add(label)
                phase.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            phase.op_s.append(time.perf_counter() - t_op)
            phase.op_label.append(label)
            phase.attempted += 1
        phase.round_s.append(time.perf_counter() - t_round)
        phase.report_bytes.append(sum(p.stat().st_size for p in tmp.rglob("*") if p.is_file()))
        for label, output in done.items():
            try:
                errors = workload.check(label, output)
            except Exception as exc:
                errors = [f"{label}: check raised {type(exc).__name__}: {exc}"]
            if errors:
                failed.add(label)
                phase.errors.extend(errors[:3])
        phase.failed += len(failed)
        shutil.rmtree(tmp)
    return phase


def kind_means(phase: Phase) -> list[float]:
    """Each op's latency replaced by the mean latency of its kind (its label) over the run.

    The shared host switches between a fast and a slow speed, about 1.7x
    apart, for seconds at a time.  A quantile of single op latencies jumps
    between the two speeds as the share of fast time crosses it; a mean moves
    with that share smoothly, so the op-latency statistics are taken over
    these per-kind means.
    """
    by_kind: dict = {}
    for label, seconds in zip(phase.op_label, phase.op_s):
        by_kind.setdefault(label, []).append(seconds)
    means = {label: statistics.fmean(values) for label, values in by_kind.items()}
    return [means[label] for label in phase.op_label]


def tail(values: list[float], percentile: float) -> tuple[float, float, int]:
    """Op latency at the workload's tail percentile, by nearest rank.

    The ops of a round differ widely in cost, so the percentile is fixed per
    workload: every run and every version of the program then reads the same
    rank of the op mix however many rounds fit in the time.  It sits in the
    middle of a group of slow ops, so noise does not move it from one group to
    the next, and leaves at least ten ops beyond it at the benchmark's run
    length.  In a shorter run the highest percentile with ten ops beyond is
    used, or the maximum when there are at most ten ops.
    Returns (value, percentile used, sample count).
    """
    ordered = sorted(values)
    n = len(ordered)
    index = min(math.ceil(percentile / 100.0 * n) - 1, n - 11) if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    refs = json.loads(REFERENCES.read_text())[args.workload]
    workload = WORKLOADS[args.workload](root, args.seed % 2**64, refs)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out_dir = root / ".perfbench_out"
    tmp_root = out_dir / f"tmp-{args.workload}-{os.getpid()}"
    result = {"setup_s": setup_s, "numpy": np.__version__, "sublln": sublln.__file__}
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        plain = run_phase(workload, seconds, tmp_root / "plain")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases = [plain]
        if args.trace:
            tracer = Tracer()
            tracer.install(*trace_points())
            try:
                traced = run_phase(workload, seconds, tmp_root / "traced", tracer)
            finally:
                tracer.uninstall()
            phases.append(traced)
            layers = layer_metrics(tracer, traced.round_of_op, traced.report_bytes)
            layers["trace.overhead_s"] = statistics.fmean(traced.round_s) - statistics.fmean(plain.round_s)
            result["per_layer"] = layers
            result["computed"] = sorted(COMPUTED)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_jsonl(trace_path)
            result["trace_file"] = str(trace_path.relative_to(root))
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    op_means = kind_means(plain)
    value, percentile, samples = tail(op_means, workload.tail_percentile)
    result.update(
        round_s=statistics.fmean(plain.round_s),
        rounds=len(plain.round_s),
        op_p50_s=statistics.median(op_means),
        op_tail_s=value,
        op_tail_percentile=percentile,
        op_samples=samples,
        attempted=sum(p.attempted for p in phases),
        failed=sum(p.failed for p in phases),
        errors=[e for p in phases for e in p.errors][:20],
        op_latencies_s=plain.op_s,
        round_latencies_s=plain.round_s,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
