"""sublln benchmark runner: one seed, one measured run per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

Each workload runs in its own single-threaded process (BLAS and OpenMP pools
pinned to one thread, the checkout's ``src`` first on ``PYTHONPATH``).  With
``--trace 0`` it reports the end-to-end metrics; set-up time is the median
over several fresh processes.  With ``--trace 1`` it measures half the time
untraced and half with the span recorder installed, and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record, with the environment, goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROCESSES = 4  # set-up-only processes, besides the measured one
CHILD_TIMEOUT_S = 150
SINGLE_THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
COMPUTED_NOTE = "computed from call arguments, not measured"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment(seed: int, workload: str, why: str, numpy_version: str) -> dict:
    """Machine and software record; read-only, from /proc and /sys."""
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "workload": workload,
        "why": why,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "thread_env": SINGLE_THREAD_ENV,
    }


def run_child(args: list[str], root: Path, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), *args],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return json.loads(lines[-1])


def run_workload(root: Path, spec: dict, workload: str, seed: int, seconds: float, trace: int) -> int:
    """Measure one workload in its own processes and print its metrics."""
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    env = dict(os.environ, **SINGLE_THREAD_ENV, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    common = ["--workload", workload, "--seed", str(seed)]
    try:
        setups = []
        if not trace:
            setups = [run_child([*common, "--setup-only"], root, env)["setup_s"] for _ in range(SETUP_PROCESSES)]
        result = run_child([*common, "--seconds", str(seconds), "--trace", str(trace)], root, env)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        return fail(f"{workload}: {exc}")
    if Path(result["sublln"]).resolve().parent != (root / "src" / "sublln").resolve():
        return fail(f"imported sublln from {result['sublln']}, not from this checkout")

    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["per_layer"]
        notes = {name: COMPUTED_NOTE for name in result["computed"]}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        setups.append(result["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "round_s": result["round_s"],
            "op_p50_s": result["op_p50_s"],
            "op_tail_s": result["op_tail_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"median of {len(setups)} processes",
            "round_s": f"mean of {result['rounds']} rounds",
            "op_p50_s": f"median of {result['op_samples']} ops, each at its kind's mean latency",
            "op_tail_s": f"p{result['op_tail_percentile']:.1f} of {result['op_samples']} ops, each at its kind's mean latency",
            "peak_rss_mb": "ru_maxrss of the untraced workload process",
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    record = {
        "environment": environment(seed, workload, why, result["numpy"]),
        "trace": trace,
        "seconds": seconds,
        "metrics": metrics,
        "notes": notes,
        "failed_ratio": result["failed"] / result["attempted"],
        "workload_result": result,
        "setup_s_samples": setups,
    }
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# workload {workload} seed {seed} trace {trace}: {why}")
    print(f"# environment {json.dumps(record['environment'])}")
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}{note}")
    print(f"{'failed_ratio':40s} {record['failed_ratio']:>16.6g} ratio  ({result['failed']} of {result['attempted']} ops)")
    for error in result["errors"]:
        print(f"# failed: {error}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sublln benchmark runner")
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sublln" / "__init__.py").is_file() or not (root / "configs").is_dir():
        return fail("run from the root of a sublln checkout (src/sublln and configs/ not found)")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    if not args.seconds > 0:
        return fail("--seconds must be positive")
    selected = names if args.workload == "all" else [args.workload]
    codes = [run_workload(root, spec, w, args.seed, args.seconds, args.trace) for w in selected]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
