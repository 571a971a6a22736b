"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig7-certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and then traced, and prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
name the workload's own metrics with their units.  The exit code is 0
only when every answer check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Variables that would change what the program does or records.
REFUSED_ENV = ("REPRO_FAULT_PLAN", "REPRO_TELEMETRY", "REPRO_TRACEPARENT")
#: Variables pinned for this process and every child it starts
#: (``None`` = removed: the numpy/scipy SCC path is used when installed).
PINNED_ENV = {"REPRO_WORKERS": "1", "REPRO_CACHE_MEMO": "4096", "REPRO_NO_NUMPY": None}

WORKLOAD_NAMES = ("fig7-certify", "survey", "serve-mixed")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def environment_problems() -> list:
    problems = []
    if not (SRC / "repro" / "__init__.py").is_file():
        problems.append(f"no program source at {SRC / 'repro'}: run from a full checkout")
    for name in REFUSED_ENV:
        if os.environ.get(name):
            problems.append(f"${name} is set; unset it so the run measures the plain program")
    return problems


def pin_environment() -> None:
    for name, value in PINNED_ENV.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    os.environ.pop("REPRO_CACHE_DIR", None)


def _version(module: str) -> "str | None":
    try:
        return importlib.import_module(module).__version__
    except ImportError:
        return None


def environment_record() -> dict:
    numpy, scipy = _version("numpy"), _version("scipy")
    # The packed engine's vectorised SCC screen needs both (and honours
    # REPRO_NO_NUMPY, which is pinned unset).
    vector_scc = bool(numpy and scipy) and not os.environ.get("REPRO_NO_NUMPY")
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "scipy": scipy,
        "vector_scc": vector_scc,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git_revision": revision,
        "env": {name: os.environ.get(name) for name in PINNED_ENV},
    }


def end_to_end(outcome) -> dict:
    return {
        "setup_s": outcome.setup_s,
        "latency_p50_ms": outcome.latency_p50_ms,
        "verdicts_per_s": outcome.verdicts_per_s,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def per_layer(untraced, traced, names: list) -> dict:
    """Every per-layer metric; layers a workload does not use read 0."""
    values = dict.fromkeys(names, 0)
    values.update({k: v for k, v in traced.layers.items() if k in values})
    for name in ("serve.query_p99_ms", "serve.miss_p50_ms"):
        named = traced.named.get(name.split(".", 1)[1])
        if named is not None and named[0] is not None:
            values[name] = named[0]
    values["trace.wall_s"] = traced.timed_s
    values["trace.overhead_pct"] = 100.0 * (
        traced.latency_p50_ms / untraced.latency_p50_ms - 1.0
    )
    values["error_rate"] = (untraced.failed + traced.failed) / (
        untraced.attempted + traced.attempted
    )
    return values


def run_workload(args) -> int:
    import workloads
    from tracer import TracedPass, layer_metrics

    spec = _spec()
    print(json.dumps({"environment": environment_record()}), file=sys.stderr)
    size = workloads.TINY if args.tiny else workloads.FULL
    function = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        (work / "plain").mkdir()
        outcome = function(args.seed, args.seconds, work / "plain", size)
        passes = [outcome]
        if args.trace:
            (work / "traced").mkdir()
            traced = TracedPass()
            traced_outcome = function(args.seed, args.seconds, work / "traced", size, traced)
            if args.workload != "serve-mixed":
                traced_outcome.layers = layer_metrics(traced, traced_outcome.timed_s)
            passes.append(traced_outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for name, (value, unit) in sorted(outcome.named.items()):
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        print(f"{args.workload}  {name:<24} {shown} {unit}")
    print(f"{args.workload}  {'samples':<24} {len(outcome.latencies_ms)} count")
    print(f"{args.workload}  {'setup_s':<24} {outcome.setup_s:.6g} s")
    print(f"{args.workload}  {'peak_rss_mb':<24} {outcome.peak_rss_mb:.6g} MB")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"{args.workload}  {'error_rate':<24} {failed / attempted:.6g} fraction")
    for error in (e for p in passes for e in p.errors):
        print(f"{args.workload}  FAILED: {error}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(outcome, passes[1], [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(outcome)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; non-zero if any check failed."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        completed = subprocess.run(argv, cwd=ROOT, timeout=900)
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (not comparable with full runs)")
    parser.add_argument("--setup-probe", choices=("fig7-certify", "survey"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    problems = environment_problems()
    if problems:
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import workloads

        workloads.probe(args.setup_probe, args.seed, Path(args.work))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
