"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload train_semi --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the library from `src/`
beside this directory and exits non-zero when that is missing. Working
files, the determinism record and span dumps go under `.bench_work/`.

With `--trace 0` the last line carries the end-to-end metrics (see
BENCHMARK.json); with `--trace 1` it carries the per-layer metrics from a
traced run. The lines before it record the environment and the details
behind the numbers: per-call samples, checked values, and any failures.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("train_semi", "train_tiny_sup", "eval_dev_heavy")
# tape ops per train step at both train shapes when the benchmark was written
BASELINE_TAPE_OPS = 103


def bootstrap(root: Path = ROOT) -> None:
    """Put the checkout's `src/` first on the import path, or exit."""
    package = root / "src" / "crfas" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: {package} not found; run from the root of a crfas checkout")
    sys.path.insert(0, str(root / "src"))
    import crfas

    if Path(crfas.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported crfas from {crfas.__file__}, not from {package.parent}")


def environment() -> dict:
    """Where the numbers came from, so results from other machines are not compared."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS") or f"default ({nproc})",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path = WORK) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details)."""
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, Checks, Runner, source_fingerprint

    w = WORKLOADS[name]
    work.mkdir(parents=True, exist_ok=True)
    run_dir = work / f"{name}-seed{seed}-pid{os.getpid()}"
    checks = Checks(work / "determinism.json", f"{name}|seed={seed}|src={source_fingerprint(ROOT)}")
    checks.load()
    tracer = Tracer()
    runner = Runner(w, seed, run_dir, checks, tracer)
    details: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        if trace:
            with tracer.installed():
                prepared = runner.set_up()
            # the first third runs untraced, as the baseline of the tracing overhead
            runner.loop(prepared, seconds / 3, "untraced")
            with tracer.installed():
                runner.loop(prepared, seconds - seconds / 3, "traced")
            metrics, ranking = layer_metrics(tracer, w.primary)
            traced = runner.rate(w.primary, "traced")
            metrics["bench.tracing_overhead"] = (runner.rate(w.primary, "untraced") / traced if traced else 0.0, "ratio")
            details["self_time_ms_per_item"] = dict(ranking[:12])
            # evaluate runs no backward; a non-zero count here is a finding
            details["backward_spans_in_evaluate"] = tracer.count_spans("evaluate", ".bwd")
            tape_ops = metrics["diffcore.tape_ops_per_step"][0]
            if tape_ops != BASELINE_TAPE_OPS:
                print(f"perfbench: {tape_ops} tape ops per step, baseline {BASELINE_TAPE_OPS}", file=sys.stderr)
            tracer.write(work / "traces" / f"{name}.jsonl")
        else:
            prepared = runner.set_up()
            runner.loop(prepared, seconds, "measure")
            metrics = {
                "setup_s": (statistics.median(runner.setup_s), "s"),
                "train_samples_per_s": (runner.rate("fit", "measure"), "samples/s"),
                "eval_samples_per_s": (runner.rate("evaluate", "measure"), "samples/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "ok_ops_share": ((checks.attempted - checks.failed) / checks.attempted, "ratio"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    checks.save()
    details.update({
        "setup_s": runner.setup_s,
        "samples_per_s": {f"{kind}/{phase}": v for (kind, phase), v in runner.rates.items()},
        "failed_ops_share": checks.failed / checks.attempted,
        "failures": checks.failures[:10],
        "checked": {"last_l_overall": checks.last_l_overall, "acer": checks.last_acer},
    })
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return result, details


def run_all(args) -> int:
    """Run every workload, each in its own process so peak RSS stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    if args.workload == "all":
        return run_all(args)
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
