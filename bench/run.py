"""mdopt benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload anneal|boundary|useq --seed N --seconds S --trace 0|1

Run from anywhere inside an mdopt source checkout; the package is imported
from ``src/`` (nothing is installed).  Standard library only.  Every child
is a fresh interpreter with BLAS/OpenMP pinned to one thread, started one at
a time and waited for.

``--trace 0`` prints the end-to-end metrics: set-up time from several fresh
interpreters, then the workload's median wall time relative to a fixed
reference kernel (``wall_ref``; raw wall seconds are printed too), peak
memory, objective evaluations and answer error from one worker process.
``--trace 1`` prints the per-layer metrics: per-package import self times
from ``-X importtime`` and the span totals of traced repetitions, with the
tracing overhead.

Human-readable lines come first; the last stdout line is the JSON result.
Exit status is non-zero, with no result line, when the checkout is not a
runnable mdopt tree or the worker dies.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
IMPORT_PROBES = 5
PROBE_TIMEOUT_S = 60
WORKER_GRACE_S = 120
IMPORT_PACKAGES = ("mdopt", "numpy", "scipy", "click")

# Printed by name on the workloads they apply to (optimizer commands, and
# shrinkrate rows); answer_err_max carries them in the result line.
ANSWER_METRICS = ("fstar_err_max", "shrink_ratio_err_max")


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    # setup_s should not include compiling mdopt's source on every probe
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _child(args, timeout, env) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion (killed and reaped on timeout)."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:2]} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


_PROBE = ("import time; import mdopt.cli; "
          "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))")


def setup_seconds(env) -> list[float]:
    """Seconds from spawning a fresh interpreter until ``mdopt.cli`` is
    imported, once per probe (system-wide monotonic clock on both sides)."""
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = _child(["-c", _PROBE], PROBE_TIMEOUT_S, env)
        out.append((int(proc.stdout.split()[-1]) - t0) / 1e9)
    return out


def import_self_seconds(env) -> dict[str, float]:
    """Median over fresh interpreters of ``-X importtime`` self time, summed
    per top-level package."""
    samples: dict[str, list[float]] = {p: [] for p in IMPORT_PACKAGES}
    for _ in range(IMPORT_PROBES):
        proc = _child(["-X", "importtime", "-c", "import mdopt.cli"], PROBE_TIMEOUT_S, env)
        sums = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (f.strip() for f in line[len("import time:"):].split("|"))
            package = name.split(".")[0]
            if package in sums and self_us.isdigit():
                sums[package] += int(self_us) / 1e6
        for package, value in sums.items():
            samples[package].append(value)
    return {f"import.{p}_s": statistics.median(v) for p, v in samples.items()}


def run_worker(args, env, out) -> dict:
    proc = _child([str(HERE / "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out)],
                  args.seconds + WORKER_GRACE_S, env)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_common(args, summary):
    v = summary["versions"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"machine: nproc={v['nproc']} {platform.machine()} python={v['python']} "
          f"numpy={v['numpy']} scipy={v['scipy']} click={v['click']}")
    for c in summary["commands"]:
        print(f"  {c['median_s']:8.4f} s  mdopt {' '.join(c['argv'])}")
    print(f"fail_rate={summary['failed'] / summary['attempted']:.4f} ratio "
          f"({summary['failed']}/{summary['attempted']} commands)")
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")


def end_to_end(args, env, out) -> tuple[dict, dict]:
    setup = setup_seconds(env)
    summary = run_worker(args, env, out)
    _print_common(args, summary)
    walls, wall_refs = summary["walls"], summary["wall_refs"]
    print(f"wall_s over {len(walls)} repetitions: "
          + " ".join(f"{w:.4f}" for w in walls))
    print("wall_ref over the same repetitions: "
          + " ".join(f"{r:.2f}" for r in wall_refs))
    # raw seconds, printed by name; wall_ref is the bounded metric
    print(f"wall_s={statistics.median(walls)!r} s")
    print("setup_s over fresh interpreters: " + " ".join(f"{s:.4f}" for s in setup))
    answers = {k: summary[k] for k in ANSWER_METRICS if summary[k] is not None}
    for name, value in answers.items():
        print(f"{name}={value!r} abs")
    values = {
        "wall_ref": statistics.median(wall_refs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": summary["peak_rss_mb"],
        "f_evals": summary["f_evals"],
        # None (JSON null) only when no command produced readable output
        "answer_err_max": max(answers.values(), default=None),
    }
    return summary, _report(values, "end_to_end")


def per_layer(args, env, out) -> tuple[dict, dict]:
    imports = import_self_seconds(env)
    summary = run_worker(args, env, out)
    _print_common(args, summary)
    layers = summary["layers"]
    values = {**imports}
    for key in layers[0]:
        samples = [layer[key] for layer in layers]
        # counts repeat exactly; keep them whole numbers
        exact = all(isinstance(x, int) for x in samples)
        values[key] = (statistics.median_low if exact else statistics.median)(samples)
    traced = statistics.median(summary["traced_walls"])
    untraced = statistics.median(summary["walls"])
    values["trace.wall_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    print(f"traced wall {traced:.4f} s vs untraced {untraced:.4f} s over "
          f"{len(layers)} pairs: overhead {traced - untraced:.4f} s "
          f"({100.0 * (traced / untraced - 1.0):.1f}%)")
    return summary, _report(values, "per_layer")


def _report(values, kind) -> dict:
    """Print the metrics BENCHMARK.json lists under ``kind``; return them in
    the result-line format."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec[kind]:
        print(f"{m['name']}={values[m['name']]!r} {m['unit']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # subprocess.run kills and reaps its child when the wait is interrupted
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        if not (SRC / "mdopt" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
            raise BenchError(f"{ROOT} is not an mdopt source checkout")
        env = _env()
        _child(["-c", "import mdopt.cli"], PROBE_TIMEOUT_S, env)  # compiles bytecode
        summary, metrics = (per_layer if args.trace else end_to_end)(args, env, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.suppress(OSError):
            out.parent.rmdir()
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
