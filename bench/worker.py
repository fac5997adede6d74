"""Benchmark worker: runs one workload's command sequence in process.

Usage (normally started by run.py, one worker at a time):

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

The worker imports ``mdopt.cli`` (the set-up every CLI user pays), runs one
untimed warm-up repetition that also counts objective points, then repeats
the sequence through ``mdopt.cli.main`` until ``--seconds`` is spent.  In the
untraced repetitions chunks of a fixed reference kernel are timed after
every command; ``wall_ref`` is a repetition's wall time over the mean chunk
time in that repetition.  With ``--trace 1`` untraced and traced
repetitions alternate, and the traced ones yield the per-layer metrics.
Every command's output is checked after each repetition, outside the timed
region.  The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import importlib.util
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, install, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 2


class Reference:
    """Fixed work like a workload's, timed next to it so that their ratio
    cancels the host's speed.

    On a shared host the single-thread speed of the same code moves by up to
    2x between runs minutes apart, as neighbours load the cores, caches and
    memory bus; raw wall times of one workload then spread over 30% from run
    to run.  The kernel slows down with them.  A chunk of it runs the parts
    the workload names in ``workloads.REFERENCE_PARTS``: ``scalar`` Python
    float arithmetic (like brentq's iterations), numpy calls on ``small``
    14-element arrays (boundary's objective calls average 14 points),
    softmax-like reductions over an ``l2``-resident array (a default 256^2
    grid's f, as in nmd's weight passes) and one pass, with fresh
    temporaries, over a ``large`` 16 MiB array that does not fit in L2 (like
    a 1024^2 grid's nodes).  It uses numpy only, never mdopt, so a change to
    mdopt cannot change it.
    """

    # chunk time run after each command, as a share of the command's time
    SHARE = 0.1

    def __init__(self, parts):
        import numpy as np
        self.np = np
        self.small_x = np.linspace(0.0, 1.0, 14)
        self.l2_x = np.linspace(0.0, 1.0, 65536)
        self.large_x = np.linspace(0.0, 1.0, 2 * 1024 * 1024)
        self.parts = [getattr(self, part) for part in parts]

    def scalar(self):
        s = 0.0
        for i in range(20000):
            s += (i * 0.5) ** 0.5

    def small(self):
        np, x = self.np, self.small_x
        for _ in range(1000):
            y = np.sin(x) * x + 1.0
            y.sum()
            (y > 0.5).any()

    def l2(self):
        np, x = self.np, self.l2_x
        for _ in range(25):
            e = np.exp(x - x.max())
            (e / e.sum()).dot(x)

    def large(self):
        self.np.exp(self.large_x - 0.5).sum()

    def chunk_seconds(self) -> float:
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0

    def after(self, command_s) -> list[float]:
        """Chunk times, at least one and until they add up to SHARE of
        ``command_s``, so that long commands are sampled more."""
        chunks = [self.chunk_seconds()]
        while sum(chunks) < self.SHARE * command_s:
            chunks.append(self.chunk_seconds())
        return chunks


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_command(main, argv, out):
    """Run one CLI command in process; returns (exited cleanly, seconds, error)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            main(args=[*argv, "--out", str(out)], standalone_mode=False)
        ok, error = True, ""
    except SystemExit as exc:
        ok, error = exc.code in (0, None), f"exit {exc.code}"
    except Exception as exc:  # a failing command is counted, not fatal
        ok, error = False, repr(exc)
    return ok, time.perf_counter() - t0, error


class Sequence:
    """One workload's commands, their output directories and the tallies of
    commands attempted and failed."""

    def __init__(self, main, workload, seed, out, fstar):
        self.main = main
        self.argvs = workloads.commands(workload, seed)
        self.outs = [out / f"c{i:02d}" for i in range(len(self.argvs))]
        self.fstar = fstar
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.fstar_errs: list[float] = []
        self.ratio_errs: list[float] = []
        self.command_s: list[list[float]] = [[] for _ in self.argvs]
        self.wall_refs: list[float] = []

    def run(self, main=None, reference=None) -> float:
        """One repetition; returns its wall time, the sum of its commands'.
        ``main`` overrides the entry point (the traced run passes a wrapped
        one).  With a ``reference`` the per-command times are kept, the
        kernel is timed after every command and the repetition's
        ``wall_ref`` is recorded."""
        main = main or self.main
        results, ref_s = [], []
        # start every repetition from the same heap, as a fresh CLI process would
        gc.collect()
        for argv, out in zip(self.argvs, self.outs):
            results.append(_run_command(main, argv, out))
            if reference:
                ref_s += reference.after(results[-1][1])
        wall = sum(seconds for _, seconds, _ in results)
        if reference:
            self.wall_refs.append(wall / statistics.fmean(ref_s))
        for i, (ok, seconds, error) in enumerate(results):
            if reference:
                self.command_s[i].append(seconds)
            self._check(i, ok, error)
        return wall

    def _check(self, i, ok, error):
        argv = self.argvs[i]
        self.attempted += 1
        result = (workloads.check(argv, self.outs[i], self.fstar) if ok
                  else workloads.Check(False, error))
        if not result.ok:
            self.failed += 1
            self.failures.append(f"{' '.join(argv)}: {result.message}")
        if result.fstar_err is not None:
            self.fstar_errs.append(result.fstar_err)
        if result.ratio_err is not None:
            self.ratio_errs.append(result.ratio_err)

    def out_bytes(self) -> int:
        return sum(f.stat().st_size for out in self.outs for f in out.iterdir())


def _versions():
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": os.cpu_count(),
    }


def _timed_reps(seconds, rep):
    """Call ``rep`` at least MIN_REPS times, and then as long as the run ends
    nearer to ``seconds`` by making one more call."""
    start = time.perf_counter()
    durations = []
    while (len(durations) < MIN_REPS
           or time.perf_counter() - start + statistics.fmean(durations) / 2 <= seconds):
        t0 = time.perf_counter()
        rep()
        durations.append(time.perf_counter() - t0)


def main_worker(args) -> dict:
    import mdopt.cli

    fstar = workloads.true_fstar(_load_oracles())
    seq = Sequence(mdopt.cli.main, args.workload, args.seed, args.out, fstar)

    counter = Tracer()
    with install(counter, entry_points=False):
        seq.run()
    f_evals = counter.counts["objective.points"]
    # import plus one pass, as a user pays it; later repetitions would add
    # whatever garbage one repetition leaves for the next
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # allocated after the peak is read, which the kernel's arrays would raise
    reference = Reference(workloads.REFERENCE_PARTS[args.workload])
    walls, traced_walls, layers = [], [], []
    if not args.trace:
        _timed_reps(args.seconds, lambda: walls.append(seq.run(reference=reference)))
    else:
        tracer = Tracer()

        def pair():
            walls.append(seq.run(reference=reference))
            tracer.reset()
            with install(tracer):
                traced_walls.append(seq.run(tracer.wrap("cli.command", seq.main)))
            layer = layer_metrics(tracer)
            layer["cli.out_bytes"] = seq.out_bytes()
            layers.append(layer)

        _timed_reps(args.seconds, pair)

    return {
        "versions": _versions(),
        "walls": walls,
        "wall_refs": seq.wall_refs,
        "traced_walls": traced_walls,
        "layers": layers,
        "commands": [{"argv": argv, "median_s": statistics.median(s)}
                     for argv, s in zip(seq.argvs, seq.command_s)],
        "f_evals": f_evals,
        "fstar_err_max": max(seq.fstar_errs, default=None),
        "shrink_ratio_err_max": max(seq.ratio_errs, default=None),
        "attempted": seq.attempted,
        "failed": seq.failed,
        "failures": seq.failures[:10],
        "peak_rss_mb": peak_rss_mb,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        summary = main_worker(args)
    finally:
        shutil.rmtree(args.out, ignore_errors=True)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
