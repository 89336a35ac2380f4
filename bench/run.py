"""freecert benchmark: end-to-end CLI workloads, or a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload certify-f2 --seed 1 --seconds 30 --trace 0

One closed-loop client in this single process drives ``freecert.cli.main``
in-process: the next op starts when the previous one has returned and been
checked.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

SETUP_PROBES = 11  # set-up is timed in this many fresh processes; the median is reported
WARMUP_OPS = 3  # run and checked before timing starts, not timed
MIN_BEYOND = 10  # a percentile is reported only with this many samples above it
MIN_OPS = 100  # timed ops per run, so that p90 has MIN_BEYOND samples above it
PROBE_TIMEOUT_S = 60

# Host speed.  A shared 2-vCPU host, the one bench/history was measured on,
# changes speed by up to ~70 % in phases of seconds to minutes, and a
# process's CPU time stretches with its wall time, so raw times of the same
# code spread past the 25 % bounds from run to run.  Each run therefore also
# times a fixed pure-Python reference task, benchmark code that shares
# nothing with freecert, between ops, and reports every time scaled to a
# host on which that task takes REF_SECONDS:
# reported = measured * REF_SECONDS / median(nearby reference task times),
# where the nearby ones are the REF_NEAREST samples taken closest in time,
# so that a change of speed within a run is followed.  The human-readable
# lines above the result give the raw values and the reference task's median.
REF_SECONDS = 0.005  # a round figure near the task's 5-6 ms on the 2-vCPU host of bench/history
REF_EVERY_S = 0.25  # a reference sample after the first op that ends this long after the last one
REF_NEAREST = 15  # about 4 s of samples around a timed op
REF_WORD = tuple(random.Random(7).choices((1, -1, 2, -2), k=3000))

DEMO_PAIRS = (("demos/models/f2.json", "ab", "ba"), ("demos/models/zxz2.json", "ffs", "fsfs"))
DEMO_CRITERIA = ("nielsen", "prop6", "prop7", "prop8", "theorem9", "theorem14")


def percentile(samples: list, q: float) -> float:
    """Nearest-rank q-quantile; refuses unless MIN_BEYOND samples lie above it.

    p90 therefore needs at least 100 samples and p50 at least 20.
    """
    n = len(samples)
    rank = math.ceil(round(q * n, 9))  # round: 0.9 * 100 is 90.00000000000001
    if n - rank < MIN_BEYOND:
        raise ValueError(f"p{round(q * 100)} needs {MIN_BEYOND} samples above it, got {n} samples")
    return sorted(samples)[max(0, rank - 1)]


def reference_task() -> int:
    """Fixed work in the style of freecert's hot loops: free reduction and tuple counting."""
    counts: dict = {}
    word = REF_WORD
    for _ in range(4):
        out: list = []
        for letter in word + word[::-1][: len(word) // 2]:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        word = tuple(out)
        for i in range(0, len(word) - 4, 3):
            key = word[i : i + 4]
            counts[key] = counts.get(key, 0) + 1
    return len(counts)


class HostSpeed:
    """Reference task times taken alongside a measurement, and the scales they give."""

    def __init__(self):
        self.samples: list = []  # (perf_counter at its end, seconds)
        self.last = -math.inf

    def sample(self) -> None:
        gc.disable()  # the program's heap must not slow the reference down
        try:
            start = time.perf_counter()
            reference_task()
            self.last = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append((self.last, self.last - start))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def median(self) -> float:
        return statistics.median(seconds for _, seconds in self.samples)

    def scale_at(self, when: float) -> float:
        """Factor that turns a time measured at ``when`` into one on the reference host."""
        nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - when))[:REF_NEAREST]
        return REF_SECONDS / statistics.median(seconds for _, seconds in nearest)


def import_freecert():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "freecert" / "cli.py").is_file():
        raise SystemExit(f"bench: no freecert sources under {src}")
    sys.path.insert(0, str(src))
    import freecert
    import freecert.cli

    if Path(freecert.__file__).resolve().parent != (src / "freecert").resolve():
        raise SystemExit(f"bench: imported freecert from {freecert.__file__}, not {src}")
    return freecert


def measure_setup(workload: str, seed: int, speed: HostSpeed) -> list:
    """(ready time, seconds) from spawning each fresh process to it being ready for its first op.

    ``speed`` gets three reference samples after each probe.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        times.append((ready, ready - start))
        for _ in range(3):
            speed.sample()
    return times


class Loop:
    """Runs ops against the CLI and keeps latencies and failures."""

    def __init__(self, cli, ops: list):
        self.cli = cli  # cli.main is looked up per op, so a traced pass sees the wrapper
        self.ops = ops
        self.consistency = workloads.Consistency()
        self.attempted = 0
        self.failures: list = []

    def run(self, op) -> float:
        seconds, failure = workloads.run_op(op, self.cli.main, self.consistency)
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)
        return seconds

    def timed(self, seconds: float, speed: HostSpeed) -> list:
        """(end time, latency) of each op, cycling through the pool until
        ``seconds`` have passed and MIN_OPS ran.

        Between ops, outside their latencies, ``speed`` samples the reference task.
        """
        timed = []
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds or len(timed) < MIN_OPS:
            latency = self.run(self.ops[i % len(self.ops)])
            timed.append((time.perf_counter(), latency))
            speed.maybe_sample()
            i += 1
        return timed

    def one_pass(self, tracer=None) -> float:
        """Every pool op once; returns ops per second of CLI time."""
        busy = 0.0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            busy += self.run(op)
        return len(self.ops) / busy


def demo_exit2(main, workdir: Path) -> int:
    """Untimed probe: certify with every criterion on the demo models; count exit 2."""
    out = str(workdir / "demo.json")
    count = 0
    for model, a, b in DEMO_PAIRS:
        for criterion in DEMO_CRITERIA:
            argv = ["certify", "--model", str(ROOT / model), "--a", a, "--b", b, "--criterion", criterion, "--out", out]
            code, _, _ = workloads.call(main, argv)
            count += code == 2
    return count


def end_to_end(loop: Loop, args) -> dict:
    """End-to-end metrics, times scaled to the reference host; prints the raw values."""
    for op in loop.ops[:WARMUP_OPS]:
        loop.run(op)
    setup_speed, speed = HostSpeed(), HostSpeed()
    probes = measure_setup(args.workload, args.seed, setup_speed)
    failed_before = len(loop.failures)
    timed = loop.timed(args.seconds, speed)
    ok = len(timed) - (len(loop.failures) - failed_before)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"latency samples: {len(timed)}")
    for name, ref in (("set-up", setup_speed), ("timed", speed)):
        print(f"reference task during {name}: median {ref.median():.6g} s over {len(ref.samples)} samples")
    times = {}
    for kind, scaled in (("raw", False), ("scaled", True)):
        setup = [s * setup_speed.scale_at(t) if scaled else s for t, s in probes]
        latencies = [s * speed.scale_at(t) if scaled else s for t, s in timed]
        times[kind] = {
            "setup_s": statistics.median(setup),
            "ops_per_s": ok / sum(latencies),
            "latency_p50_s": percentile(latencies, 0.5),
            "latency_p90_s": percentile(latencies, 0.9),
        }
    for name, value in times["raw"].items():
        print(f"raw {name:36s} {value:.6g}")
    units = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s", "latency_p90_s": "s"}
    metrics = {name: (value, units[name]) for name, value in times["scaled"].items()}
    metrics["ok_ratio"] = (1 - len(loop.failures) / loop.attempted, "ratio")
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
    return metrics


def traced_pass(loop: Loop, freecert, methods: bool) -> tuple:
    tracer = tracing.Tracer()
    undo = tracing.install(freecert, tracer, methods)
    try:
        ops_per_s = loop.one_pass(tracer)
    finally:
        tracing.uninstall(undo)
    return tracer, ops_per_s


def per_layer(loop: Loop, freecert, workdir: Path, args) -> dict:
    """Demo probe, then the pool untraced, with layer spans, and with model methods too."""
    exit2 = demo_exit2(loop.cli.main, workdir)
    untraced = loop.one_pass()
    layers, traced = traced_pass(loop, freecert, methods=False)
    models, models_traced = traced_pass(loop, freecert, methods=True)
    layers.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = tracing.layer_metrics(layers, models)
    metrics["cli.demo_exit2"] = (exit2, "count")
    metrics["failed_ratio"] = (len(loop.failures) / loop.attempted, "ratio")
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced, "1/s")
    metrics["trace.overhead_ops_per_s"] = (traced - untraced, "1/s")
    metrics["trace.models_overhead_ops_per_s"] = (models_traced - untraced, "1/s")
    speed = HostSpeed()
    for _ in range(21):
        speed.sample()
    metrics["host.reference_s"] = (speed.median(), "s")  # layer times here are raw
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    freecert = import_freecert()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        loop = Loop(freecert.cli, ops)
        if args.trace:
            metrics = per_layer(loop, freecert, workdir, args)
        else:
            metrics = end_to_end(loop, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in loop.failures[:10]:
        print(f"bench: failed op: {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
