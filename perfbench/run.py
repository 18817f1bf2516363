"""End-to-end benchmark of `ml2o compare`, with a traced run for per-layer figures.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-cold --seed 123 --seconds 25 --trace 0

One client in a closed loop: the benchmark starts the real CLI
(`python -m ml2o.cli compare ... --jobs 1`), waits for it to exit, checks its
`comparison.json` and starts the next, until `--seconds` have passed.  Every
command gets a fresh output directory.

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, each
the median over the run's commands:

* ``wall_ref_s``   wall time of one command, interpreter start to exit,
                   scaled to the reference host speed (see below)
* ``setup_s``      a fresh interpreter importing `ml2o.cli` and running
                   `load_config` on the workload's config, in its own process,
                   scaled likewise
* ``cpu_ref_s``    user plus system CPU time of one command, scaled likewise
* ``peak_rss_mb``  peak resident memory of one command

The timed commands run on one core with the benchmark.  On a shared host that
core switches between speeds up to 1.7x apart for stretches of seconds, and
the program and a fixed loop speed up alike; raw times of runs spread by
10-20% whatever their length.  So while the set-up and the commands run, a
thread of the benchmark on that core times a fixed burst of work every half
second (`SpeedProbe`, 2% of the core).  Each process's times are multiplied by
`PROBE_REF_S` over the mean burst during it: they read as on a host where one
burst takes `PROBE_REF_S`.  The raw times are printed beside them and kept in
the result file.

With ``--trace 1`` it runs the same loop, then one more command under
perfbench/trace_cli.py, and prints the per-layer metrics (layers.py);
``trace.overhead_s`` compares scaled times.

A command fails if it exits non-zero, if its `comparison.json` is missing or
does not parse through `ml2o.harness.read_comparison_json`, or if the file's
blake2b digest differs from the workload's reference.  At the reference seed
the reference is pinned below; at any other seed it is the digest that the
first run of this checkout at that seed produced, so every run of the same
code must agree.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Work files go to `.perfbench/` under the checkout: the result, spans and
stderr of each workload's last run in `.perfbench/<workload>/`, the warm
caches in `.perfbench/warm/`, and the digests seen at other seeds in
`.perfbench/digests.json`.
"""

from __future__ import annotations

import argparse
import bisect
import configparser
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np
from layers import layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
TRACE_CLI = os.path.join(ROOT, "perfbench", "trace_cli.py")

NPROC = len(os.sched_getaffinity(0))  # before the benchmark pins itself to one core
REFERENCE_SEED = 123  # the shipped profiles' seed
SETUP_REPEATS = 5
# A warm cache is filled outside the timed region, with both cores, once per
# workload and seed; later runs of this checkout at the same seed reuse it.
FILL_JOBS = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s
PROBE_LOOP = 20000  # one burst: about 10 ms of CPU, 2% of the core
PROBE_PERIOD_S = 0.5
# A burst's mean CPU time on the 2-core shared VM the benchmark was defined
# on; it only fixes the scale of the scaled times.
PROBE_REF_S = 0.01


@dataclass(frozen=True)
class Workload:
    config: str  # shipped profile, relative to the checkout root
    n_seeds: int  # evaluation seeds per command (--n-seeds)
    warm: bool  # True: one cache filled before timing; False: empty cache per command
    digest: str  # blake2b of comparison.json at REFERENCE_SEED


DESK_DIGEST = (
    "7c6ae841f22359f0b83bd27f989dd909ad87a799152f509c42c73d6bd9a17a3e"
    "9c650126a351a741e61550191c13fbf976a8ba206df3d975082958b4ef749db1"
)
ROSENBROCK_DIGEST = (
    "84afb327416a5a4d498acf2e323a389e490f1607d8be7cc3827f3d02ebff43dc"
    "6bc4d130ec0e15f12dff79c38b6db540d5ac302e472077886c564b3c3570aa1d"
)
# desk-cold runs 2 evaluation seeds, the fewest the CLI accepts: one command
# then trains 4 optimizers in about 20 s on one core, with the same training
# share (~87%) as at the profile's 10 seeds.  Its digest is also that of the
# same command on a warm cache.  Rosenbrock runs 4 seeds so that `evaluate`,
# not interpreter start, is most of a command.
WORKLOADS = {
    # training-bound: reverse sweep, taped forward, FD-HVP and outer update
    "desk-cold": Workload("configs/lasso_desk.ini", 2, False, DESK_DIGEST),
    # evaluation-bound, per-call overhead at d=2, horizon 500: untaped
    # forward, adapt, checkpoint reads
    "rosenbrock-warm": Workload("configs/rosenbrock_desk.ini", 4, True, ROSENBROCK_DIGEST),
}

# BLAS and OpenMP pools would otherwise start threads beside the program.
ENV = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

SETUP = "import sys, ml2o.cli; ml2o.cli.load_config(sys.argv[1])"


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    start: float  # time.monotonic() at start and end
    end: float


class SpeedProbe:
    """Host speed on this process's core, sampled while commands run.

    A thread times a fixed burst of interpreter and small-array work, like a
    cell step, every PROBE_PERIOD_S; it reads the burst's own CPU time, so
    the command it interrupts does not count.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((10, 10))
        self.vector = rng.standard_normal(10)
        self.at: list[float] = []  # time.monotonic() at the end of each burst
        self.cpu_s: list[float] = []  # CPU time of each burst
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def burst(self) -> float:
        t0 = time.thread_time()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        v = self.vector
        for _ in range(PROBE_LOOP // 10):
            v = np.tanh(self.matrix @ v) + 0.1 * v
        return time.thread_time() - t0

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            cpu = self.burst()
            self.at.append(time.monotonic())
            self.cpu_s.append(cpu)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, sample: Sample) -> float:
        """PROBE_REF_S over the mean burst while `sample` ran.

        A command's time is its work over the core's speed averaged over
        the command, so the mean, not the median, of the bursts matches it.
        """
        lo = bisect.bisect_left(self.at, sample.start)
        hi = bisect.bisect_right(self.at, sample.end)
        during = self.cpu_s[lo:hi] or self.cpu_s
        return PROBE_REF_S / statistics.fmean(during)


def _stop_group(pgid: int) -> None:
    """Kill what is left of a command's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_python(args: list[str], cwd: str, deadline: float, log: str) -> Sample:
    """Run the interpreter with `args` in its own session, killed at `deadline`."""
    with open(log, "ab") as err:
        start = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=cwd,
            env=ENV,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), _stop_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode,
                  start, time.monotonic())


class References:
    """Expected comparison.json digest per (config, seed), kept across runs."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path) as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}

    def expected(self, wl: Workload, seed: int, digest: str) -> str:
        """The reference for this run; the first digest seen defines a new one."""
        if seed == REFERENCE_SEED:
            return wl.digest
        key = f"{wl.config} n_seeds={wl.n_seeds} seed={seed}"
        if key not in self.known:
            self.known[key] = digest
            tmp = self.path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(self.known, fh, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
        return self.known[key]


class Run:
    """One benchmark run: the commands it started and the outputs they wrote."""

    def __init__(self, wl: Workload, seed: int, work: str, deadline: float):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.log = os.path.join(work, "stderr.log")
        self.refs = References(os.path.join(WORK, "digests.json"))
        self.attempted = 0
        self.failed: set[str] = set()  # labels of the commands that failed
        self.outputs: dict[str, str] = {}  # label -> kept comparison.json, parsed at the end
        self.digests: dict[str, str] = {}

    def python(self, args: list[str], label: str) -> Sample:
        self.attempted += 1
        sample = run_python(args, self.work, self.deadline, self.log)
        if sample.exit_code != 0:
            self.failed.add(label)
        return sample

    def compare(self, config: str, label: str, cache: str, jobs: int = 1, spans: str | None = None) -> Sample:
        """One `ml2o compare` into a fresh output directory, checked and removed."""
        out = os.path.join(self.work, label)
        cli = ["compare", "--config", config, "--out", out, "--cache-dir", cache,
               "--n-seeds", str(self.wl.n_seeds), "--jobs", str(jobs)]
        args = [TRACE_CLI, spans, *cli] if spans else ["-m", "ml2o.cli", *cli]
        sample = self.python(args, label)
        if sample.exit_code == 0 and not self._check(out, label):
            self.failed.add(label)
        shutil.rmtree(out, ignore_errors=True)
        return sample

    def _check(self, out: str, label: str) -> bool:
        try:
            with open(os.path.join(out, "comparison.json"), "rb") as fh:
                data = fh.read()
        except OSError:
            return False
        digest = hashlib.blake2b(data).hexdigest()
        self.digests[label] = digest
        kept = os.path.join(self.work, "outputs", f"{label}.json")
        with open(kept, "wb") as fh:
            fh.write(data)
        self.outputs[label] = kept
        return digest == self.refs.expected(self.wl, self.seed, digest)

    def parse_outputs(self) -> None:
        """Every kept comparison.json must read back through the program's reader."""
        sys.path.insert(0, SRC)
        from ml2o.harness import read_comparison_json

        for label, path in self.outputs.items():
            try:
                if not read_comparison_json(path).cells:
                    self.failed.add(label)
            except (OSError, ValueError, KeyError, TypeError):
                self.failed.add(label)


def derive_config(src: str, seed: int, dest: str) -> str:
    """The shipped profile with its [meta] seed replaced by the workload seed."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(src) as fh:
        parser.read_file(fh)
    parser["meta"]["seed"] = str(seed)
    with open(dest, "w") as fh:
        parser.write(fh)
    return dest


def environment() -> dict:
    """Library versions, core count and commit, read after the timed region."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": NPROC,
        "git_sha": "unknown",
        "OPENBLAS_NUM_THREADS": ENV["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": ENV["OMP_NUM_THREADS"],
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        if sha.returncode == 0:
            env["git_sha"] = sha.stdout.strip()
    return env


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    wl = WORKLOADS[args.workload]
    profile = os.path.join(ROOT, wl.config)
    if not os.path.isfile(os.path.join(SRC, "ml2o", "cli.py")) or not os.path.isfile(profile):
        print(f"error: {ROOT} is not an ml2o checkout (src/ml2o or {wl.config} missing)", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "outputs"))
    config = derive_config(profile, args.seed, os.path.join(work, "config.ini"))
    run = Run(wl, args.seed, work, deadline)

    fill_s = None
    cache = os.path.join(WORK, "warm", f"{args.workload}-seed{args.seed}")
    filled = os.path.join(cache, "filled")
    if wl.warm and not os.path.exists(filled):
        shutil.rmtree(cache, ignore_errors=True)
        t0 = time.perf_counter()
        run.compare(config, "fill", cache, jobs=FILL_JOBS)
        if "fill" not in run.failed:
            open(filled, "w").close()
        fill_s = time.perf_counter() - t0

    # From here on one core holds the benchmark, its probe and every command.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    def cache_for(label: str) -> str:
        return cache if wl.warm else os.path.join(work, f"cache-{label}")

    # A traced command runs about 1.3x as long as an untraced one.
    reserve = 1.3 if args.trace else 0.0
    setup: list[Sample] = []
    samples: list[Sample] = []
    with SpeedProbe() as probe:
        if not args.trace:
            setup = [run.python(["-c", SETUP, config], f"setup{i}") for i in range(SETUP_REPEATS)]
        loop_start = time.monotonic()
        while not samples or (
            time.monotonic() - loop_start < args.seconds
            and time.monotonic() + (1.5 + reserve) * samples[-1].wall_s < deadline
        ):
            label = f"cmd{len(samples)}"
            samples.append(run.compare(config, label, cache_for(label)))
            if not wl.warm:
                shutil.rmtree(cache_for(label), ignore_errors=True)
        if args.trace:
            spans = os.path.join(work, "spans.npz")
            traced = run.compare(config, "traced", cache_for("traced"), spans=spans)
    scales = [probe.scale(s) for s in samples]
    wall = statistics.median(s.wall_s for s in samples)

    if args.trace:
        # both sides scaled, so that a change of host speed between them does not count
        values = layer_metrics(spans, statistics.median(s.wall_s * k for s, k in zip(samples, scales)),
                               traced.wall_s * probe.scale(traced))
    else:
        values = {
            "wall_ref_s": statistics.median(s.wall_s * k for s, k in zip(samples, scales)),
            "setup_s": statistics.median(s.wall_s * probe.scale(s) for s in setup),
            "cpu_ref_s": statistics.median(s.cpu_s * k for s, k in zip(samples, scales)),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        }
    if not wl.warm:
        shutil.rmtree(cache_for("traced"), ignore_errors=True)
    env = environment()
    run.parse_outputs()
    if set(values) != set(units):
        sys.exit(f"error: measured metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")

    print(f"workload {args.workload} seed {args.seed}: env {json.dumps(env, sort_keys=True)}")
    if wl.warm:
        fill = "reused" if fill_s is None else f"filled in {fill_s:.3f} s (--jobs {FILL_JOBS}, not timed)"
        print(f"warm cache {fill}")
    print(f"raw wall_s {wall:.6g}, cpu_s {statistics.median(s.cpu_s for s in samples):.6g}; "
          f"setup_s {statistics.median(s.wall_s for s in setup) if setup else 0.0:.6g}; "
          f"host speed scale median {statistics.median(scales):.4g} from {len(probe.cpu_s)} bursts")
    for name, unit in units.items():
        n = "traced command" if args.trace else f"median of {len(setup if name == 'setup_s' else samples)}"
        print(f"{name:40s} {values[name]:>14.6g} {unit:10s} ({n})")
    result = {
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed, "env": env,
                   "fill_s": fill_s, "digests": run.digests,
                   "setup": [vars(s) for s in setup], "samples": [vars(s) for s in samples],
                   "scales": scales, "probe_at": probe.at, "probe_cpu_s": probe.cpu_s,
                   "elapsed_s": time.monotonic() - started}, fh, indent=1)
    if run.failed:
        print(f"failed: {', '.join(sorted(run.failed))}; see {run.log}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
