"""Benchmark of `spiralglue run`, timed in-process in a closed loop.

One client calls `spiralglue.cli.main(["run", "--config", path])`, checks the
op's output, and only then starts the next op: no threads, `--workers` 1.
The config is generated from the workload and `--seed`; the program sees
only that file. See README.md in this directory for workloads and metrics.

Run from the repository root:

    python3 bench/run.py --workload dense-l1-121 --seed 7 --seconds 12 --trace 0
    python3 bench/run.py --all             # end-to-end metrics, every workload
    python3 bench/run.py --all --trace 1   # per-layer metrics, every workload

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Details (quartiles, sample counts, run
environment, spans) go to `.bench_out/` in the repository root.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
import warnings
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path

import numpy as np

from checks import check_artifacts, check_report, masked
from spans import Tracer, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS, Workload, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_TIMED_OPS = 11  # run_s_tail needs TAIL_BEYOND samples above it
TAIL_BEYOND = 10
MIN_TRACED_OPS = 3
SETUP_REPEATS = 5
# The timed ops of one run cycle through this many point sets. The cost of
# decompose grows with the square of the distinct directions, which vary by
# about 12% between seeds, so one point set per run would make run_s follow
# the seed rather than the program.
SEEDS_PER_RUN = 5
SEED_STRIDE = 100_003

# the end-to-end metrics of the result object, each with a regression bound;
# times are scaled to the reference host speed (see Clock)
END_TO_END = {
    "run_s": "s",
    "pairs_per_s": "1/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "ok_ratio": "ratio",
}
# printed but left out of the result object: unscaled wall times, which follow
# the shared host's speed; the tail, which with 11 ops per run is the fastest
# op; and fail_ratio, which is 0 on a correct run (ok_ratio stands in for it)
PRINTED_ONLY = {
    "run_wall_s": "s",
    "setup_wall_s": "s",
    "run_s_tail": "s",
    "host_slowdown": "ratio",
    "fail_ratio": "ratio",
}

# seconds probe() takes at the reference speed
PROBE_S = 0.0007
SAMPLE_PERIOD_S = 0.05
AFTER_PROBES = 10
_PROBE_VEC = np.linspace(-1.0, 1.0, 16)

# per-layer metric units by name suffix
_UNITS = (("_s", "s"), ("_ratio", "ratio"), ("bytes_written", "bytes"))

# the one count that legitimately differs between ops: the report embeds its
# timings, whose printed width varies; every other non-time metric must repeat
# exactly
_UNREPEATABLE = {"cli.bytes_written"}

_SETUP_CODE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "from spiralglue.cli import parse_config; "
    "parse_config(json.load(open(sys.argv[2], encoding='utf-8')))"
)


def layer_unit(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count"


def load_program():
    """Import spiralglue.cli from the repository's source tree, never from elsewhere."""
    package = SRC / "spiralglue"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} is missing; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import spiralglue.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported {cli.__file__}, expected the copy under {package}")
    return cli


def run_seeds(seed: int) -> list[int]:
    """The generator seeds of one run: `seed` itself first."""
    return [seed + k * SEED_STRIDE for k in range(SEEDS_PER_RUN)]


class Client:
    """Runs ops of one workload back to back and checks each one.

    The client holds one config per seed; `op(config=k)` runs the k-th.
    """

    def __init__(self, cli, workload: Workload, seeds: list[int], workdir: Path, per_level=None):
        self.cli = cli
        self.n_points = workload.points(per_level)
        refs = {}
        if per_level is None:
            refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[workload.name]
        self.config_paths = []
        self.references = []
        for k, seed in enumerate(seeds):
            cfg, self.outputs = make_config(workload, seed, str(workdir), per_level)
            path = workdir / f"config-{k}.json"
            path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
            self.config_paths.append(path)
            self.references.append(refs.get(str(seed)))
        self.first_masked: list[str | None] = [None] * len(seeds)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, tracer: Tracer | None = None, config: int = 0, clock: Clock | None = None) -> None:
        """Run one op and check its output; clock, when given, times it."""
        for path in self.outputs.values():
            Path(path).unlink(missing_ok=True)
        argv = ["run", "--config", str(self.config_paths[config])]
        out = io.StringIO()
        code = None
        with redirect_stdout(out), (clock.timing() if clock else nullcontext()):
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call(self.cli.main, "cli.main", "cli", True, (argv,))
            except Exception:  # an op that raises is a failed op; the loop goes on
                error = traceback.format_exc()
        if code is None:
            problems = [f"raised {error}"]
        else:
            report = self._report()
            problems = check_report(
                code,
                out.getvalue(),
                report,
                self.n_points,
                self.first_masked[config],
                self.references[config],
            )
            if not problems:
                problems = check_artifacts(self.outputs, self.n_points)
            if self.first_masked[config] is None and report is not None:
                self.first_masked[config] = masked(report)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"op {self.attempted}: " + "; ".join(problems))

    def _report(self) -> dict | None:
        try:
            with open(self.outputs["report"], encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None

    def bytes_written(self) -> int:
        return sum(Path(p).stat().st_size for p in self.outputs.values() if Path(p).exists())


def probe() -> float:
    """Seconds one fixed step of reference work takes: Python integer
    arithmetic and small-array numpy calls, the two kinds of work the pipeline
    does. PROBE_S is its time at the reference speed."""
    start = time.perf_counter()
    total = 0
    for i in range(4_000):
        total += i * i % 7
    for i in range(200):
        total += float(np.abs(_PROBE_VEC - i * 1e-3).max())
    return time.perf_counter() - start


class Clock:
    """Wall times of calls, and the same times at the reference speed.

    Other tenants of a shared host change its speed by up to 2x within
    seconds, and a call slows with it. So the clock measures the host's speed
    during each call: with `sample`, a SIGALRM handler runs probe() every
    SAMPLE_PERIOD_S inside the call, and AFTER_PROBES more probes follow it.
    The call's slowdown is the mean probe time over PROBE_S; its wall time
    leaves out the probes that ran inside it; its scaled time is the wall time
    over the slowdown. Without `sample` only the probes after the call count:
    traced ops use that, so no probe lands inside a span.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self.slowdowns: list[float] = []

    @contextmanager
    def timing(self):
        probes: list[float] = []
        if self.sample:
            previous = signal.signal(signal.SIGALRM, lambda *_: probes.append(probe()))
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start - sum(probes)
            probes.extend(probe() for _ in range(AFTER_PROBES))
            slow = statistics.fmean(probes) / PROBE_S
            self.wall.append(wall)
            self.scaled.append(wall / slow)
            self.slowdowns.append(slow)


def setup_times(config_path: Path, repeats: int) -> Clock:
    """Fresh interpreters that import spiralglue.cli and parse the config.

    The parent only waits for each, so the probes that time the host's speed
    run after it ends.
    """
    clock = Clock(sample=False)
    for _ in range(repeats):
        with clock.timing():
            subprocess.run(
                [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC), str(config_path)], check=True
            )
    return clock


def peak_mem_mb(client: Client) -> float:
    """tracemalloc peak of one op, in MB (10**6 bytes)."""
    tracemalloc.start()
    try:
        client.op()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(samples)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {len(xs)}")
    return xs[k], 100.0 * (k + 1) / len(xs)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timed_loop(client: Client, seconds: float, min_ops: int, op) -> None:
    """Call op() until `seconds` have passed and it ran at least min_ops times."""
    start = time.perf_counter()
    done = 0
    while done < min_ops or time.perf_counter() - start < seconds:
        op()
        done += 1


def end_to_end(client: Client, seconds: float, setup_repeats: int) -> tuple[dict, dict]:
    setup = setup_times(client.config_paths[0], setup_repeats)
    client.op()  # warm-up: imports, caches and the first allocations
    peak = peak_mem_mb(client)
    times = Clock()

    def op():
        client.op(config=len(times.wall) % SEEDS_PER_RUN, clock=times)

    timed_loop(client, seconds, MIN_TIMED_OPS, op)
    run_s = statistics.median(times.scaled)
    tail_s, tail_pct = tail(times.scaled)
    n = client.n_points
    values = {
        "run_s": run_s,
        "pairs_per_s": n * (n - 1) / 2 / run_s,
        "setup_s": statistics.median(setup.scaled),
        "peak_mem_mb": peak,
        "ok_ratio": 1.0 - client.failed / client.attempted,
        "run_wall_s": statistics.median(times.wall),
        "setup_wall_s": statistics.median(setup.wall),
        "run_s_tail": tail_s,
        "host_slowdown": statistics.median(times.slowdowns),
        "fail_ratio": client.failed / client.attempted,
    }
    notes = {
        "run_s": f"median of {len(times.scaled)} ops at the reference speed, quartiles "
        + "{:.4f} / {:.4f}".format(*quartiles(times.scaled)[::2]),
        "pairs_per_s": f"{n * (n - 1) // 2} pairs per op",
        "setup_s": f"median of {len(setup.scaled)} fresh interpreters at the reference speed",
        "peak_mem_mb": "one op after a warm-up op",
        "ok_ratio": "1 - fail_ratio",
        "run_wall_s": "quartiles {:.4f} / {:.4f}".format(*quartiles(times.wall)[::2]),
        "run_s_tail": f"p{tail_pct:.1f} of {len(times.scaled)} ops ({TAIL_BEYOND} beyond it)",
        "host_slowdown": "median over the timed ops, 1.0 = reference speed",
        "fail_ratio": f"{client.failed} of {client.attempted} ops failed",
    }
    detail = {
        "op_seconds": times.wall,
        "op_scaled_seconds": times.scaled,
        "slowdowns": times.slowdowns,
        "setup_seconds": setup.wall,
        "setup_scaled_seconds": setup.scaled,
        "notes": notes,
    }
    return values, detail


def per_layer(client: Client, seconds: float) -> tuple[dict, dict, Tracer]:
    client.op()  # warm-up
    tracer = Tracer()
    times = Clock(sample=False)  # untraced and traced ops, alternating
    per_op: list[dict] = []
    counts: list[dict] = []

    def pair():
        client.op(clock=times)
        tracer.begin_op()
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                client.op(tracer, clock=times)
        finally:
            tracer.uninstall()
        m = layer_metrics(tracer)
        m["pointset.numpy_warnings"] = sum(
            1 for w in caught if Path(w.filename).name == "pointset.py"
        )
        m["cli.bytes_written"] = client.bytes_written()
        per_op.append(m)
        counts.append({**tracer.calls, **tracer.values, "warnings": m["pointset.numpy_warnings"]})

    timed_loop(client, seconds, MIN_TRACED_OPS, pair)
    for k, c in enumerate(counts[1:], start=2):
        if c != counts[0]:
            diff = sorted(map(str, set(c.items()) ^ set(counts[0].items())))
            client.problems.append(f"traced op {k}: counts differ from traced op 1: {diff[:6]}")
    values = {}
    spread = {}
    for name in per_op[0]:
        samples = [m[name] for m in per_op]
        if layer_unit(name) != "s" and name not in _UNREPEATABLE:
            values[name] = samples[0]  # a count, equal on every traced op
        else:
            q1, med, q3 = quartiles(samples)
            values[name] = med
            spread[name] = (q1, q3)
    plain, traced = times.scaled[0::2], times.scaled[1::2]
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    notes = {
        name: "median of {} traced ops, quartiles {:.6g} / {:.6g}".format(len(per_op), *qs)
        for name, qs in spread.items()
    }
    notes["trace.overhead_s"] = (
        f"median traced op {statistics.median(traced):.4f} s over {len(traced)}, "
        f"untraced {statistics.median(plain):.4f} s over {len(plain)}, at the reference speed"
    )
    detail = {
        "traced_seconds": times.wall[1::2],
        "untraced_seconds": times.wall[0::2],
        "slowdowns": times.slowdowns,
        "per_op": per_op,
        "notes": notes,
    }
    return values, detail, tracer


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def run_workload(
    cli,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    per_level: int | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Run one workload, print every metric with its unit, and return the result object."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        # per-layer counts must repeat exactly, so a traced run keeps to one point set
        seeds = [seed] if trace else run_seeds(seed)
        client = Client(cli, workload, seeds, workdir, per_level)
        if trace:
            values, detail, tracer = per_layer(client, seconds)
            units = {name: layer_unit(name) for name in values}
            units["trace.overhead_s"] = "s"
            gated = units
        else:
            values, detail = end_to_end(client, seconds, setup_repeats)
            units = {**END_TO_END, **PRINTED_ONLY}
            gated = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(workload.name, seed)
    stem = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in values.items():
        note = detail["notes"].get(name, "")
        print(f"metric {name} {value!r} {units[name]}" + (f"  ({note})" if note else ""))
    for problem in client.problems:
        print(f"problem {problem}")
    result = {
        "correct": not client.problems,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items() if n in gated},
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, **detail}, fh, indent=1)
    if trace:
        with open(f"{stem}-spans.csv", "w", encoding="utf-8") as fh:
            fh.write("op,id,parent,name,start,end\n")
            for op, sid, parent, name, start, end in tracer.spans:
                fh.write(f"{op},{sid},{'' if parent is None else parent},{name},{start!r},{end!r}\n")
    return result


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in a fresh interpreter; ends with one JSON keyed by workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            results[name] = {"correct": False, "exit_code": proc.returncode}
        else:
            results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=list(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = load_program()
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(cli, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
