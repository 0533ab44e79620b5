"""Benchmark of the auesim CLI on four Monte Carlo workloads.

Run from the repository root:

    python3 bench/run.py --workload ref-point --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke

Each run drives ``auesim.cli.main(argv)`` in this process, over and over for
``--seconds`` seconds, with the workload's arguments and ``--seed`` as the CLI
seed.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, and
``--trace 1`` the per-layer metrics of a run traced by ``spans.Tracer``.  The
last line of stdout is one JSON object; a record with the machine metadata is
appended to ``.bench_out/results.jsonl`` and the spans of a traced run go to
``.bench_out/spans-<workload>.npz``.  NOTES.md explains the workloads and how
the metrics relate.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import checks
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
LAYERS = ("cli", "harness", "model", "covariance", "estimators", "theory")
ALL_SCHEMES = ("eig-sum", "eig-diff", "orthogonal", "mle")
SETUP_PROBES = 7
TWIN_RUNS = 5
# computed from the workload's sizes, not measured: they repeat exactly
COMPUTED = ("model.normals_per_trial", "model.bytes_per_trial", "estimators.mults_per_trial")


def _load_auesim():
    """Import auesim from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("auesim")
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import auesim from {src}: {exc}") from None
    if src.resolve() not in Path(package.__file__).resolve().parents:
        raise SystemExit(f"bench: auesim was imported from {package.__file__}, not from {src}")
    return package


auesim = _load_auesim()
from auesim import cli, estimators, harness  # noqa: E402  (needs the path set above)


def _fmt(value: float) -> str:
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


@dataclass(frozen=True)
class Workload:
    """One CLI invocation, repeated for the length of a run."""

    trials: int
    schemes: tuple[str, ...] = ALL_SCHEMES
    theory: bool = False
    fmt: str = "csv"
    axis: str | None = None  # None is the ``run`` subcommand
    values: tuple[float, ...] = ()
    workers: int = 1
    # worker count of the twin runs whose output must equal the timed runs'; 0 for none
    twin_workers: int = 0
    n: int = 100
    k: int = 25
    m: int = 32
    snr_db: float = 10.0
    eps_max: float = 0.15
    cfo: str = "uniform"

    def argv(self, seed: int, workers: int) -> list[str]:
        argv = ["run"]
        if self.axis is not None:
            # the '=' form, because argparse reads '-10,...' as an option
            argv = ["sweep", "--axis", self.axis, "--values=" + ",".join(map(_fmt, self.values))]
        argv += [
            "--n", str(self.n), "--k", str(self.k), "--m", str(self.m),
            "--snr-db", _fmt(self.snr_db), "--eps-max", _fmt(self.eps_max), "--cfo", self.cfo,
            "--schemes", ",".join(self.schemes), "--trials", str(self.trials),
            "--seed", str(seed), "--workers", str(workers), "--format", self.fmt,
        ]
        return argv + ["--theory"] if self.theory else argv

    def points(self) -> list[checks.Point]:
        points = []
        for value in self.values if self.axis is not None else (None,):
            params = {"n": self.n, "k": self.k, "m": self.m, "snr_db": self.snr_db, "eps_max": self.eps_max}
            if value is not None:
                key = {"k": "k", "m": "m", "snr": "snr_db", "epsilon": "eps_max"}[self.axis]
                params[key] = int(value) if key in ("k", "m") else float(value)
            points.append(
                checks.Point(
                    axis=self.axis or "none",
                    axis_value=value,
                    n=params["n"],
                    k=params["k"],
                    m=params["m"],
                    noise_variance=10.0 ** (-params["snr_db"] / 10.0),
                    alpha=checks.characteristic_function(self.cfo, params["eps_max"]),
                )
            )
        return points


WORKLOADS = {
    "ref-point": Workload(trials=1000, theory=True, twin_workers=2),
    "m-sweep-large": Workload(
        trials=100, axis="m", values=(64, 128, 256), k=50, cfo="gaussian",
        schemes=("eig-sum", "eig-diff"), theory=True,
    ),
    "snr-sweep-small": Workload(
        trials=300, axis="snr", values=(-10, -5, 0, 5, 10, 15, 20), n=4, k=2, m=2, fmt="json",
    ),
    "k-sweep-workers": Workload(
        trials=500, axis="k", values=(5, 15, 25), schemes=("eig-sum",), workers=2, twin_workers=1,
        theory=True,
    ),
}


def _affinity() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def _tail(walls: list[float]) -> tuple[float, float]:
    """The highest order statistic with ten samples above it, and its percentile."""
    ordered = sorted(walls)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, name: str, workload: Workload, seed: int):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.cli_seed = seed % 2**64
        self.workers = min(workload.workers, _affinity())
        self.twin_workers = min(workload.twin_workers, _affinity())
        self.argv = workload.argv(self.cli_seed, self.workers)
        self.points = workload.points()
        self.trials_per_invocation = workload.trials * len(self.points)
        self.out_path = OUT_DIR / f"{name}.out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = b""
        self.reference_ok = False

    def _call(self, argv: list[str]) -> tuple[int, bytes, float]:
        """Run the CLI once, writing to a file; returns exit code, output and wall time."""
        self.out_path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = cli.main([*argv, "--out", str(self.out_path)])
        except SystemExit as exc:
            code = exc.code
        wall = time.perf_counter() - start
        data = self.out_path.read_bytes() if self.out_path.exists() else b""
        self.attempted += 1
        if code != 0:
            self.problems.append(f"exit code {code} for {' '.join(argv)}")
        return code, data, wall

    def warm_up(self) -> None:
        """First invocation: fills lazy state and gives the reference output all later ones must equal."""
        code, self.reference, _ = self._call(self.argv)
        if code == 0:
            self.problems += checks.check_output(
                self.reference, self.workload.fmt, tuple(harness.CSV_HEADER), self.points,
                self.workload.schemes, self.workload.trials, self.cli_seed, self.workload.theory,
            )
        self.reference_ok = not self.problems
        self.failed += int(not self.reference_ok)

    def invoke(self, argv: list[str]) -> float:
        """Run the CLI once and check its output against the reference; returns the wall time."""
        code, data, wall = self._call(argv)
        if data != self.reference:
            self.problems.append(f"output differs from the reference for {' '.join(argv)}")
        if code != 0 or data != self.reference or not self.reference_ok:
            self.failed += 1
        return wall

    def twins(self, runs: int) -> list[float]:
        """Wall times of twin runs at the other worker count; their output must equal the reference."""
        if self.twin_workers in (0, self.workers):
            return []
        return [self.invoke(self.workload.argv(self.cli_seed, self.twin_workers)) for _ in range(runs)]

    def setup_seconds(self) -> float:
        """Time from starting a fresh interpreter to its first trial, via setup_probe.py."""
        start = time.monotonic_ns()
        probe = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), *self.argv, "--out", str(self.out_path)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if probe.returncode != 0:
            raise SystemExit(f"bench: setup probe failed: {probe.stderr.strip()}")
        return (int(probe.stdout.split()[-1]) - start) / 1e9

    def end_to_end(self, seconds: float, probes: int, twin_runs: int) -> tuple[dict, dict]:
        self.warm_up()
        walls = []
        deadline = time.perf_counter() + seconds
        while True:
            walls.append(self.invoke(self.argv))
            if time.perf_counter() >= deadline:
                break
        # before the twins and probes, so that only pool workers count as children
        rss = _peak_rss_mb(with_children=self.workers > 1)
        self.twins(twin_runs)
        setups = [self.setup_seconds() for _ in range(probes)]
        tail, percentile = _tail(walls)
        metrics = {
            "trials_per_s": self.trials_per_invocation * len(walls) / sum(walls),
            "wall_s": statistics.median(walls),
            "wall_s_tail": tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
        extra = {
            "invocations": len(walls), "wall_s_tail_percentile": percentile,
            "setup_samples": setups, "walls": [round(w, 6) for w in walls],
        }
        return metrics, extra

    def per_layer(self, seconds: float, twin_runs: int, layer_functions: list[str]) -> tuple[dict, dict]:
        metrics = self._computed()
        tracer = spans.Tracer({name: importlib.import_module(f"auesim.{name}") for name in LAYERS})
        self.warm_up()
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        pair = 0
        while True:
            # alternate which side goes first, so drift in machine speed cancels
            for with_trace in (pair % 2 == 1, pair % 2 == 0):
                if with_trace:
                    with tracer.tracing(pair):
                        traced.append(self.invoke(self.argv))
                else:
                    plain.append(self.invoke(self.argv))
            pair += 1
            if time.perf_counter() >= deadline:
                break
        twins = self.twins(twin_runs)
        calls, self_ns, root_ns, accounted = tracer.summary()
        tracer.write(OUT_DIR / f"spans-{self.name}.npz")
        if abs(accounted - 1.0) > 1e-9 and calls.get("harness.run_sweep"):
            self.problems.append(f"self times cover {accounted:.6f} of the run_sweep spans")
            self.failed += 1
        trials = self.trials_per_invocation * len(traced)
        for function in layer_functions:
            metrics[f"{function}.calls"] = calls.get(function, 0) / len(traced)
            metrics[f"{function}.self_us_per_trial"] = self_ns.get(function, 0.0) / 1e3 / trials
            metrics[f"{function}.self_share"] = self_ns.get(function, 0.0) / root_ns
        metrics["trace_overhead"] = sum(traced) / sum(plain)
        metrics["trace.run_sweep_accounted"] = accounted
        # serial over pooled wall time; without a pool the speed-up is 1 by definition
        serial, pooled = (twins, plain) if self.workers > 1 else (plain, twins)
        metrics["harness.pool_speedup"] = statistics.median(serial) / statistics.median(pooled) if twins else 1.0
        extra = {"traced_invocations": len(traced), "spans": len(tracer.fn), "spans_scope": "benchmark process only"}
        return metrics, extra

    def _computed(self) -> dict[str, float]:
        """Per-trial work of the direct model, averaged over the sweep points."""
        normals, volume, mults = [], [], []
        for p in self.points:
            normals.append(2 * p.k * p.m + 4 * p.m)  # channels plus noise
            volume.append(8 * (normals[-1] + p.k))  # float64 draws, CFOs included
            mults.append(
                sum(estimators.multiplication_count(estimators.Scheme(s), p.m) for s in self.workload.schemes)
            )
        return {
            "model.normals_per_trial": statistics.fmean(normals),
            "model.bytes_per_trial": statistics.fmean(volume),
            "estimators.mults_per_trial": statistics.fmean(mults),
        }

    def metadata(self) -> dict:
        return {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "auesim": auesim.__version__,
            "cpu_count": os.cpu_count(),
            "affinity": _affinity(),
            "machine": platform.machine(),
            "workload_seed": self.seed,
            "cli_seed": self.cli_seed,
            "workers": self.workers,
            "twin_workers": self.twin_workers,
        }


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(name: str, seed: int, seconds: float, trace: int, *, probes=SETUP_PROBES, twin_runs=TWIN_RUNS,
        workload: Workload | None = None) -> dict:
    """One benchmark run; returns the result object and appends a record to results.jsonl."""
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    bench = Bench(name, workload or WORKLOADS[name], seed)
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        functions = [m["name"][: -len(".calls")] for m in wanted if m["name"].endswith(".calls")]
        metrics, extra = bench.per_layer(seconds, twin_runs, functions)
    else:
        metrics, extra = bench.end_to_end(seconds, probes, twin_runs)
    missing = {m["name"] for m in wanted} - metrics.keys()
    if missing:
        raise SystemExit(f"bench: no value for {sorted(missing)}")
    record = {
        "workload": name, "trace": trace, "argv": bench.argv, "meta": bench.metadata(),
        "attempted": bench.attempted, "failed": bench.failed,
        "failed_frac": bench.failed / bench.attempted, "problems": bench.problems[:20],
        "metrics": metrics, "computed_metrics": [c for c in COMPUTED if c in metrics], **extra,
    }
    with open(OUT_DIR / "results.jsonl", "a") as stream:
        stream.write(json.dumps(record) + "\n")
    for problem in bench.problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    if trace and bench.workers > 1:
        print("note: spans are taken in the benchmark process only; pool workers' time is "
              "harness.collect_estimates self time")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def smoke() -> int:
    """Run every workload briefly in both modes and check metric names and result shape."""
    spec = _spec()
    bad = []
    for name, workload in WORKLOADS.items():
        for trace in (0, 1):
            result = run(name, 1, 0.0, trace, probes=1, twin_runs=1,
                         workload=dataclasses.replace(workload, trials=20))
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            shape_ok = (
                list(result) == ["correct", "attempted", "failed", "metrics"]
                and result["correct"] is True
                and result["attempted"] >= 1
                and result["failed"] == 0
                and {k: v["unit"] for k, v in result["metrics"].items()} == wanted
                and all(math.isfinite(v["value"]) for v in result["metrics"].values())
            )
            print(f"smoke {name} trace={trace}: {'ok' if shape_ok else 'FAILED'}", file=sys.stderr)
            if not shape_ok:
                bad.append(f"{name}/{trace}")
    print(json.dumps({"smoke": "ok" if not bad else "failed", "failed": bad}))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick check of metric names and result shape")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.smoke:
        return smoke()
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
