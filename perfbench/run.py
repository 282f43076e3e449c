"""Benchmark of the adjcrys CLI: end-to-end metrics and a traced per-layer run.

Run from the repository root (stdlib only, no install needed):

    python3 perfbench/run.py --workload verify-a1 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40     # every workload
    python3 perfbench/run.py --workload verify-coord --trace 1

With `--trace 0` the harness runs the CLI as a child process, closed loop and
one child at a time, until `--seconds` is used up, and reports medians over the
repetitions, scaled to a reference speed (see `reference_seconds`).  With
`--trace 1` it runs the workload once untraced and twice through `traced.py`,
and reports per-layer times and counts.  Children are started by
`spawner.py`.  Every CLI output is compared with golden.json.  The last line
of stdout is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`; the exit code is 0 when every output was correct and 1
otherwise.  Runs that cannot start (no `src/`, bad arguments) exit with 2 and
print no result.  A full record (environment,
every sample, the spans) is written to perfbench/results/.

golden.json is edited by hand when the CLI's output is meant to change, so
that the change to the gate shows in review; there is no option to re-pin it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
RESULTS_DIR = BENCH_DIR / "results"

# An invocation is (command, family, rank, level); one repetition of a
# workload runs each of its invocations once.  README.md says why each was
# chosen.  The models are exhaustive and deterministic, so the seed only
# shuffles the order of invocations and set-up probes.
WORKLOADS = {
    "verify-a1": (("verify", "a1", 3, 5),),
    "verify-coord": (("verify", "c1", 3, 5), ("verify", "d2", 4, 6)),
    "graph-a1": (("graph", "a1", 4, 6),),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "elements_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "enumerate.s": "s",
    "crystal_graph.axiom_checks.s": "s",
    "affine_a.verify_theorems.s": "s",
    "affine_c.verify_theorems.s": "s",
    "affine_d2.verify_theorems.s": "s",
    "affine_a.promotion_checks.s": "s",
    "affine_a.alpha_checks.s": "s",
    "crystal_graph.build_graph.s": "s",
    "crystal_graph.export.s": "s",
    "crystal_graph.build_graph.rss_mb": "MB",
    "crystal_graph.export.rss_mb": "MB",
    "checks.cases": "count",
    "ops.calls": "count",
    "ops.calls_per_slot": "calls/slot",
    "elem.constructed": "count",
    "root_data.datum_constructed": "count",
    "root_data.weight_calls": "count",
    "tableaux.tableau_constructed": "count",
    "tableaux.ops.calls": "count",
    "crystal_graph.build_graph.edges": "count",
    "crystal_graph.export.bytes": "bytes",
}
# Spans whose total time (outermost calls only) is reported as "<name>.s".
TIMED_SPANS = [name[:-2] for name in PER_LAYER if name.endswith(".s")]

SETUP_PROBES_PER_ROUND = 3
# `reference_seconds()` takes about REFERENCE_NOMINAL_S on the machine the
# seed-commit numbers were taken on; scaled times are seconds at that speed.
# A child's time moves as the reference time to the power
# REFERENCE_SENSITIVITY: the least-squares slope of log child wall on log
# reference time over 246 invocations of the three workloads there (0.59 to
# 0.75 per workload; below 1 also because the reference is itself noisy).
REFERENCE_ITERATIONS = 90_000
REFERENCE_NOMINAL_S = 0.46
REFERENCE_SENSITIVITY = 0.7
MIN_REPS = 3
TRACED_RUNS = 2


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class ChildRun:
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    size: int
    sha256: str
    body_sha256: str  # of stdout after its first line
    out: str  # empty unless asked for
    scale: float = 1.0


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def cli_args(inv) -> list[str]:
    command, family, rank, level = inv
    args = [command, "--family", family, "--rank", str(rank), "--level", str(level)]
    return args + (["--check", "all"] if command == "verify" else ["--format", "json"])


def inv_key(inv) -> str:
    return " ".join(cli_args(inv))


class Children:
    """Runs `python <args>` children from the root, through spawner.py.

    Children are spawned from that small helper so that their `ru_maxrss`
    does not include this process's resident pages.
    """

    def __init__(self) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        path = os.environ.get("PYTHONPATH")
        self._env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def run(self, args: list[str], keep_output: bool = False) -> ChildRun:
        request = {"argv": [sys.executable, *args], "env": self._env, "keep_output": keep_output}
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise BenchError("the spawner helper exited")
        return ChildRun(**json.loads(reply))

    def cli(self, inv) -> ChildRun:
        return self.run(["-m", "adjcrys", *cli_args(inv)])

    def setup_probe(self) -> float:
        """Start the interpreter, import the CLI module and exit."""
        run = self.run(["-c", "import adjcrys.cli"])
        if run.exit != 0:
            raise BenchError(f"cannot import adjcrys.cli from {SRC}")
        return run.wall

    def close(self) -> None:
        self._helper.stdin.close()
        self._helper.wait()
        self._helper.stdout.close()

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def check_program(children: Children) -> None:
    if not (SRC / "adjcrys" / "__init__.py").is_file():
        raise BenchError(f"no adjcrys package under {SRC}")
    children.setup_probe()  # also compiles the bytecode before anything is timed


def element_count(inv) -> int:
    """The closed-form size (`expected_size`) of the invocation's crystal."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from adjcrys import affine_a, affine_c, affine_d2

    _, family, rank, level = inv
    module = {"a1": affine_a, "c1": affine_c, "d2": affine_d2}[family]
    return module.expected_size(rank, level)


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN_PATH.read_text())["invocations"]
    except (OSError, ValueError, KeyError) as err:
        raise BenchError(f"cannot read golden outputs from {GOLDEN_PATH}: {err}") from err


def record_golden(children: Children, invocations) -> dict:
    """Golden entries for the current tree: exit code 0, stdout length and sha256."""
    entries = {}
    for inv in invocations:
        run = children.cli(inv)
        if run.exit != 0:
            raise BenchError(f"{inv_key(inv)} exited with {run.exit}; refusing to pin it")
        entries[inv_key(inv)] = {"exit": 0, "bytes": run.size, "sha256": run.sha256}
    return entries


def gate(inv, run: ChildRun, golden: dict) -> bool:
    """The golden-output gate: exit code, stdout length and digest all match."""
    want = golden.get(inv_key(inv))
    return (
        want is not None
        and run.exit == want["exit"]
        and run.size == want["bytes"]
        and run.sha256 == want["sha256"]
    )


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(children: Children, invocations, golden: dict, seconds: float, rng: random.Random,
            min_reps: int = MIN_REPS) -> Result:
    """End-to-end metrics: closed loop, one child at a time, for `seconds`.

    Each child's times are scaled to the reference speed measured just before
    and just after it (see `reference_seconds`); the raw times go to the record.
    """
    elements = sum(element_count(inv) for inv in invocations)
    result = Result({})
    refs = [reference_seconds()]
    reps: list[list[ChildRun]] = []
    setups: list[float] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        steps = ["setup"] * SETUP_PROBES_PER_ROUND + ["rep"]
        rng.shuffle(steps)
        for step in steps:
            if step == "setup":
                setups.append(children.setup_probe())
                continue
            order = list(invocations)
            rng.shuffle(order)
            rep = []
            for inv in order:
                run = children.cli(inv)
                refs.append(reference_seconds())
                run.scale = _scale(statistics.mean(refs[-2:]))
                result.attempted += 1
                if not gate(inv, run, golden):
                    result.failed += 1
                    result.problems.append(f"golden mismatch: {inv_key(inv)} (exit {run.exit})")
                rep.append(run)
            reps.append(rep)
        now = time.perf_counter()
        rounds.append(now - round_start)
        if len(reps) >= min_reps and now - start + statistics.median(rounds) > seconds:
            break

    walls = [sum(r.wall * r.scale for r in rep) for rep in reps]
    cpus = [sum(r.cpu * r.scale for r in rep) for rep in reps]
    rss = [max(r.rss_mb for r in rep) for rep in reps]
    run_scale = _scale(statistics.median(refs))
    setups_scaled = [t * run_scale for t in setups]
    wall = statistics.median(walls)
    result.metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "elements_per_s": (elements / wall, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setups_scaled), "s"),
    }
    result.record = {
        "elements": elements,
        "wall_s": _summary(walls),
        "cpu_s": _summary(cpus),
        "peak_rss_mb": _summary(rss),
        "setup_s": _summary(setups_scaled),
        "raw_wall_s": _summary([sum(r.wall for r in rep) for rep in reps]),
        "raw_cpu_s": _summary([sum(r.cpu for r in rep) for rep in reps]),
        "raw_setup_s": _summary(setups),
        "refs": refs,
        "reps": [[{"wall": r.wall, "cpu": r.cpu, "rss_mb": r.rss_mb, "scale": r.scale}
                  for r in rep] for rep in reps],
    }
    return result


def _scale(reference: float) -> float:
    return (REFERENCE_NOMINAL_S / reference) ** REFERENCE_SENSITIVITY


@dataclass(frozen=True)
class _Point:
    coords: tuple[int, ...]
    level: int

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.coords) or sum(self.coords) > 2 * self.level:
            raise ValueError("coordinates out of range")


def reference_seconds() -> float:
    """Time a fixed pure-Python loop in this process: the host's current speed.

    On a shared machine the same child can take a third longer for minutes at
    a time.  The loop does what the models do (frozen-dataclass construction
    with validation, tuple arithmetic, dict updates), never imports adjcrys and
    does not change with the program, so scaling by it cancels most of the
    host's drift and treats both commits of a comparison alike.
    """
    start = time.perf_counter()
    seen: dict[_Point, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        p = _Point((i % 7, i % 11, i % 13, i % 2), 20)
        q = _Point(tuple(c + 1 for c in p.coords), p.level)
        seen[q] = seen.get(p, 0) + 1
    return time.perf_counter() - start


def _outermost_seconds(spans: list[dict], name: str) -> float:
    """Time inside spans called `name`, leaving out such spans nested in another."""
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if s["name"] != name:
            continue
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != name:
            parent = by_id[parent]["parent"]
        if parent is None:
            total += s["end"] - s["start"]
    return total


def _layer_metrics(run: dict, slots: int) -> dict[str, float]:
    spans, counts = run["spans"], run["counts"]
    values = {f"{name}.s": _outermost_seconds(spans, name) for name in TIMED_SPANS}
    for name in ("crystal_graph.build_graph", "crystal_graph.export"):
        values[f"{name}.rss_mb"] = max(
            (s["rss_mb"] for s in spans if s["name"] == name), default=0.0)
    for name, unit in PER_LAYER.items():
        if unit in ("count", "bytes"):
            values[name] = counts.get(name, 0)
    values["ops.calls_per_slot"] = counts.get("ops.calls", 0) / slots
    return values


def trace(children: Children, invocations, golden: dict, rng: random.Random) -> Result:
    """Per-layer metrics from traced in-process runs, plus their checks."""
    result = Result({})
    order = list(invocations)
    rng.shuffle(order)
    wall = 0.0
    bodies = {}
    for inv in order:
        run = children.cli(inv)
        result.attempted += 1
        if not gate(inv, run, golden):
            result.failed += 1
            result.problems.append(f"golden mismatch: {inv_key(inv)} (exit {run.exit})")
        wall += run.wall
        bodies[inv] = run.body_sha256 if inv[0] == "verify" else run.sha256

    traced = []
    for _ in range(TRACED_RUNS):
        run = children.run([str(BENCH_DIR / "traced.py"), json.dumps(invocations)],
                           keep_output=True)
        result.attempted += 1
        if run.exit != 0:
            result.failed += 1
            result.problems.append(f"traced run exited with {run.exit}")
            continue
        data = json.loads(run.out)
        data["wall"] = run.wall
        mismatched = [inv_key(inv) for inv, digest in zip(invocations, data["digests"])
                      if digest != bodies[inv]]
        if mismatched:
            result.failed += 1
            result.problems.append(f"traced output differs from the CLI: {mismatched}")
        traced.append(data)
    if not traced:
        return result

    slots = sum(element_count(inv) * (inv[2] + 1) * 2 for inv in invocations)
    per_run = [_layer_metrics(data, slots) for data in traced]
    if any(run["counts"] != traced[0]["counts"] for run in traced):
        result.problems.append("counts differ between traced runs")
    uses_tableaux = any(inv[:2] == ("verify", "a1") for inv in invocations)
    constructed = per_run[0]["tableaux.tableau_constructed"]
    if uses_tableaux != (constructed > 0):
        result.problems.append(
            f"tableaux.tableau_constructed is {constructed} on a workload that "
            f"{'runs' if uses_tableaux else 'bypasses'} the tableaux oracle")

    values = dict(per_run[0])  # counts are equal across runs; times take the median
    for name in values:
        if PER_LAYER[name] in ("s", "MB"):
            values[name] = statistics.median(run[name] for run in per_run)
    result.metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    # A diagnostic, not a metric: the difference of two single walls can be 0
    # or negative, as the untraced CLI also writes its output to a pipe.
    result.record = {"trace_overhead_s": statistics.median(d["wall"] for d in traced) - wall,
                     "untraced_wall_s": wall, "traced_wall_s": [d["wall"] for d in traced],
                     "counts": traced[0]["counts"], "spans": [d["spans"] for d in traced]}
    return result


def _git_state() -> tuple[str | None, bool | None]:
    env = dict(os.environ, GIT_OPTIONAL_LOCKS="0")
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
        if head.returncode != 0:
            return None, None
        toplevel, rev = head.stdout.split()
        if Path(toplevel).resolve() != ROOT:
            return None, None
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired, ValueError):
        return None, None
    return rev, bool(status.stdout.strip()) if status.returncode == 0 else None


def environment(args) -> dict:
    rev, dirty = _git_state()
    return {
        "python": platform.python_version(),
        "git_rev": rev,
        "git_dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": list(os.getloadavg()),
    }


def print_table(workload: str, result: Result, trace_on: bool) -> None:
    print(f"== {workload}: {'per-layer (traced)' if trace_on else 'end-to-end'} ==")
    record = result.record
    for name, (value, unit) in result.metrics.items():
        note = ""
        if not trace_on:
            count = f"{record['setup_s']['n']} probes" if name == "setup_s" else \
                f"{record['wall_s']['n']} reps"
            note = f"  median of {count}"
            if "raw_" + name in record:
                note += f", unscaled {record['raw_' + name]['median']:.6g} {unit}"
        print(f"  {name:<36} {value:>14.6g} {unit}{note}")
    if not trace_on:
        frac = result.failed / result.attempted if result.attempted else 0.0
        print(f"  {'failed_frac':<36} {frac:>14.6g} share  of {result.attempted} invocations")
    elif "trace_overhead_s" in record:
        print(f"  {'(trace overhead, traced - untraced wall)':<36} "
              f"{record['trace_overhead_s']:>14.6g} s")
    for problem in result.problems:
        print(f"  FAIL {problem}")


def run_workloads(children: Children, args) -> tuple[Result, dict]:
    golden = load_golden()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng = random.Random(args.seed)
    total = Result({})
    records = {}
    for name in names:
        if args.trace:
            result = trace(children, WORKLOADS[name], golden, rng)
        else:
            result = measure(children, WORKLOADS[name], golden, args.seconds, rng)
        print_table(name, result, args.trace)
        prefix = "" if len(names) == 1 else f"{name}."
        total.metrics.update({prefix + k: v for k, v in result.metrics.items()})
        total.attempted += result.attempted
        total.failed += result.failed
        total.problems += result.problems
        records[name] = {"metrics": result.metrics, "attempted": result.attempted,
                         "failed": result.failed, "problems": result.problems, **result.record}
    return total, records


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with Children() as children:
            check_program(children)
            env = environment(args)
            print("env " + json.dumps(env))
            total, records = run_workloads(children, args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    env["loadavg_end"] = list(os.getloadavg())
    env["harness_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("env " + json.dumps({k: env[k] for k in ("loadavg_end", "harness_peak_rss_mb")}))
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"env": env, "workloads": records}, indent=1) + "\n")
    print(json.dumps({
        "correct": total.correct,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in total.metrics.items()},
    }))
    return 0 if total.correct else 1


if __name__ == "__main__":
    sys.exit(main())
