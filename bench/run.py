"""licterm benchmark: seeded workloads run through the real CLI.

Run from the repository root:

    python3 bench/run.py --workload ecosystem-wide --seed 1 --seconds 35 --trace 0

With ``--trace 0`` each workload's commands run as child processes
(``python -m licterm.cli ...``) in a closed loop: one client, one child
at a time, each started after the previous one ended. The loop runs
one whole cycle of all commands, then keeps starting commands for as
long as they fit in ``--seconds``. The end-to-end times are medians of
each child's CPU time, scaled by a speed probe that runs beside the
child on the same CPU (see ``probe_slice``). With ``--trace 1`` the
same commands run in this process through ``licterm.cli.main``:
untraced and traced passes alternate for as long as one more pair
fits, and the per-layer metrics come from the traced passes (see
``tracing.py``).

Every output is checked by the oracle gate (``gate.py``) and for byte
identity across repetitions. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import gen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"

# (name, unit): the end-to-end metrics, all reported on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("ingest_s", "s"),
    ("scan_s", "s"),
    ("changes_s", "s"),
    ("pipeline_s", "s"),
    ("matrix_s", "s"),
    ("mine_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)
# (name, unit, better): the per-layer metrics of the traced run. Counts
# that describe the input rather than work done are marked "higher".
PER_LAYER = (
    ("registry.parse_s", "s", "lower"),
    ("registry.records", "count", "higher"),
    ("registry.build_graph_s", "s", "lower"),
    ("registry.edges", "count", "higher"),
    ("registry.unresolved.unknown-package", "count", "lower"),
    ("registry.unresolved.no-match", "count", "lower"),
    ("registry.unresolved.unparsable-range", "count", "lower"),
    ("semver.resolve_calls", "count", "lower"),
    ("semver.resolve_s", "s", "lower"),
    ("semver.parse_range_s", "s", "lower"),
    ("semver.versions_examined", "count", "lower"),
    ("semver.examined_per_edge", "count", "lower"),
    ("semver.distinct_ranges_ratio", "ratio", "higher"),
    ("semver.ingest_share", "ratio", "lower"),
    ("semver.pipeline_share", "ratio", "lower"),
    ("registry.write_graph_s", "s", "lower"),
    ("registry.graph_bytes", "bytes", "lower"),
    ("registry.read_graph_s", "s", "lower"),
    ("expression.normalize_calls", "count", "lower"),
    ("expression.normalize_s", "s", "lower"),
    ("expression.distinct_raw", "count", "higher"),
    ("expression.unresolvable.no-license", "count", "higher"),
    ("expression.unresolvable.file-reference", "count", "higher"),
    ("expression.unresolvable.url", "count", "higher"),
    ("expression.unresolvable.hash-like", "count", "higher"),
    ("expression.unresolvable.unknown-name", "count", "higher"),
    ("conflicts.check_calls", "count", "lower"),
    ("conflicts.check_s", "s", "lower"),
    ("conflicts.distinct_pairs_ratio", "ratio", "higher"),
    ("scan.scan_s", "s", "lower"),
    ("scan.rank_s", "s", "lower"),
    ("scan.conflicted_edges", "count", "higher"),
    ("scan.unknown_license_edges", "count", "higher"),
    ("registry.changes_s", "s", "lower"),
    ("registry.changes", "count", "higher"),
    ("dataset.load_s", "s", "lower"),
    ("dataset.profiles", "count", "higher"),
    ("conflicts.matrix_s", "s", "lower"),
    ("conflicts.matrix_pairs", "count", "higher"),
    ("mining.mine_s", "s", "lower"),
    ("mining.patterns", "count", "higher"),
    ("mining.dedup_s", "s", "lower"),
    ("mining.kept_ratio", "ratio", "higher"),
    ("registry.self_s", "s", "lower"),
    ("semver.self_s", "s", "lower"),
    ("expression.self_s", "s", "lower"),
    ("conflicts.self_s", "s", "lower"),
    ("scan.self_s", "s", "lower"),
    ("mining.self_s", "s", "lower"),
    ("dataset.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# No round starts that would end after this many seconds, whatever
# --seconds says; a child still running 20 s later is killed.
HARD_LIMIT_S = 150.0


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    ok_codes: tuple[int, ...] = (0,)


def build_ops(files: dict, graph: str, min_support: int) -> list[Op]:
    """The workload's commands, in pipeline order; set-up first."""
    data = ("--dataset", _rel(files["dataset"])) if files["dataset"] else ()
    snapshot = _rel(files["snapshot"])
    return [
        Op("setup", ("normalize", "MIT", *data)),
        Op("ingest", ("ingest", snapshot, "-o", graph)),
        Op("scan", ("scan", graph, "--format", "records", *data), (0, 4)),
        Op("changes", ("changes", snapshot, "--format", "records", *data)),
        Op("matrix", ("matrix", "--format", "records", *data)),
        Op("mine", ("mine", "--format", "records", "--min-support", str(min_support), *data)),
    ]


def _rel(path) -> str:
    return os.path.relpath(path, ROOT)


class Checker:
    """Judges every command run: exit code, traceback, oracle, byte identity.

    The first output of each command goes through the oracle gate; later
    outputs must be byte-identical to it, and inherit its verdict.
    """

    def __init__(self, gate, min_support: int):
        self.gate = gate
        self.min_support = min_support
        self.reference: dict[str, tuple[bytes, bytes, list[str]]] = {}
        self.ingest_edges = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _oracle(self, op: Op, stdout: str, extra: str) -> list[str]:
        if op.name == "setup":
            return self.gate.check_normalize(stdout)
        if op.name == "ingest":
            summary = self.gate.ingest_summary(stdout)
            self.ingest_edges = summary[1] if summary else -1
            return self.gate.check_ingest(stdout, extra)
        if op.name == "scan":
            return self.gate.check_scan(stdout, self.ingest_edges)
        if op.name == "matrix":
            return self.gate.check_matrix(stdout)
        if op.name == "mine":
            return self.gate.check_mine(stdout, self.min_support)
        return []

    def judge(self, op: Op, code, stdout: bytes, stderr: bytes, extra: bytes = b"") -> bool:
        self.attempted += 1
        problems = []
        if code not in op.ok_codes:
            problems.append(f"exit code {code}")
        if b"Traceback" in stderr:
            problems.append("traceback on stderr")
        reference = self.reference.get(op.name)
        if reference is None:
            try:
                verdict = self._oracle(op, stdout.decode(), extra.decode())
            except (ValueError, KeyError, IndexError) as exc:
                verdict = [f"{op.name}: unreadable output ({exc!r})"]
            self.reference[op.name] = (stdout, extra, verdict)
            problems += verdict
        elif (stdout, extra) != reference[:2]:
            problems.append("output differs from the first run of the same input")
        elif reference[2]:
            problems.append("same output as a run that failed the oracle")
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                more = f" (and {len(problems) - 3} more)" if len(problems) > 3 else ""
                self.errors.append(f"{op.name}: " + "; ".join(p[:300] for p in problems[:3]) + more)
        return not problems


def another_round(start: float, rounds: int, seconds: float) -> bool:
    """Start a round if none ran yet, or if one more of average length fits."""
    if not rounds:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= min(seconds, HARD_LIMIT_S)


# --- end-to-end run -----------------------------------------------------------

# A shared host runs the same code up to ~1.8x slower for seconds at a
# time, when other tenants load the physical core. CPU time leaves out
# time lost to other tasks and to the hypervisor, but not a slower core.
# So while a child runs, this process wakes every PROBE_PERIOD_S on the
# same CPU and times a fixed pure-Python slice (see ``probe_slice``).
# The child's CPU time is scaled by PROBE_REFERENCE_S over the slices'
# mean, so the times read as CPU seconds on a machine that runs the
# slice in PROBE_REFERENCE_S (this one in its faster state).
PROBE_PERIOD_S = 0.010
PROBE_REFERENCE_S = 0.001


def probe_slice() -> float:
    """CPU seconds of a fixed job of version parsing, dict counting and sorting."""
    gc.disable()  # a full collection of the gate's heap would land here
    try:
        start = time.thread_time()
        rng = random.Random(7)
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(250):
            text = f"{rng.randrange(20)}.{rng.randrange(20)}.{rng.randrange(50)}"
            key = tuple(int(part) for part in text.split("."))
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        return time.thread_time() - start
    finally:
        gc.enable()


def launch(argv: list[str], env: dict, out_path: Path, err_path: Path, timeout: float):
    """Run one child to its end, probing the CPU's speed while it runs.

    Returns (wall s, CPU s, mean probe s, exit code, max RSS in KiB). A
    child still running after ``timeout`` seconds is killed.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        probes = [probe_slice()]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killed = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if not killed and time.perf_counter() - start > max(timeout, 1.0):
                # os.kill, not proc.kill: Popen would reap the child and
                # lose its resource usage.
                os.kill(proc.pid, signal.SIGKILL)
                killed = True
            probes.append(probe_slice())
            time.sleep(PROBE_PERIOD_S)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return elapsed, cpu, statistics.fmean(probes), proc.returncode, usage.ru_maxrss


def end_to_end(ops: list[Op], checker: Checker, seconds: float, work: Path, graph: Path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    env.pop("LICTERM_DATASET", None)
    # One CPU for this process and its children, so that a probe slice
    # measures the core the child runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    begin = time.perf_counter()
    # (command, start offset, wall s, CPU s, mean probe s)
    timeline: list[tuple[str, float, float, float, float]] = []
    peak_kib = 0

    def run(op: Op) -> tuple[float, float, float]:
        nonlocal peak_kib
        out_path, err_path = work / f"{op.name}.out", work / f"{op.name}.err"
        timeout = HARD_LIMIT_S + 20 - (time.perf_counter() - begin)
        argv = [sys.executable, "-m", "licterm.cli", *op.argv]
        elapsed, cpu, speed, code, rss = launch(argv, env, out_path, err_path, timeout)
        peak_kib = max(peak_kib, rss)
        extra = graph.read_bytes() if op.name == "ingest" and graph.exists() else b""
        checker.judge(op, code, out_path.read_bytes(), err_path.read_bytes(), extra)
        return elapsed, cpu, speed

    run(ops[0])  # warm-up: compiles bytecode and fills the file cache
    start = time.perf_counter()

    # A cycle runs ingest and scan once each, each followed by one round of
    # the other commands, so those get two samples per cycle, spread over
    # the whole run. The first cycle always runs whole. After it, each
    # command starts only if its last run's length still fits in the
    # budget, and the loop ends when none does; so the short commands
    # fill the end of the run.
    long = [op for op in ops if op.name in ("ingest", "scan")]
    short = [op for op in ops if op not in long]
    cycle = [long[0], *short, long[1], *short]
    budget = min(seconds, HARD_LIMIT_S)
    last: dict[str, float] = {}
    first = started = True
    while started:
        started = False
        for op in cycle:
            offset = time.perf_counter() - begin
            if not first and offset - (start - begin) + last[op.name] > budget:
                continue
            timeline.append((op.name, offset, *run(op)))
            last[op.name] = time.perf_counter() - begin - offset
            started = True
        first = False
    (work / "samples.json").write_text(json.dumps(timeline), encoding="utf-8")
    samples: dict[str, list[float]] = defaultdict(list)
    walls: dict[str, list[float]] = defaultdict(list)
    for name, _, elapsed, cpu, speed in timeline:
        samples[name].append(cpu * PROBE_REFERENCE_S / speed)
        walls[name].append(elapsed)
    medians = {name: statistics.median(values) for name, values in samples.items()}
    raw = {f"{name}_wall_s": statistics.median(values) for name, values in walls.items()}
    raw["probe_s"] = statistics.median(speed for *_, speed in timeline)
    metrics = {f"{name}_s": medians[name] for name in ("setup", "ingest", "scan", "changes", "matrix", "mine")}
    metrics["pipeline_s"] = medians["ingest"] + medians["scan"]
    metrics["peak_rss_mb"] = peak_kib / 1024
    counts = {f"{name}_s": len(values) for name, values in samples.items()}
    counts["pipeline_s"] = min(counts["ingest_s"], counts["scan_s"])
    counts["peak_rss_mb"] = len(timeline)
    return metrics, counts, raw


# --- traced run -----------------------------------------------------------------


def traced(ops: list[Op], checker: Checker, seconds: float, graph: Path, tracing):
    argvs = [list(op.argv) for op in ops]
    untraced_s, traced_s, passes, spans = [], [], [], []
    functions: dict[str, dict] = {}
    missing: list[str] = []

    def judge(results):
        for op, (_, code, out, err) in zip(ops, results):
            extra = graph.read_bytes() if op.name == "ingest" and graph.exists() else b""
            checker.judge(op, code, out.encode(), err.encode(), extra)

    start = time.perf_counter()
    while another_round(start, len(passes), seconds):
        elapsed, results = tracing.run_pass(argvs, None)
        untraced_s.append(elapsed)
        judge(results)
        tracer = tracing.Tracer(run_id=len(passes) + 1)
        elapsed, results = tracing.run_pass(argvs, tracer)
        traced_s.append(elapsed)
        judge(results)
        passes.append(tracer.metrics())
        spans += tracer.span_records()
        functions = {n: {"calls": tracer.calls[n], "seconds": tracer.seconds[n]} for n in tracing.FUNCTIONS}
        missing = tracer.missing
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.untraced_s"] = statistics.median(untraced_s)
    metrics["trace.traced_s"] = statistics.median(traced_s)
    metrics["trace.overhead_ratio"] = metrics["trace.traced_s"] / metrics["trace.untraced_s"] - 1
    trace = {"spans": spans, "functions": functions, "missing": missing,
             "untraced_s": untraced_s, "traced_s": traced_s}
    return metrics, len(passes), trace


# --- context and output ---------------------------------------------------------


def context(files: dict, profiles: int, edges: int, nproc: int) -> dict:
    src = ROOT / "src"
    code = [p for p in sorted(src.rglob("*")) if p.is_file() and "__pycache__" not in p.parts]
    return {
        "src_lines": sum(p.read_bytes().count(b"\n") for p in code),
        "src_py_lines": sum(p.read_bytes().count(b"\n") for p in code if p.suffix == ".py"),
        "python": platform.python_version(),
        "nproc": nproc,
        "records": files["records"],
        "edges": edges,
        "profiles": profiles,
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "licterm" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"bench: {ROOT} holds no licterm sources (src/licterm, tests/oracles.py)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import tracing
    from gate import Gate, load_profiles

    work = WORK_DIR / f"{args.workload}-{args.seed}"
    files = gen.write_workload(args.workload, args.seed, work)
    profiles = load_profiles(files["profiles"])
    min_support = gen.BUNDLED_MIN_SUPPORT if files["profiles"] is None else gen.CATALOG_MIN_SUPPORT
    graph = work / "graph.tsv"
    ops = build_ops(files, _rel(graph), min_support)
    checker = Checker(Gate(files["snapshot"].read_text("utf-8"), profiles, args.seed), min_support)

    nproc = len(os.sched_getaffinity(0))  # before the end-to-end run pins one CPU
    ctx: dict = {}
    if args.trace:
        metrics, passes, trace = traced(ops, checker, args.seconds, graph, tracing)
        units = {name: unit for name, unit, _ in PER_LAYER}
        counts = {name: passes for name in units}
    else:
        metrics, counts, raw = end_to_end(ops, checker, args.seconds, work, graph)
        units = dict(END_TO_END)
        ctx["unscaled"] = {name: round(value, 6) for name, value in raw.items()}
    metrics["ok_ratio"] = 1 - checker.failed / checker.attempted
    counts["ok_ratio"] = checker.attempted

    ctx.update(context(files, len(profiles), checker.ingest_edges, nproc))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("context " + json.dumps(ctx, sort_keys=True))
    for error in checker.errors:
        print(f"FAILED {error}")
    print(f"failed_ratio {checker.failed / checker.attempted:.6f} ({checker.failed} of {checker.attempted} runs)")
    if args.trace:
        never = sorted(n for n, f in trace["functions"].items() if not f["calls"])
        print("trace: never called: " + (", ".join(never) or "none"))
        if trace["missing"]:
            print("trace: not found in the program: " + ", ".join(trace["missing"]))
        trace["context"] = ctx
        trace_path = work / "trace.json"
        trace_path.write_text(json.dumps(trace, indent=1, sort_keys=True), encoding="utf-8")
        print(f"trace: spans written to {_rel(trace_path)}")
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>14.6f} {unit:<6} n={counts[name]}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
