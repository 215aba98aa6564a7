"""Layered benchmark of the trimag toolkit.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

    figures        all five figures, byte-compared with tests/golden
    sensitivity    one sensitivity_report per seeded delta_b
    spectrum_scan  in-process `trimag spectrum --dip` over g and grid size
    cli            README examples, one `python -m trimag` process per op

Each run is a closed loop with one client.  It measures until the ops have
taken --seconds in total and stops at the end of an input block.  Every op
passes a correctness gate.  Op and set-up times are rescaled by a reference
kernel timed between ops (reference.py), because the shared machine's speed
swings by up to half between runs; the raw times stay in the run record.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json.  With --trace 1 it carries the per-layer metrics instead:
half the time runs untraced and half traced, with every package boundary
wrapped (see tracing.py), and the difference in throughput is reported as
the tracing overhead.  A traced run also bisects for the smallest delta_b
of fig4's range that sensitivity_report reports (sensing.floor_limit_mhz),
the known floor-clamp defect that the timed sensitivity draws stay above.

A run record with the machine, versions, seed and thread settings goes to
.bench_runs/ in the checkout, next to the spans of a traced run.  BLAS and
OpenMP thread counts are pinned to 1 in this process and its children.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Cli, Sensitivity, child_env  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".bench_runs"
sys.path.insert(0, str(ROOT / "src"))

#: fresh processes timed from start to the first timed op; setup_s is their median
SETUP_PROBES = 15

#: rounds of the four processes that split CLI wall time in a traced run
CLI_SPLIT_ROUNDS = 10

#: op time between two runs of the reference kernel, in seconds
REF_EVERY_S = 0.1

#: samples that must lie beyond the reported tail percentile
TAIL_SAMPLES = 10


def measure(workload, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run whole input blocks until the ops have taken `seconds` in total.

    Every block holds the same input mix, so a run that stops on a block
    boundary measures that mix whatever the seed.  After each REF_EVERY_S of
    op time the reference kernel runs, and the ops since the last one get
    their time rescaled by it (see reference.py): `adjusted` holds those
    times, `durations` the raw ones.
    """
    durations, adjusted, verdicts, points = [], [], [], 0
    busy = since_ref = 0.0
    reference.kernel()
    for block in workload.blocks():
        for inp in block:
            if tracer is not None:
                tracer.begin_op(len(durations))
            elapsed, verdict = workload.run_checked(inp)
            durations.append(elapsed)
            verdicts.append(verdict)
            points += workload.points(inp)
            busy += elapsed
            since_ref += elapsed
            if since_ref >= REF_EVERY_S:
                scale = reference.scale()
                adjusted += [d * scale for d in durations[len(adjusted):]]
                since_ref = 0.0
        if busy >= seconds:
            break
    scale = reference.scale()
    adjusted += [d * scale for d in durations[len(adjusted):]]
    return {"durations": durations, "adjusted": adjusted, "busy": busy,
            "points": points, "ok": verdicts.count("ok"),
            "failed": verdicts.count("failed"), "wrong": verdicts.count("wrong")}


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_SAMPLES samples beyond it, and its value."""
    ordered = sorted(durations)
    n = len(ordered)
    k = max(n - TAIL_SAMPLES - 1, 0) if n > TAIL_SAMPLES else n - 1
    return 100.0 * (k + 1) / n, ordered[k]


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from spawning a fresh process to its first timed op.

    Each sample is rescaled by the reference kernel run right after it.
    """
    samples = []
    reference.kernel()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload, "--seed", str(seed), "--setup-only"],
                stdout=subprocess.PIPE, text=True, env=os.environ.copy()) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        samples.append(elapsed * reference.scale())
    return statistics.median(samples)


def cli_split(scratch: Path) -> dict:
    """Split CLI wall time with one process per stage, medians in ms."""
    exe = sys.executable
    stages = {"interp": [exe, "-c", "pass"],
              "numpy": [exe, "-c", "import numpy"],
              "trimag": [exe, "-c", "import trimag.cli"]}
    order = itertools.islice(itertools.cycle(Cli.COMMANDS), CLI_SPLIT_ROUNDS)
    times = {key: [] for key in (*stages, "command")}
    env = child_env(ROOT)
    for name in order:
        for key, argv in (*stages.items(),
                          ("command", [exe, "-m", "trimag", *Cli.COMMANDS[name]])):
            t0 = time.perf_counter()
            subprocess.run(argv, cwd=scratch, env=env, capture_output=True,
                           timeout=60, check=True)
            times[key].append(time.perf_counter() - t0)
    med = {key: statistics.median(v) * 1e3 for key, v in times.items()}
    return {"cli.interp_ms": med["interp"],
            "cli.import_numpy_ms": med["numpy"] - med["interp"],
            "cli.import_trimag_ms": med["trimag"] - med["numpy"],
            "cli.compute_ms": med["command"] - med["trimag"]}


def end_to_end(args, scratch: Path) -> tuple[dict, dict, dict]:
    setup = setup_seconds(args.workload, args.seed)
    workload = WORKLOADS[args.workload](ROOT, args.seed, scratch)
    run = measure(workload, args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    n = len(run["durations"])
    adjusted = sum(run["adjusted"])
    metrics = {
        "ops_per_s": n / adjusted,
        "op_p50_ms": statistics.median(run["adjusted"]) * 1e3,
        "points_per_s": run["points"] / adjusted,
        "ok_rate": run["ok"] / n,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    notes = {"raw_ops_per_s": n / run["busy"],
             "raw_op_p50_ms": statistics.median(run["durations"]) * 1e3,
             "op_samples": n}
    return run, metrics, notes


def layered(args, scratch: Path) -> tuple[dict, dict, dict]:
    workload = WORKLOADS[args.workload](ROOT, args.seed, scratch)
    plain = measure(workload, args.seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(workload, args.seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    n = len(traced["durations"])
    metrics = tracer.layer_metrics(n)
    metrics.update(cli_split(scratch))
    metrics["sensing.floor_limit_mhz"] = Sensitivity(
        ROOT, args.seed, scratch).floor_limit()
    untraced_rate = len(plain["durations"]) / sum(plain["adjusted"])
    traced_rate = n / sum(traced["adjusted"])
    metrics["trace.ops_per_s_untraced"] = untraced_rate
    metrics["trace.ops_per_s_traced"] = traced_rate
    metrics["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
    pct, tail_s = tail(plain["adjusted"])
    metrics["op_tail_ms"] = tail_s * 1e3
    metrics["op_tail_percentile"] = pct
    metrics["op_samples"] = float(len(plain["durations"]))
    wrong_or_failed = sum(r[k] for r in (plain, traced) for k in ("failed", "wrong"))
    metrics["error_rate"] = wrong_or_failed / (len(plain["durations"]) + n)
    spans = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans)
    run = {key: plain[key] + traced[key]
           for key in ("durations", "adjusted", "ok", "failed", "wrong")}
    return run, metrics, {"spans": str(spans.relative_to(ROOT)),
                          "traced_ops": n}


def machine() -> dict:
    record = {"nproc": os.cpu_count(), "cpu_model": platform.processor() or "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            record[f"L{level}_per_cpu0"] = size
    return record


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def record(args, metrics, notes, run) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "machine": machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "attempted": len(run["durations"]), "failed": run["failed"],
        "wrong": run["wrong"], "notes": notes, "metrics": metrics,
        "op_durations_s": run["durations"],
        "op_adjusted_s": run["adjusted"],
    }


def result_line(run: dict, metrics: dict, wanted: list[dict]) -> dict:
    """The JSON object of the last stdout line: wrong ops count as failed."""
    return {
        "correct": run["wrong"] == 0,
        "attempted": len(run["durations"]),
        "failed": run["failed"] + run["wrong"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("BENCHMARK.json", "src/trimag/__init__.py",
                           "tests/golden") if not (ROOT / p).exists()]
    if missing:
        print(f"benchmark: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        if args.setup_only:
            WORKLOADS[args.workload](ROOT, args.seed, scratch)
            print("ready", flush=True)
            return 0
        run, metrics, notes = (layered if args.trace else end_to_end)(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = result_line(run, metrics, wanted)
    path = RUNS / (f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
                   f"-{os.getpid()}.json")
    path.write_text(json.dumps(record(args, metrics, notes, run), indent=1))
    summary = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in notes.items())
    print(f"{args.workload} seed={args.seed}: {summary} "
          f"record={path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
