"""Benchmark of the bihankel command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout of the repository; it finds the
package in `src/` next to this directory and fails (exit 2, no result)
when that is missing.  The workloads and their metrics are listed in
`BENCHMARK.json`; `perfbench/workloads.py` builds each workload's CLI
invocations from the seed and checks their output.

`--trace 0` is a closed loop of one client: it runs the workload's
invocations one after another, each in a fresh interpreter, so at most two
processes (this one and one child) exist at a time.  A warm-up pass runs
first and fixes the reference output; then timed passes repeat until
`--seconds` have elapsed.  CPU time and peak RSS come from `os.wait4` on
each child, never from `RUSAGE_CHILDREN`, whose peak RSS is a running
maximum over every child ever reaped.  Set-up time is the wall time of a
fresh interpreter importing `bihankel.cli` and building the parser,
measured once before every pass.

`--trace 1` runs the same invocations in this process through
`bihankel.cli.main`, alternating untraced passes with passes traced by
`perfbench/tracer.py`; the per-layer metrics are medians over the traced
passes and `trace.overhead_s` is the traced minus the untraced median.

Every output is checked (see workloads.py), and every pass at one seed must
print byte-identical stdout.  The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  A readable summary goes to
stderr, and the run record (machine, versions, seed, every sample, the
per-entry-point trace table and the spans) to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_CODE = "import bihankel.cli; bihankel.cli.build_parser()"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# per-layer counts that must repeat exactly from pass to pass at one seed
EXACT_COUNTS = ("series.calls", "caratheodory.calls", "functionals.calls", "bounds.calls",
                "optimizer.grid.calls", "optimizer.grid.evaluations",
                "optimizer.h22_batch.samples", "optimizer.empirical.kept_ratio",
                "verification.checks", "caratheodory.samples", "caratheodory.objects")
MAX_PROBLEMS_KEPT = 20


class Failures:
    """Counts attempted and failed invocations and keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < MAX_PROBLEMS_KEPT:
                self.messages.append(f"{what}: " + "; ".join(problems))


def check_output(inv, code: int, out: str) -> tuple[list[str], int]:
    # Any exception here means the output did not have the promised shape:
    # it is a failed invocation, not a crash of the benchmark.
    try:
        return inv.check(code, out)
    except Exception as exc:  # noqa: BLE001 - boundary that must keep running
        return [f"output check raised {type(exc).__name__}: {exc}"], 0


def describe(values: list[float]) -> dict:
    """Median, quartiles and the highest nearest-rank percentile with at
    least ten samples above it (None below twenty samples), with the count."""
    s = sorted(values)
    n = len(s)
    out = {"n": n, "median": statistics.median(s), "min": s[0], "max": s[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(s, n=4)
        out.update(q1=q1, q3=q3)
    out["tail"] = None
    if n >= 20:
        p = math.floor(100 * (n - 10) / n)
        out["tail"] = {"percentile": p, "value": s[math.ceil(p * n / 100) - 1],
                       "beyond": n - math.ceil(p * n / 100)}
    return out


# --- untraced: one fresh interpreter per invocation ----------------------------

class Child(NamedTuple):
    code: int
    out: bytes
    wall: float
    cpu: float
    rss_mb: float
    err: str


def spawn(args: list[str], env: dict) -> Child:
    err_path = OUT / "child.stderr"
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err)
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted: leave no child behind, then re-raise
            proc.kill()
            proc.wait()
            raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, err_path.read_text(errors="replace")[-400:])


def cli_pass(workload, env, failures, reference):
    """One pass over the workload's invocations; returns the pass figures."""
    wall = cpu = rss = 0.0
    units = 0
    outs, walls = [], []
    for i, inv in enumerate(workload.invocations):
        child = spawn(["-m", "bihankel.cli", *inv.argv], env)
        text = child.out.decode("utf-8", errors="replace")
        problems, done = check_output(inv, child.code, text)
        if child.code != 0 and child.err:
            problems.append("stderr: " + child.err.strip().replace("\n", " | "))
        if reference is not None and child.out != reference[i]:
            problems.append("stdout differs from the first pass at the same seed")
        failures.record(" ".join(inv.argv), problems)
        wall += child.wall
        cpu += child.cpu
        rss = max(rss, child.rss_mb)
        units += done
        outs.append(child.out)
        walls.append(child.wall)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "units": units,
            "work_per_s": units / wall if wall > 0 else 0.0,
            "invocation_s": walls, "outs": outs}


def run_untraced(workload, seconds, failures):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Children import from bytecode caches, as an installed package would; the
    # warm-up pass writes them, so set-up time does not depend on the caller.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    reference = cli_pass(workload, env, failures, None)["outs"]

    # Set-up probes are spread over the run, one before each pass, so that
    # they see the same host conditions as the passes they are compared with.
    setup, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        child = spawn(["-c", SETUP_CODE], env)
        failures.record("setup probe", [] if child.code == 0 and not child.out
                        else [f"exited {child.code}: {child.err.strip()}"])
        setup.append(child.wall)
        figures = cli_pass(workload, env, failures, reference)
        del figures["outs"]
        passes.append(figures)
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in ("wall_s", "cpu_s", "work_per_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup)
    samples = {name: [p[name] for p in passes]
               for name in ("wall_s", "cpu_s", "work_per_s", "peak_rss_mb", "units")}
    samples["setup_s"] = setup
    samples["invocation_s"] = [w for p in passes for w in p["invocation_s"]]
    return metrics, samples, {}


# --- traced: in-process passes ---------------------------------------------------

def inproc_pass(workload, cli):
    """One pass through `cli.main` in this process: (wall seconds, outputs)."""
    wall = 0.0
    outs = []
    for inv in workload.invocations:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = cli.main(list(inv.argv))
        except Exception as exc:  # noqa: BLE001 - a crash is a failed invocation
            code = f"raised {type(exc).__name__}: {exc}"
        wall += time.perf_counter() - start
        outs.append((code, buf.getvalue()))
    return wall, outs


def check_inproc(workload, outs, failures, reference):
    for i, (inv, (code, text)) in enumerate(zip(workload.invocations, outs)):
        problems, _ = check_output(inv, code, text)
        if reference is not None and text != reference[i][1]:
            problems.append("stdout differs from the first pass at the same seed")
        failures.record(" ".join(inv.argv), problems)


def run_traced(workload, seconds, failures):
    import bihankel.cli as cli
    from tracer import Tracer, package_modules

    modules = package_modules()
    _, reference = inproc_pass(workload, cli)
    check_inproc(workload, reference, failures, None)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        wall, outs = inproc_pass(workload, cli)
        check_inproc(workload, outs, failures, reference)
        plain.append(wall)
        tracer = Tracer(modules, memory=workload.trace_memory)
        with tracer:
            wall, outs = inproc_pass(workload, cli)
        check_inproc(workload, outs, failures, reference)
        traced.append(wall)
        layers.append(tracer.layer_metrics())

    failures.record("per-layer counts", [
        f"{name} differs between traced passes"
        for name in EXACT_COUNTS if len({pass_layers[name] for pass_layers in layers}) > 1])
    metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced}
    tracer.write_spans(OUT / f"spans-{workload.name}.csv.gz")
    extra = {"per_function": tracer.per_function(), "missing_entry_points": tracer.missing,
             "peak_alloc_traced": workload.trace_memory}
    return metrics, samples, extra


# --- run record ---------------------------------------------------------------------

def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# --- entry point -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bihankel" / "cli.py").is_file():
        print(f"error: no bihankel package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bihankel
    import numpy

    if Path(bihankel.__file__).resolve().parent != SRC / "bihankel":
        print(f"error: imported bihankel from {bihankel.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed)
    failures = Failures()
    runner = run_traced if args.trace else run_untraced
    began = time.time()
    measured, samples, extra = runner(workload, args.seconds, failures)

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: benchmark produced no value for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failures.failed == 0, "attempted": failures.attempted,
              "failed": failures.failed, "metrics": metrics}

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "unit_of_work": workload.unit,
        "invocations": [list(inv.argv) for inv in workload.invocations],
        "started_unix": began, "machine": machine_record(numpy.__version__),
        "result": result, "fail_ratio": failures.failed / failures.attempted,
        "problems": failures.messages,
        "samples": {name: describe(values) | {"values": values}
                    for name, values in samples.items()},
        **extra,
    }
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {workload.name} seed={args.seed} trace={args.trace}: "
          f"{failures.attempted} attempted, {failures.failed} failed, "
          f"fail_ratio {failures.failed / failures.attempted:.6g} ratio", file=sys.stderr)
    for metric_name, metric in metrics.items():
        print(f"  {metric_name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    for sample_name, info in record["samples"].items():
        tail = info["tail"]
        tail_text = (f", p{tail['percentile']} {tail['value']:.6g}" if tail
                     else ", no percentile with 10 samples beyond it")
        print(f"  [{sample_name}] median {info['median']:.6g}{tail_text} (n={info['n']})",
              file=sys.stderr)
    for message in failures.messages:
        print(f"  FAILED {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
