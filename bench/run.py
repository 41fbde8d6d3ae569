"""Seed-pinned benchmark for oddwalk.

Run from the root of a checkout:

    python3 bench/run.py --workload homotopy --seed 1 --seconds 30 --trace 0

Workloads are `sample-girth`, `color-pipeline` and `homotopy`; workloads.py
says what each one stresses and why.  One caller issues items back to
back (a closed loop).  Job j of a run gets fresh inputs made from
(seed, j), and every execution of a job runs in a new Python process
(this script with the hidden `--job` option), so no cache carries over
from one job to the next.  The run waits for each such process to end
and kills it if the run itself is stopped, so none outlives the run.

`--trace 0` runs as many jobs as fit in `--seconds`, each a few times
(workloads.REPEATS), checks every output and prints the end-to-end
metrics:

  wall_s       time of one job, best of its executions, median over jobs
  item_p50_s   a job's median item latency (best of its executions),
               median over jobs
  item_max_s   a job's slowest item latency, median over jobs
  cpu_s        process CPU time of one job (BLAS threads included), best
               of its executions, median over jobs
  peak_rss_mb  peak resident set of the process that ran a job, taken
               before the checks, median over jobs
  setup_s      import plus input generation, median over executions

An item is one sample job, one fold, one pipeline instance, one homotopy
query or one simple-connectivity check.  failed / attempted is the
failed fraction; an item fails on any exception, a failed check or an
output-digest mismatch.

`--trace 1` runs job 0 three times, each in a new process: once untraced
and twice under the span recorder of tracing.py, and prints the
per-layer metrics of tracing.PER_LAYER.  It fails if the two traced
executions disagree on any count or output digest.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
environment record.  The full record (every execution, digests, and for
traced runs every span) goes to bench/out/.  Job 0's output digest must
match bench/reference.json when that file lists the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
NPROC = len(os.sched_getaffinity(0))

# BLAS threads stay at most nproc; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))
if SRC not in sys.path:
    sys.path.insert(0, SRC)

END_TO_END = [
    ("wall_s", "s"),
    ("item_p50_s", "s"),
    ("item_max_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
JOB = "job"  # marks a failure of a whole job, e.g. a digest mismatch


def _import_program() -> float:
    """Import numpy, oddwalk and the benchmark modules; returns seconds."""
    if not os.path.isfile(os.path.join(SRC, "oddwalk", "__init__.py")):
        raise SystemExit(f"oddwalk sources not found under {SRC}")
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import oddwalk

    import tracing  # noqa: F401
    import workloads  # noqa: F401

    seconds = time.perf_counter() - t0
    if not os.path.abspath(oddwalk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"oddwalk was imported from {oddwalk.__file__}, not from {SRC}")
    return seconds


def _check_declared(section: str, names: list[str]):
    """The metrics this script emits must be the ones BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)[section]]
    if declared != names:
        raise SystemExit(f"BENCHMARK.json {section} {declared} != emitted {names}")


def _reference_digest(workload: str, seed: int):
    path = os.path.join(BENCH, "reference.json")
    with open(path) as fh:
        return json.load(fh)["job0_digests"][workload].get(str(seed))


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    with open(os.path.join(BENCH, "reference.json")) as fh:
        held_out = json.load(fh)["held_out_seed"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "commit": commit,
        "source_sha256": _source_digest(),
        "seed": seed,
        "held_out_seed": held_out,
    }


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    package = os.path.join(SRC, "oddwalk")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def one_job(workload: str, seed: int, job: int, traced: bool) -> dict:
    """One job in this fresh process: import, build inputs, run, check."""
    import_s = _import_program()
    import tracing
    import workloads

    t0 = time.perf_counter()
    items = workloads.WORKLOADS[workload](seed, job)
    inputs_s = time.perf_counter() - t0
    recorder = tracing.Recorder() if traced else None
    result = workloads.run_job(items, recorder)
    result.update(import_s=import_s, inputs_s=inputs_s)
    if recorder is not None:
        result["layers"] = tracing.layer_values(recorder)
        result["unattributed_s"] = result["wall_s"] - tracing.top_level_seconds(recorder.spans)
        result["spans"] = recorder.spans
    return result


def _die_with_parent():
    """Have the kernel kill this process if the run that started it ends."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def run_fresh(workload: str, seed: int, job: int, traced: bool) -> dict:
    """One execution of a job in a new Python process; waits for it to end."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--trace", str(int(traced)),
               "--job", str(job)]
    with subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True) as child:
        try:
            out, _ = child.communicate()
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if child.returncode != 0:
        raise SystemExit(f"job {job} exited with code {child.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float):
    """Untraced run: J jobs, each executed a few times in fresh processes.

    J is chosen from the first execution's time so that the run takes about
    `seconds`.  Executions go round by round (every job once, then again),
    so the repeats of one job are spread over the run, and a job's times
    are the best of its repeats.  On a machine shared with other work, a
    slowdown only ever adds time; the best of a few repeats in fresh
    processes (so no cache carries over) is much steadier than one sample.
    """
    import workloads

    repeats = workloads.REPEATS[workload]
    start = time.perf_counter()
    by_job = [[run_fresh(workload, seed, 0, False)]]
    first_s = time.perf_counter() - start
    by_job += [[] for _ in range(max(1, round(seconds / (repeats * first_s))) - 1)]
    for repeat in range(repeats):
        for job, executions in enumerate(by_job):
            if repeat or job:
                executions.append(run_fresh(workload, seed, job, False))
    best = [_best_of(executions) for executions in by_job]
    metrics = {
        "wall_s": statistics.median(job["wall_s"] for job in best),
        "item_p50_s": statistics.median(statistics.median(job["items"]) for job in best),
        "item_max_s": statistics.median(max(job["items"]) for job in best),
        "cpu_s": statistics.median(job["cpu_s"] for job in best),
        "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in best),
        "setup_s": statistics.median(
            e["import_s"] + e["inputs_s"] for executions in by_job for e in executions),
    }
    reference = _reference_digest(workload, seed)
    for job, executions in enumerate(by_job):
        problems = []
        if len({e["digest"] for e in executions}) != 1:
            problems.append("repeats disagree on the output digest")
        elif job == 0 and reference not in (None, executions[0]["digest"]):
            problems.append("output digest differs from reference")
        for e in executions:
            e["failures"].extend({"item": JOB, "error": p} for p in problems)
    flat = [e for executions in by_job for e in executions]
    return metrics, flat, {"jobs": by_job, "best": best, "reference_digest": reference}


def _best_of(executions: list[dict]) -> dict:
    """Per job: the least time of each item and of the job over its repeats."""
    latencies = [[it["seconds"] for it in e["items"]] for e in executions]
    return {
        "wall_s": min(e["wall_s"] for e in executions),
        "cpu_s": min(e["cpu_s"] for e in executions),
        "peak_rss_mb": min(e["peak_rss_mb"] for e in executions),
        "items": [min(times) for times in zip(*latencies)],
    }


def trace(workload: str, seed: int):
    """Traced run: job 0 once untraced and twice traced, each in a new process."""
    import tracing

    plain = run_fresh(workload, seed, 0, False)
    first = run_fresh(workload, seed, 0, True)
    second = run_fresh(workload, seed, 0, True)
    passes = [plain, first, second]
    reference = _reference_digest(workload, seed)
    problems = []
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append("passes disagree on the output digest")
    elif reference is not None and digests != {reference}:
        problems.append("output digest differs from reference")
    metrics = {}
    for name, unit, _, source, _ in tracing.PER_LAYER:
        if source == "unattributed":
            value = (first["unattributed_s"] + second["unattributed_s"]) / 2.0
        elif source == "overhead":
            value = (first["wall_s"] + second["wall_s"]) / 2.0 - plain["wall_s"]
        elif unit == "s":
            value = (first["layers"][name] + second["layers"][name]) / 2.0
        else:
            value = first["layers"][name]
            if value != second["layers"][name]:
                problems.append(f"traced passes disagree on {name}")
        metrics[name] = (value, unit)
    for problem in problems:
        for p in passes:
            p["failures"].append({"item": JOB, "error": problem})
    return metrics, passes, {"passes": passes, "reference_digest": reference}


def _failed_items(job: dict) -> int:
    """Failed items of one job; a failure of the job as a whole fails all."""
    ids = {f["item"] for f in job["failures"]}
    return len(job["items"]) if JOB in ids else len(ids)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["sample-girth", "color-pipeline", "homotopy"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--job", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.job is not None:
        # one execution of one job, started by run_fresh
        _die_with_parent()
        print(json.dumps(one_job(args.workload, args.seed, args.job, bool(args.trace))))
        return 0
    # a stopped run still kills and waits for the job it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    _import_program()
    import tracing

    if args.trace:
        _check_declared("per_layer", [m[0] for m in tracing.PER_LAYER])
        metrics, jobs, record = trace(args.workload, args.seed)
    else:
        _check_declared("end_to_end", [name for name, _ in END_TO_END])
        values, jobs, record = measure(args.workload, args.seed, args.seconds)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    env = environment(args.seed)
    failures = [f for job in jobs for f in job["failures"]]
    result = {
        "correct": not failures,
        "attempted": sum(len(job["items"]) for job in jobs),
        "failed": sum(_failed_items(job) for job in jobs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"env": env, "result": result, "failures": failures, **record}, fh)
    for failure in failures:
        print(f"FAILED {failure['item']}: {failure['error']}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
