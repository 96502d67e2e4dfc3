"""qwitness benchmark: closed-loop workloads through the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

One client in one process sends the next task only after the previous one
completes.  CLI tasks call ``qwitness.cli.main(argv)`` with stdout captured;
library tasks call functions exported from ``qwitness``.  Every output is
checked.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` prints its per-layer metrics from a separate traced run.  The
last stdout line is one JSON object; each run also saves its full result,
with the machine block, under perfbench/results/.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads: on a 2-core shared machine
# the default two threads made task latency both slower and noisier.  The
# enumeration thread count stays at the CLI default (QWITNESS_THREADS unset).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("QWITNESS_THREADS", None)

import argparse  # noqa: E402
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
SPEC_PATH = ROOT / "BENCHMARK.json"

WORKLOADS = ("certify", "bounds", "optimize")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# Nominal seconds per schedule cycle on a busy 2-core machine.  A traced run
# covers a fixed number of whole cycles derived from --seconds, so its
# counts repeat exactly for a seed; the untraced and traced passes over
# that task list take about 80% of --seconds, leaving room for set-up and
# for writing the spans.
TRACE_CYCLE_SECONDS = {"certify": 1.0, "bounds": 0.4, "optimize": 2.8}
MAX_FAILURES_SHOWN = 20


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad spec, set-up failure)."""


def import_program():
    """Import qwitness from this checkout's source tree, never from elsewhere."""
    if not (SRC / "qwitness" / "__init__.py").is_file():
        raise BenchError(f"no qwitness sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qwitness.cli

    origin = Path(qwitness.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"qwitness was imported from {origin}, not from {SRC}")


def load_spec() -> dict:
    try:
        with open(SPEC_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {SPEC_PATH.name}: {exc}")


# ---------------------------------------------------------------- set-up


def attempt(task):
    """Run one task; returns (ok, optimum hit or None, error message)."""
    from workloads import CheckFailed, run_task

    try:
        return True, run_task(task), None
    except CheckFailed as exc:
        return False, None, str(exc)
    except SystemExit as exc:  # argparse rejects argv by exiting
        return False, None, f"SystemExit {exc.code}"
    except Exception as exc:  # a crashing task is a failed task; the loop goes on
        return False, None, f"{type(exc).__name__}: {exc}"


def set_up(workload: str, seed: int):
    """Import the program, generate every input and warm up.

    Returns (schedule, work directory, warm-up failures).  The caller removes
    the work directory.
    """
    import_program()
    from workloads import build_schedule

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{workload}-", dir=RESULTS_DIR)
    try:
        schedule = build_schedule(workload, seed, workdir)
        failures = []
        for task in schedule.warmup:
            ok, _, error = attempt(task)
            if not ok:
                failures.append((f"warmup:{task.name}", error))
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return schedule, workdir, failures


def setup_probe(workload: str, seed: int) -> int:
    """Child side of the set-up measurement: set up, announce, clean up."""
    _, workdir, _ = set_up(workload, seed)
    print("ready", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from interpreter launch to a warmed-up program, per repeat."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------- runs


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    """Untraced closed loop for ``seconds``; end-to-end metrics."""
    setup_samples = measure_setup(workload, seed)
    schedule, workdir, warmup_failures = set_up(workload, seed)
    failures, latencies, hits, by_kind = [], [], [], {}
    try:
        start = time.perf_counter()
        i = 0
        while True:
            task = schedule.task(i)
            t0 = time.perf_counter()
            ok, hit, error = attempt(task)
            t1 = time.perf_counter()
            latencies.append((t1 - t0) * 1000.0)
            by_kind.setdefault(task.name, []).append(latencies[-1])
            if not ok:
                failures.append((f"{task.name}#{i}", error))
            if hit is not None:
                hits.append(hit)
            i += 1
            if t1 - start >= seconds and i >= 2:
                break
        window = t1 - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    p90 = deciles[8]
    attempted = len(latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "task_ms_p50": statistics.median(latencies),
        "task_ms_p90": p90,
        "tasks_per_s": attempted / window,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": len(failures) / attempted,
    }
    if hits:
        metrics["opt_hit_ratio"] = sum(hits) / len(hits)
    details = {
        "samples": attempted,
        "samples_beyond_p90": sum(1 for x in latencies if x > p90),
        "cycles": attempted / schedule.cycle_len,
        "window_s": window,
        "setup_samples_s": setup_samples,
        "kind_median_ms": {k: round(statistics.median(v), 3) for k, v in by_kind.items()},
    }
    return {"attempted": attempted, "failures": failures, "warmup_failures": warmup_failures,
            "metrics": metrics, "details": details}


def trace_cycles(workload: str, seconds: float) -> int:
    return max(1, int(0.8 * seconds / (2 * TRACE_CYCLE_SECONDS[workload])))


def traced_run(workload: str, seed: int, seconds: float, spans_path: Path) -> dict:
    """Untraced and traced passes over one fixed task list; per-layer metrics."""
    schedule, workdir, warmup_failures = set_up(workload, seed)
    from spans import TASK_SPAN, Tracer

    failures = []
    cycles = trace_cycles(workload, seconds)
    n_tasks = cycles * schedule.cycle_len
    tracer = Tracer()
    passes = {False: 0.0, True: 0.0}

    def run_pass(cycle: int, traced: bool) -> None:
        first = cycle * schedule.cycle_len
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        for i in range(first, first + schedule.cycle_len):
            task = schedule.task(i)
            if traced:
                tracer.current_task = i
                with tracer.span(TASK_SPAN):
                    ok, _, error = attempt(task)
            else:
                ok, _, error = attempt(task)
            if not ok:
                failures.append((f"{'traced:' if traced else ''}{task.name}#{i}", error))
        passes[traced] += time.perf_counter() - t0
        if traced:
            tracer.uninstall()

    # Each cycle runs untraced and traced back to back, alternating which goes
    # first, so both passes see the same machine conditions.
    try:
        for cycle in range(cycles):
            order = (False, True) if cycle % 2 == 0 else (True, False)
            for traced in order:
                run_pass(cycle, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = tracer.layer_metrics(n_tasks)
    metrics["trace.overhead_ratio"] = passes[False] / passes[True]
    tracer.write(str(spans_path))
    details = {"tasks_per_pass": n_tasks, "untraced_s": passes[False], "traced_s": passes[True],
               "spans": len(tracer.start), "spans_file": spans_path.name}
    return {"attempted": 2 * n_tasks, "failures": failures, "warmup_failures": warmup_failures,
            "metrics": metrics, "details": details}


# ---------------------------------------------------------------- report


def _git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_block(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_desc = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_desc,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "qwitness_threads": os.environ.get("QWITNESS_THREADS", "unset (auto)"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _units(spec: dict) -> dict[str, str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"failed_ratio": "ratio", "opt_hit_ratio": "ratio"})
    return units


def report(args, spec: dict, run: dict) -> None:
    """Print the human summary, save the full record, print the final JSON line."""
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = _units(spec)
    missing = [m["name"] for m in listed if m["name"] not in run["metrics"]]
    if missing:
        raise BenchError(f"metrics named in {SPEC_PATH.name} were not measured: {missing}")

    attempted = run["attempted"]
    failed = len(run["failures"])
    failures = run["warmup_failures"] + run["failures"]
    correct = not failures and attempted >= 1
    for name, error in failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {name}: {error}")
    if len(failures) > MAX_FAILURES_SHOWN:
        print(f"... {len(failures) - MAX_FAILURES_SHOWN} more failed tasks")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} attempted={attempted} failed={failed}")
    for name, value in run["metrics"].items():
        print(f"  {name:<26} {value:>14.6g} {units.get(name, '')}")
    for name, value in run["details"].items():
        print(f"  ({name} = {value})")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": [list(f) for f in failures],
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in run["metrics"].items()},
        "details": run["details"],
        "machine": machine_block(args.seed),
    }
    print(json.dumps({"machine": record["machine"]}, sort_keys=True))
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    final = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(final))


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                   help="compare two directories of saved results")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            from compare import compare

            return compare(Path(args.compare[0]), Path(args.compare[1]), spec)
        if args.workload is None:
            raise BenchError("--workload is required")
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        import_program()
        if args.trace:
            spans_path = RESULTS_DIR / (
                f"spans-{args.workload}-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}"
                f"-{os.getpid()}.tsv.gz"
            )
            run = traced_run(args.workload, args.seed, args.seconds, spans_path)
        else:
            run = timed_run(args.workload, args.seed, args.seconds)
        report(args, spec, run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
