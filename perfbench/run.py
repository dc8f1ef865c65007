"""intentnet benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 30 --trace 0

Run from the repository root. With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run plus the tracing overhead. Earlier
lines give the workload's metrics under their own names and the run's
environment. The exit code is 1 when any correctness check failed and 2
when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

# One BLAS thread: the workloads are single-caller and closed-loop, the
# matrices are small, and extra threads only add noise on a shared machine.
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without starting a process; 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


def _as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_end_to_end(cls, seed: int, seconds: float) -> tuple[dict, object, list[str]]:
    from tracing import Tracer
    from workloads import Tally, measure

    tally = Tally()
    workload = cls(seed, OUT)
    with Tracer(Tracer.MARKS, hooks=workload.hooks()) as marks:
        workload.prepare(tally)
        measure(workload, marks, tally, seconds)
        workload.finish()
    lines = [f"{cls.name} {name} {value:.6g} {unit} (n={n})"
             for name, value, unit, n in workload.report()]
    metrics = workload.end_to_end()
    lines.append(f"{cls.name} speed_factor {workload.speed.factor():.6g} "
                 f"(n={len(workload.speed.ticks)})")
    lines.extend(f"{cls.name} raw.{name} {value:.6g} {unit}"
                 for name, (value, unit) in workload.end_to_end(normalize=False).items())
    lines.append(f"{cls.name} setup_s {metrics['setup_s'][0]:.6g} s (n={len(workload.setup_t)})")
    lines.append(f"{cls.name} peak_rss_mb {metrics['peak_rss_mb'][0]:.6g} MB")
    return metrics, tally, lines


def run_traced(cls, seed: int) -> tuple[dict, object, list[str]]:
    """Alternate untraced and traced units over a fixed amount of work.

    The sequence is A B A B ... A: ``cls.trace_units`` traced units (B), each
    between two untraced ones (A), so drift in machine speed over the run
    largely cancels in the overhead. Each traced unit must give the same
    outputs as the untraced unit before it.
    """
    from tracing import LAYERS, Tracer, snapshot, unchanged
    from workloads import Tally, timed_unit

    tally = Tally()
    before = snapshot()

    plain = cls(seed, OUT)
    with Tracer(Tracer.MARKS):
        plain.prepare(tally)
    traced = cls(seed, OUT)
    traced.ref = plain.ref
    tracer = Tracer()
    with tracer:
        traced.setup()

    untraced_s, traced_s = [], []
    for i in range(cls.trace_units + 1):
        with Tracer(Tracer.MARKS) as marks:
            plain_out, took = timed_unit(plain, marks, tally)
        untraced_s.append(took)
        if i == cls.trace_units:
            break
        with tracer:
            traced_out, took = timed_unit(traced, tracer, tally)
        traced_s.append(took)
        tally.record(None if traced_out == plain_out
                     else "trace: traced outputs differ from the untraced run's")
    tally.record(None if unchanged(before) else "trace: a wrapper was left installed")

    untraced = sum(untraced_s) / len(untraced_s)
    per_traced = sum(traced_s) / len(traced_s)
    metrics = tracer.layer_metrics(LAYERS)
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (per_traced, "s")
    metrics["trace.overhead_frac"] = (per_traced / untraced - 1, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    tracer.write_spans(OUT / f"{cls.name}-seed{seed}-spans.tsv")
    lines = [f"{cls.name} {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return metrics, tally, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "intentnet" / "__init__.py").is_file():
        print(f"error: intentnet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)

    if args.trace:
        metrics, tally, lines = run_traced(cls, args.seed)
    else:
        metrics, tally, lines = run_end_to_end(cls, args.seed, args.seconds)
        lines.append(f"{cls.name} failed_ops_frac {tally.failed / tally.attempted:.6g} ratio "
                     f"(n={tally.attempted})")

    correct = tally.failed == 0
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": _as_json(metrics)}
    record = {"workload": cls.name, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "problems": tally.problems, "report": lines, **result}
    (OUT / f"{cls.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("environment " + json.dumps(env))
    for line in lines:
        print(line)
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
