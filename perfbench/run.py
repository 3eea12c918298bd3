"""graphbao benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload check-P3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

graphbao is a batch verifier: a user starts a job and waits for its verdict.
A job here is a set-up (what a CLI invocation builds before its first check)
followed by a run phase (the checks, the game or the chain), both driven
through the public functions the CLI calls; a workload whose set-up is short
times it several times per job.  Each job runs in a fresh interpreter, as a
CLI invocation does, so nothing one job builds or caches is there for the
next.  Jobs repeat back to back, one at a time, until ``--seconds`` have passed
and at least two jobs are done; every job of a run uses the run's seed, so
their outputs must be byte-identical.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, medians over
the run's jobs: ``setup_s`` over every timed set-up, ``run_s``, ``job_s`` (the
job's first set-up plus its run: what one CLI invocation waits for, without
interpreter start-up) and ``peak_rss_mb`` (each job's peak resident memory).
Times are CPU seconds of the job's process and of any child it waits for.
graphbao is single-threaded, so on an idle core that is the time the user
waits; on a shared machine wall-clock time also counts the time the process
waited for a core, which other tenants decide.  ``--trace 1`` first runs
the tracer's self-check on K1, then two untraced jobs interleaved with two
traced jobs in one interpreter, and reports the per-layer metrics; counts must
repeat exactly between the two traced jobs, and the spans are written to
``perfbench/out/``.  ``--workload all`` runs every workload in a fresh child
interpreter, one after another.

Every output is checked; the last line of standard output is a JSON object
with ``correct``, ``attempted`` (outputs checked), ``failed`` and ``metrics``.
The exit code is 0 when every check passed, 1 when one failed, and 2 when the
benchmark cannot run, for instance without graphbao's sources under ``src/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
MIN_JOBS = 2
CHILD_TIMEOUT_S = 900


@dataclass
class Job:
    setup_s: list[float] = field(default_factory=list)
    run_s: float | None = None
    checks: list[tuple[str, bool]] = field(default_factory=list)
    digest: str | None = None  # sha256 of the verified output, timing stripped
    peak_rss_mb: float = 0.0

    @property
    def job_s(self) -> float:
        return self.setup_s[0] + self.run_s

    @property
    def completed(self) -> bool:
        return self.digest is not None


def cpu_s() -> float:
    """CPU seconds used by this process and by every child it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_job(workload, seed: int, tracer=None, job_id: int = 0) -> Job:
    """Set up as often as the workload asks (once under the tracer, so counts
    are per job), run once on the last set-up, and verify the output untimed."""
    job = Job()
    gc.collect()
    span = tracer.span if tracer else lambda name: nullcontext()
    setups, batch = (1, 1) if tracer else (workload.setup_repeats, workload.setup_batch)
    try:
        if tracer:
            tracer.start_job(job_id)
            tracer.install()
        try:
            with span("job"):
                for _ in range(setups):
                    state = None  # free the last build before timing the next
                    with span("job.setup"):
                        start = cpu_s()
                        for _ in range(batch):
                            state = workload.setup(seed)
                        job.setup_s.append((cpu_s() - start) / batch)
                with span("job.run"):
                    start = cpu_s()
                    output = workload.run(state, seed)
                    job.run_s = cpu_s() - start
        finally:
            if tracer:
                tracer.uninstall()
        job.checks, payload = workload.verify(state, output)
        job.digest = hashlib.sha256(payload.encode()).hexdigest()
    except Exception:  # a crash is a wrong answer: record it and stop the run
        traceback.print_exc()
        job.checks.append((f"{workload.name}: job raised", False))
    return job


def spawn_job(workload: str, seed: int, seconds: int) -> Job:
    """One untraced job in a fresh interpreter (``run.py --job``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--job"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return Job(checks=[(f"{workload}: job exited with code {proc.returncode}", False)])
    job = Job(**json.loads(lines[-1]))
    job.checks = [tuple(check) for check in job.checks]
    return job


def identical_outputs(jobs: list[Job]) -> list[tuple[str, bool]]:
    return [(f"job {k} output byte-identical to job 0", job.digest == jobs[0].digest)
            for k, job in enumerate(jobs[1:], start=1)]


def tail(values: list[float], unit: str) -> str:
    """Median, and the highest percentile that has at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g} {unit}"
    if n > 10:
        rank = n - 10
        text += f", p{100 * rank / n:.1f} {ordered[rank - 1]:.6g} {unit}"
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + f" (n={n})"


def measure(name: str, seed: int, seconds: int):
    """End-to-end metrics over back-to-back jobs, each in a fresh interpreter."""
    jobs: list[Job] = []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        jobs.append(spawn_job(name, seed, seconds))
        if not jobs[-1].completed:
            break
    done = [j for j in jobs if j.completed]
    samples = {
        "setup_s": ([s for j in done for s in j.setup_s], "s"),
        "run_s": ([j.run_s for j in done], "s"),
        "job_s": ([j.job_s for j in done], "s"),
        "peak_rss_mb": ([j.peak_rss_mb for j in done], "MB"),
    }
    for metric, (values, unit) in samples.items():
        if values:
            print(f"{name} {metric}: {tail(values, unit)}")
    metrics = {metric: statistics.median(v) if v else 0.0 for metric, (v, _u) in samples.items()}
    checks = [c for j in jobs for c in j.checks] + identical_outputs(done)
    return metrics, checks


def self_check(seed: int) -> list[tuple[str, bool]]:
    """Traced K1 job: spans nest, self times are >= 0, every layer is seen,
    originals come back, and an untraced job afterwards records nothing."""
    import tracer as tracer_mod
    from workloads import SELF_CHECK as workload

    tracer = tracer_mod.Tracer()
    traced = run_job(workload, seed, tracer, job_id=1)
    spans = tracer.job_spans(1)
    expected = {name for _owner, _attr, name, _hook in tracer_mod.TRACED}
    missing = expected - {s[3] for s in spans}
    errors = tracer_mod.nesting_errors(spans)
    for problem in sorted(missing) + errors[:5]:
        print(f"self-check: {problem}", file=sys.stderr)
    recorded = len(tracer.spans)
    plain = run_job(workload, seed)
    return traced.checks + [
        ("self-check: every traced entry point recorded a span", not missing),
        ("self-check: spans nest inside their parents", not errors),
        ("self-check: self time is never negative",
         min(tracer_mod.self_times(spans).values()) >= 0),
        ("self-check: every original restored", tracer_mod.Tracer.unwrapped()),
        ("self-check: untraced job records no spans", len(tracer.spans) == recorded),
        ("self-check: tracing leaves outputs unchanged",
         traced.completed and plain.digest == traced.digest),
    ]


def measure_traced(workload, seed: int):
    """Per-layer metrics from two traced jobs, each after an untraced job."""
    import tracer as tracer_mod

    checks = self_check(seed)
    tracer = tracer_mod.Tracer()
    plain, traced = [], []
    for k in (1, 2):
        plain.append(run_job(workload, seed))
        traced.append(run_job(workload, seed, tracer, job_id=k))
    jobs = plain + traced
    checks += [c for j in jobs for c in j.checks] + identical_outputs(jobs)
    per_job = [tracer.metrics(k) for k in (1, 2)]
    checks += [(f"{name} repeats exactly", per_job[0][name] == per_job[1][name])
               for name in tracer_mod.COUNTS]
    metrics = {name: (per_job[0][name] if name in tracer_mod.COUNTS
                      else statistics.median(m[name] for m in per_job))
               for name in per_job[0]}
    metrics["trace.overhead_s"] = (statistics.median(j.job_s for j in traced)
                                   - statistics.median(j.job_s for j in plain))
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    tracer.write(path)
    print(f"{workload.name}: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return metrics, checks


def run_child(workload: str, seed: int, seconds: int, trace: int) -> tuple[str, dict | None]:
    """One workload in a fresh interpreter: its output and its result line,
    or None when it could not run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"{workload}: benchmark exited with code {proc.returncode}", file=sys.stderr)
        return proc.stdout, None
    return proc.stdout, json.loads(lines[-1])


def run_all(args, names: list[str]) -> int:
    """Each workload in a fresh interpreter, so none inherits another's peak."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        output, result = run_child(name, args.seed, args.seconds, args.trace)
        print(output, end="", flush=True)
        if result is None:
            return 2
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def report(name: str, values: dict, checks: list[tuple[str, bool]], wanted: list[dict]) -> int:
    """Print the checks that failed, the metrics, and the result line."""
    if set(values) != {m["name"] for m in wanted}:
        print(f"perfbench: metrics {sorted(set(values) ^ {m['name'] for m in wanted})} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 2
    failed = [check for check, ok in checks if not ok]
    for check in failed:
        print(f"FAILED: {check}")
    print(f"{name}: failed_ratio {len(failed)}/{len(checks)} = "
          f"{len(failed) / len(checks):.6g}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for metric, entry in metrics.items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "graphbao" / "__init__.py").is_file():
        print(f"perfbench: needs BENCHMARK.json and src/graphbao/ under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one untraced job, printed as JSON: how measure() runs each job
    parser.add_argument("--job", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args, names)
    if not args.trace and not args.job:
        values, checks = measure(args.workload, args.seed, args.seconds)
        return report(args.workload, values, checks, spec["end_to_end"])

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # needs graphbao on the path

    workload = WORKLOADS[args.workload]
    if args.job:
        job = run_job(workload, args.seed)
        job.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(dataclasses.asdict(job)))
        return 0
    values, checks = measure_traced(workload, args.seed)
    return report(workload.name, values, checks, spec["per_layer"])


if __name__ == "__main__":
    sys.exit(main())
