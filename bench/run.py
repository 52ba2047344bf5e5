"""Benchmark of the `rbraid` command line, one workload per process.

    python3 bench/run.py --workload solve-verify --seed 1 --seconds 20 --trace 0

The run generates the workload's inputs from the seed, then calls
`rbraid.cli.main` in-process once per job: a closed loop with one
client.  One untimed warm-up pass comes first; its reports are the
reference that every later pass must reproduce byte for byte (apart
from `timing_ms`).  The timed passes then fill about `--seconds`.
The machine is a share of a busy host whose speed drifts from second to
second, for every program alike, so each pass's times are scaled to a
reference speed: that of a fixed pure-Python kernel, timed between the
jobs of the same pass (see `SpeedProbe`).  Each job's time is then its
median over the passes.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` the timed passes run under the
outside-in tracer and the object holds the per-layer metrics.  The
program under test is imported from `src/` of the checkout that holds
this file; without it the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
SETUP_LAUNCHES = 20

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# A report is canonical JSON with sorted keys, so `timing_ms` is the last
# top-level key; everything before it must repeat byte for byte.
TIMING = re.compile(r',"timing_ms":\d+}\n\Z')


def strip_timing(text: str) -> str | None:
    stripped, n = TIMING.subn("}\n", text)
    return stripped if n == 1 else None


def single_json_object(text: str):
    """The one JSON object that makes up `text`, or None."""
    try:
        obj, end = json.JSONDecoder().raw_decode(text)
    except ValueError:
        return None
    if not isinstance(obj, dict) or text[end:] != "\n":
        return None
    return obj


@dataclass
class Outcome:
    job: workloads.Job
    seconds: float
    failure: str | None


@dataclass
class PassResult:
    outcomes: list[Outcome] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)  # see SpeedProbe

    @property
    def scale(self) -> float:
        """The factor that turns this pass's times into reference-speed times."""
        return REFERENCE_KERNEL_S / statistics.median(self.kernel_s)

    @property
    def busy(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def jobs_per_s(self) -> float:
        return len(self.outcomes) / self.busy


class Harness:
    """Runs jobs through `cli.main` and checks every report."""

    def __init__(self, cli, workload: workloads.Workload, work: Path,
                 digests: dict[str, str] | None):
        self.cli = cli
        self.workload = workload
        self.work = work
        self.digests = digests
        self.reference: dict[str, str] = {}
        self.failures: list[str] = []
        self.tracer: Tracer | None = None

    def call(self, argv: list[str]) -> tuple[int | None, str, float, BaseException | None]:
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except (Exception, SystemExit) as e:  # a crash is a failed job, not the end
                exc = e
            seconds = time.perf_counter() - start
        return rc, out.getvalue(), seconds, exc

    def run_job(self, job: workloads.Job) -> Outcome:
        files = self.workload.files
        argv = [str(self.work / a) if a in files or a == job.consumes else a
                for a in job.argv]
        gc.collect()
        if self.tracer is not None:
            self.tracer.job = job.id
        rc, text, seconds, exc = self.call(argv)
        failure = self.check(job, rc, text, exc)
        if failure:
            self.failures.append(f"{job.id}: {failure}")
        return Outcome(job, seconds, failure)

    def check(self, job, rc, text, exc) -> str | None:
        if exc is not None:
            return f"main raised {type(exc).__name__}: {exc}"
        if rc != job.expect_rc:
            return f"exit code {rc}, expected {job.expect_rc}"
        report = single_json_object(text)
        if report is None:
            return "stdout is not exactly one JSON object"
        if report.get("status") != job.expect_status:
            return f"status {report.get('status')!r}, expected {job.expect_status!r}"
        if job.expect_status == "error":
            return None  # error messages may be reworded; only the outcome is checked
        for key, want in job.expect_payload.items():
            if report.get("payload", {}).get(key) != want:
                return f"payload {key} is not {want!r}"
        stable = strip_timing(text)
        if stable is None:
            return "report has no trailing timing_ms"
        first = self.reference.setdefault(job.id, stable)
        if stable != first:
            return "report differs from the first pass"
        if self.digests is not None:
            digest = hashlib.sha256(stable.encode()).hexdigest()
            if self.digests.get(job.id) != digest:
                return "report differs from the recorded digest"
        if job.produces:
            (self.work / job.produces).write_text(stable)
        return None

    def run_pass(self, jobs, between=None) -> PassResult:
        result = PassResult()
        for job in jobs:
            result.outcomes.append(self.run_job(job))
            if between is not None:
                between(result)
        return result


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest integer percentile with at least ten samples beyond it
    (nearest rank); the maximum when not even p90 has ten beyond it."""
    s = sorted(values)
    n = len(s)
    for p in range(99, 89, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, s[rank - 1]
    return 100, s[-1]


# Median time of `reference_kernel` on the machine the baseline was taken
# on (2 vCPUs, Python 3.11.7) in a quiet spell: the speed that reported
# times are scaled to.
REFERENCE_KERNEL_S = 0.0006


def reference_kernel() -> Fraction:
    """Exact rational arithmetic of the kind the program does, ~0.5 ms."""
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i, i + 7) * Fraction(3, i)
    return s


class SpeedProbe:
    """Times `reference_kernel` between jobs, a few times a second.

    The samples go into the pass under way.  The ratio of
    `REFERENCE_KERNEL_S` to their median is the pass's `scale`: its times
    multiplied by it read as on the reference machine, so a slower spell
    of the host, which slows the kernel and the program alike, leaves the
    metrics where they are.  The spells last from seconds to minutes, so
    each pass is scaled by what the kernel saw during that pass, not by
    one figure for the run.  The kernel does not call the program, so a
    change to the program moves the scaled times exactly as it moves the
    raw ones.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self.last = -math.inf

    def maybe(self, samples: list[float]) -> None:
        """Sample after the first job of a pass, then every `INTERVAL_S`."""
        if not samples or time.perf_counter() - self.last >= self.INTERVAL_S:
            for _ in range(2):
                start = time.perf_counter()
                reference_kernel()
                samples.append(time.perf_counter() - start)
            self.last = time.perf_counter()


class SetupSampler:
    """Times fresh interpreters from launch until `import rbraid.cli` is done.

    The launches are spread over the timed passes (`maybe` runs between
    jobs, outside their timing) so that their median sees the same
    machine as the jobs do rather than one moment of it.
    """

    def __init__(self, launches: int, seconds: float):
        self.launches = launches
        self.interval = seconds / launches
        self.samples: list[float] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.launch()  # the first launch also writes the bytecode caches
        self.samples.clear()
        self.last = time.perf_counter()

    def launch(self) -> None:
        code = "import rbraid.cli, time; print(time.perf_counter())"
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        self.samples.append(float(done.stdout) - start)

    def maybe(self) -> None:
        if (len(self.samples) < self.launches
                and time.perf_counter() - self.last >= self.interval):
            self.launch()
            self.last = time.perf_counter()

    def median(self) -> float:
        while len(self.samples) < self.launches:
            self.launch()
        return statistics.median(self.samples)


def machine() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = got.stdout.strip() or sha
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "git_sha": sha}


def import_cli():
    sys.path.insert(0, str(SRC))
    import rbraid.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "rbraid":
        raise SystemExit(f"rbraid was imported from {cli.__file__}, not from {SRC}")
    return cli


def metric(value, unit):
    return {"value": value, "unit": unit}


def job_seconds(passes: list[PassResult], scaled: bool = False) -> dict[str, float]:
    """Each job's median time over the passes; with `scaled`, each time is
    first multiplied by its pass's scale."""
    times: dict[str, list[float]] = {}
    for p in passes:
        factor = p.scale if scaled else 1.0
        for o in p.outcomes:
            times.setdefault(o.job.id, []).append(o.seconds * factor)
    return {jid: statistics.median(ts) for jid, ts in times.items()}


def end_to_end(passes: list[PassResult], setup_s: float) -> tuple[dict, list[str]]:
    """The metrics from each job's median time, scaled; the unscaled
    values go into the notes.  `setup_s` is not scaled: an interpreter
    launch also waits on the operating system, and a slow spell of the
    host stretches it by about half as much as it stretches the kernel."""
    run_scale = statistics.median(p.scale for p in passes)
    values = {}
    for scaled in (True, False):
        seconds = job_seconds(passes, scaled)
        latencies = [t * 1000 for t in seconds.values()]
        pct, tail = tail_percentile(latencies)
        values[scaled] = {
            "jobs_per_s": (len(seconds) / sum(seconds.values()), "1/s"),
            "job_p50_ms": (statistics.median(latencies), "ms"),
            "job_tail_ms": (tail, "ms"),
        }
    metrics = {name: metric(value, unit) for name, (value, unit) in values[True].items()}
    metrics["setup_s"] = metric(setup_s, "s")
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = [f"each job's time is its median over {len(passes)} timed passes",
             f"job_p50_ms over n={len(latencies)} jobs",
             f"job_tail_ms is p{pct} of the n={len(latencies)} jobs",
             f"times scaled by {run_scale:.4f} (median over the passes) to the reference "
             "speed; unscaled: " + ", ".join(f"{name} {value:.6g} {unit}"
                                            for name, (value, unit) in values[False].items())]
    return metrics, notes


def timed_passes(harness: Harness, seconds: float, between) -> list[PassResult]:
    """Passes until the next would end past `seconds`; at least three, so
    that every job has a median of several."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(harness.run_pass(harness.workload.jobs, between))
        elapsed = time.perf_counter() - start
        if len(passes) >= 3 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="record the report digests of the default seed and exit")
    args = ap.parse_args(argv)
    if args.write_digests and args.seed != workloads.DEFAULT_SEED:
        ap.error(f"digests are recorded for the default seed {workloads.DEFAULT_SEED} only")

    if not (SRC / "rbraid" / "cli.py").is_file():
        print(f"error: no program under test at {SRC}", file=sys.stderr)
        return 2
    setup = None if args.trace else SetupSampler(SETUP_LAUNCHES, args.seconds)
    cli = import_cli()

    workload = workloads.make(args.workload, args.seed)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload.write_inputs(work)
    digests = None
    if args.seed == workloads.DEFAULT_SEED and not args.write_digests and DIGESTS.exists():
        digests = json.loads(DIGESTS.read_text())[args.workload]
    harness = Harness(cli, workload, work, digests)

    # warm-up: producers before the jobs that read their reports
    warm = harness.run_pass(sorted(workload.jobs, key=lambda j: j.consumes is not None))
    if args.write_digests:
        return write_digests(args.workload, harness)
    if args.trace:
        # untraced and traced passes alternate, so both see the same machine
        n_pairs = max(1, round(args.seconds / (2 * warm.busy)))
        passes, traced, tracer, layers = traced_passes(harness, work, n_pairs)
    else:
        probe = SpeedProbe()

        def between(result: PassResult):
            probe.maybe(result.kernel_s)
            setup.maybe()

        passes = timed_passes(harness, args.seconds, between)
        traced = []

    everything = [warm, *passes, *traced]
    attempted = sum(len(p.outcomes) for p in everything)
    failed = sum(o.failure is not None for p in everything for o in p.outcomes)
    for line in harness.failures:
        print(f"FAILED {line}")
    info = machine()
    print(f"# workload {args.workload} seed {args.seed} "
          f"nproc {info['nproc']} python {info['python']} git {info['git_sha']}")
    print(f"# busy seconds: warm-up {warm.busy:.3f}, timed "
          + " ".join(f"{p.busy:.3f}" for p in passes)
          + (", traced " + " ".join(f"{p.busy:.3f}" for p in traced) if traced else ""))
    print(f"failed_share {failed / attempted:.4f} ratio ({failed} of {attempted} jobs)")

    if args.trace:
        metrics = {name: metric(statistics.median(m[name] for m in layers), unit_of(name))
                   for name in layers[0]}
        q_id, gf_id = workload.q_gf_pair
        seconds = job_seconds(passes)
        metrics["fields.q_gf_ratio"] = metric(seconds[q_id] / seconds[gf_id], "ratio")
        metrics["trace.overhead_ratio"] = metric(
            statistics.median(p.jobs_per_s for p in traced)
            / statistics.median(p.jobs_per_s for p in passes), "ratio")
        if tracer.absent:
            print(f"# absent wrap targets: {', '.join(tracer.absent)}")
    else:
        metrics, notes = end_to_end(passes, setup.median())
        for note in notes:
            print(f"# {note}")
    seconds = job_seconds(passes)
    for job in sorted(workload.jobs, key=lambda j: j.id) if len(workload.jobs) <= 20 else []:
        print(f"# job {job.id} {seconds[job.id] * 1000:.1f} ms")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def traced_passes(harness: Harness, work: Path, n_pairs: int):
    """Untraced and traced passes in turn; spans go to one file per pass."""
    tracer = harness.tracer = Tracer()
    untraced, traced, layers = [], [], []
    for i in range(n_pairs):
        untraced.append(harness.run_pass(harness.workload.jobs))
        tracer.reset()
        tracer.install()
        try:
            traced.append(harness.run_pass(harness.workload.jobs))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())
        tracer.dump(work / f"spans-{i + 1}.jsonl")
    return untraced, traced, tracer, layers


def write_digests(name: str, harness: Harness) -> int:
    if harness.failures:
        print("\n".join(harness.failures), file=sys.stderr)
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[name] = {jid: hashlib.sha256(text.encode()).hexdigest()
                   for jid, text in sorted(harness.reference.items())}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
