"""End-to-end benchmark of torusfill: time to a verified certificate.

Usage (from the repository root):

    python3 bench/run.py --workload construct --seed 1 --seconds 25 --trace 0

A single-process closed loop with one client: each job is the next one of the
workload's seeded stream (see workloads.py), handed to `torusfill.cli.main`
in-process; the next job starts when the previous one has returned and its
verdict has been checked against the expectation fixed by the generator.
A run does a fixed prefix of the seeded stream: whole blocks of the workload
(workloads.BLOCK), about `--seconds` x JOBS_PER_S jobs, so a parent and a
change run identical jobs.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same jobs
once untraced and once under the layer tracer of tracing.py, prints the
per-layer metrics and writes the spans to bench/out/.  Metric names and units
are those of BENCHMARK.json.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  `correct` is
false when any job returns another verdict than expected, raises, or exits 2,
except the known defect its expectation names (`defect_exit`), which counts
as failed.

Host speed on a shared machine drifts by 10-25 % over seconds, for CPU time
as much as for wall time.  So every timed interval (a job, a fresh import) is
bracketed by a fixed pure-Python reference computation, and the end-to-end
times are scaled by REFERENCE_S / (mean of the two reference times): they
read as on a host where the reference takes REFERENCE_S.  Raw times are
printed alongside.
"""

from __future__ import annotations

import os

# numpy's thread pools are pinned before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
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
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 9
REFERENCE_S = 0.0025
# jobs per second of --seconds: a run does about --seconds x JOBS_PER_S jobs,
# in whole blocks.  With --seconds 25 the jobs take 24-36 s at the seed commit
# on a 2-CPU x86_64 host; period_lattice, whose job costs vary most between
# seeds, gets the most.
JOBS_PER_S = {"construct": 6.8, "verify": 5.4, "period_lattice": 7.2}


class BenchError(Exception):
    pass


def reference_s() -> float:
    """Wall time of a fixed Fraction and dict computation (about 2.5 ms)."""
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
        seen[i % 17] = acc
    return time.perf_counter() - start


def normalised(raw: float, before: float, after: float) -> float:
    return raw * 2 * REFERENCE_S / (before + after)


def import_cli():
    """Import torusfill.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "torusfill" / "cli.py").is_file():
        raise BenchError(f"no torusfill sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import torusfill.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "torusfill":
        raise BenchError(f"imported torusfill from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup() -> tuple[float, float]:
    """Median (raw, normalised) time for a fresh interpreter to import torusfill.cli.

    Timed from process start until the child reports the import done; the
    first start is a discarded warm-up that also writes the bytecode caches.
    """
    code = "import torusfill.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, norm = [], []
    for i in range(SETUP_REPEATS + 1):
        before = reference_s()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              cwd=ROOT, env=env) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        after = reference_s()
        if line != b"ready\n" or proc.returncode != 0:
            raise BenchError("a fresh interpreter failed to import torusfill.cli")
        if i:
            raw.append(ready)
            norm.append(normalised(ready, before, after))
    return statistics.median(raw), statistics.median(norm)


def declared_units(key: str) -> dict[str, str]:
    """Metric name -> unit for the `end_to_end` or `per_layer` list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def job_count(workload: str, seconds: float) -> int:
    block = workloads.BLOCK[workload]
    return block * max(1, round(seconds * JOBS_PER_S[workload] / block))


def run_job(cli, job: workloads.Job, workdir: Path, call):
    """Run one job; returns (seconds, outcome), outcome one of ok/defect/error/wrong."""
    paths = {}
    for name, data in job.files.items():
        path = workdir / f"{name}.json"
        path.write_bytes(data)
        paths[name] = str(path)
    argv = [arg.format(**paths) for arg in job.argv]
    out, err = io.StringIO(), io.StringIO()
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(cli.main, argv)
    except SystemExit as exc:  # argparse refuses the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a job that raises is a failed job
        code = None
    seconds = time.perf_counter() - start
    return seconds, check(job, code, out.getvalue())


def check(job: workloads.Job, code, stdout: str) -> str:
    """'ok' when the verdict is the expected one, 'defect' when the job exits
    with the known defect's code, 'error' when it raised or refused its input
    (exit 2) otherwise, 'wrong' when it returned another verdict."""
    if code is not None and code == job.expect.get("defect_exit"):
        return "defect"
    if code is None or code == 2:
        return "error"
    if code != job.expect["exit"]:
        return "wrong"
    try:
        report = json.loads(stdout)
        if job.argv[0] == "construct":
            good = report["valid"] is True and report["fraction"] == job.expect["fraction"]
        elif job.argv[0] == "verify" and code == 0:
            good = (report["verdicts"]["fundamental_domain"] is True
                    and report["covered_fraction"] == job.expect["fraction"])
        elif job.argv[0] == "verify":
            good = report["verdicts"]["injective"] is False and len(report["collisions"]) >= 1
        else:
            conditions = report["no_curves"]["conditions"]
            good = (report["no_curves"]["ok"] is True
                    and len(conditions) == job.expect["conditions"]
                    and all(v is True for v in conditions.values()))
    except (ValueError, KeyError, TypeError):  # not the report the CLI documents
        good = False
    return "ok" if good else "wrong"


class Tally:
    def __init__(self):
        self.raw: list[float] = []
        self.times: list[float] = []  # normalised
        self.kinds: dict[str, Counter] = {}

    def add(self, job: workloads.Job, raw: float, norm: float, outcome: str) -> None:
        self.raw.append(raw)
        self.times.append(norm)
        self.kinds.setdefault(job.kind, Counter())[outcome] += 1

    @property
    def attempted(self) -> int:
        return len(self.times)

    def count(self, outcome: str) -> int:
        return sum(c[outcome] for c in self.kinds.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.count("ok")

    @property
    def correct(self) -> bool:
        """No verdict but the expected one or the known defect's."""
        return self.count("wrong") == 0 and self.count("error") == 0

    def report(self, label: str) -> None:
        for kind, c in sorted(self.kinds.items()):
            total = sum(c.values())
            print(f"{label} {kind}: failed {total - c['ok']}/{total}"
                  f" (known defect {c['defect']}, error {c['error']}, wrong {c['wrong']})")


def run_jobs(cli, jobs, workdir: Path, tally: Tally, call) -> None:
    """Closed loop over `jobs`.

    Each CLI run starts with a fresh heap, so the previous job's garbage is
    collected outside the timed call; a job is normalised by the reference
    times taken just before it and just after the following collection.
    """
    gc.collect()
    before = reference_s()
    for job in jobs:
        seconds, outcome = run_job(cli, job, workdir, call)
        gc.collect()
        after = reference_s()
        tally.add(job, seconds, normalised(seconds, before, after), outcome)
        before = after


def direct(fn, argv):
    return fn(argv)


def _rates(times: list[float]) -> tuple[float, float, float]:
    """jobs per second, median and 90th percentile in ms."""
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    return len(times) / sum(times), statistics.median(times) * 1000, p90 * 1000


def measure(cli, jobs, workdir: Path):
    setup_raw, setup_s = measure_setup()
    tally = Tally()
    run_jobs(cli, jobs, workdir, tally, direct)
    tally.report("jobs")
    jobs_per_s, p50, p90 = _rates(tally.times)
    metrics = {
        "setup_s": setup_s, "jobs_per_s": jobs_per_s, "job_p50_ms": p50, "job_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_rate, raw_p50, raw_p90 = _rates(tally.raw)
    print(f"samples {tally.attempted} jobs in {sum(tally.raw):.3f} s busy;"
          f" failed_ratio {tally.failed / tally.attempted:.6f}"
          f" ({tally.failed}/{tally.attempted})")
    print(f"raw (not normalised): setup_s {setup_raw:.6g} s, jobs_per_s {raw_rate:.6g} 1/s,"
          f" job_p50_ms {raw_p50:.6g} ms, job_p90_ms {raw_p90:.6g} ms")
    return tally, tally.correct, metrics


def measure_traced(cli, jobs, workdir: Path, spans: Path):
    plain = Tally()
    run_jobs(cli, jobs, workdir, plain, direct)
    tracer = tracing.Tracer()
    traced = Tally()
    tracer.install()
    try:
        run_jobs(cli, jobs, workdir, traced,
                 lambda fn, argv: tracer.run_job(traced.attempted, fn, argv))
    finally:
        tracer.uninstall()
    if tracer.missing:
        print("not traced (absent): " + ", ".join(tracer.missing))
    traced.report("traced jobs")
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = sum(plain.times) / sum(traced.times)
    tracer.write_spans(spans)
    print(f"samples {traced.attempted} jobs traced; spans in {spans.relative_to(ROOT)}")
    return traced, plain.correct and traced.correct, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_cli()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    import numpy
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()},"
          f" numpy {numpy.__version__}, {platform.machine()}")
    count = job_count(args.workload, args.seconds)
    print(f"workload {args.workload}, seed {args.seed}, {count} jobs,"
          f" closed loop with 1 client")
    jobs = list(itertools.islice(workloads.jobs(args.workload, args.seed), count))
    units = declared_units("per_layer" if args.trace else "end_to_end")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            tally, correct, values = measure_traced(
                cli, jobs, workdir, OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            tally, correct, values = measure(cli, jobs, workdir)
        missing = [name for name in units if name not in values]
        if missing:
            raise BenchError("no value for declared metrics: " + ", ".join(missing))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
