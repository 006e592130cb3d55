"""The bolalg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program under test is the
`bolalg` package in its `src` directory, used unbuilt.  The inputs are
generated from the seed (gen.py).  Load is a closed loop with one
client: one job at a time, each in a fresh interpreter, so no job sees
another job's `lru_cache`s.  A pass runs every job of the workload once;
passes repeat while another one fits in S seconds, and there is always
at least one.

With --trace 0 the end-to-end metrics are printed:

    setup_s        median over fresh interpreters that import bolalg.cli
                   and parse every document of the workload
    wall_s         sum over the jobs of each job's median wall time
    top_job_s      the same, over the jobs on the largest-dimension documents
    peak_rss_mb    largest peak RSS of a job
    correct_rate   share of jobs with the right exit code and answer (the
                   complement of the error rate; a timeout is a wrong answer)
    decided_ratio  share of decided results: radical, simplicity and
                   decomposition in a session, exit code other than 2 in a CLI job

With --trace 1 each
pass is followed by a traced pass (functions of every `bolalg` module
wrapped, see tracer.py), and the per-layer metrics of the traced passes
are printed.  Every answer is checked (verify.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it records the Python version, the processor count and
the sample counts.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
# A run must end within 180 s: no job starts, or runs on, past this.
HARD_LIMIT_S = 165.0
JOB_TIMEOUT_S = {"check-sparse": 60.0, "session-dense": 90.0, "reject-invalid": 30.0}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("top_job_s", "s"),
    ("peak_rss_mb", "MB"),
    ("correct_rate", "ratio"),
    ("decided_ratio", "ratio"),
)

SETUP_CODE = """
import sys
import bolalg.cli
from bolalg.errors import DocumentError
from bolalg.fileio import parse_bol_document
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        parse_bol_document(text)
    except DocumentError:
        pass
"""


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline


def spawn(argv: list[str], out: Path, err: Path, timeout: float) -> tuple[int | None, float, int]:
    """Run one child to completion: (exit code or None on timeout, wall s, peak RSS KiB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    except Deadline:
        status = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if status is None:
        os.kill(pid, signal.SIGKILL)
        _, _, usage = os.wait4(pid, 0)
        return None, time.perf_counter() - start, usage.ru_maxrss
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss


class Run:
    def __init__(self, workload: str, docs, work: Path, started: float):
        self.workload = workload
        self.docs = docs
        self.work = work
        self.hard_end = started + HARD_LIMIT_S
        self.top_dim = max(d.dim for d in docs)
        self.jobs = self._jobs()
        self.attempted = self.failed = 0
        self.decided = self.results = 0
        self.peak_kib = 0
        self.errors: list[str] = []
        self.job_s: list[list[float]] = [[] for _ in self.jobs]  # untraced wall time of each job, per pass

    def _jobs(self) -> list[dict]:
        jobs = []
        for pos, doc in enumerate(self.docs):
            path = self.work / f"{pos:02d}-{re.sub(r'[^A-Za-z0-9_.-]', '_', doc.name)}.json"
            path.write_text(doc.text, encoding="utf-8")
            base = {"doc": doc.name, "dim": doc.dim, "text": doc.text, "expect": doc.expect, "path": str(path)}
            if self.workload == "session-dense":
                jobs.append(dict(base, kind="session"))
            else:
                commands = ("check",) if self.workload == "check-sparse" else ("check", "radical")
                jobs.extend(dict(base, kind="cli", argv=[cmd, "--json", str(path)]) for cmd in commands)
        return jobs

    def setup_s(self) -> float:
        """Median time for a fresh interpreter to import the CLI and parse every document."""
        argv = [sys.executable, "-c", SETUP_CODE] + [job["path"] for job in self.jobs]
        out, err = self.work / "setup.out", self.work / "setup.err"
        times = []
        for sample in range(SETUP_SAMPLES + 1):  # the first writes the bytecode caches
            code, wall, _ = spawn(argv, out, err, self.hard_end - time.perf_counter())
            if code != 0:
                raise SystemExit(f"set-up failed with exit code {code}: {err.read_text()[-500:]}")
            if sample:
                times.append(wall)
        return statistics.median(times)

    def run_pass(self, traced: bool) -> tuple[float, list[dict]]:
        """Every job once: (pass wall s, span dumps)."""
        wall = 0.0
        dumps = []
        for idx, job in enumerate(self.jobs):
            out, err = self.work / "job.out", self.work / "job.err"
            spans = self.work / f"spans-{idx}.json"
            if job["kind"] == "session":
                argv = [sys.executable, str(HERE / "job.py"), "session", job["path"]]
                if traced:
                    argv += ["--spans", str(spans)]
            elif traced:
                argv = [sys.executable, str(HERE / "job.py"), "cli", "--spans", str(spans), "--"] + job["argv"]
            else:
                argv = [sys.executable, "-m", "bolalg.cli"] + job["argv"]
            left = self.hard_end - time.perf_counter()
            self.attempted += 1
            if left <= 0:
                self._fail(job, "not started before the run's time limit")
                continue
            code, secs, kib = spawn(argv, out, err, min(JOB_TIMEOUT_S[self.workload], left))
            wall += secs
            if not traced:
                self.job_s[idx].append(secs)
            self.peak_kib = max(self.peak_kib, kib)
            stdout = out.read_text(encoding="utf-8")
            problem = verify.check(job, code, stdout, err.read_text(encoding="utf-8"))
            if problem is not None:
                self._fail(job, problem)
            got, of = verify.decided(job, code, stdout)
            self.decided += got
            self.results += of
            if traced and spans.exists():
                dumps.append(json.loads(spans.read_text(encoding="utf-8")))
                spans.unlink()
        return wall, dumps

    def typical_s(self, top_only: bool = False) -> float:
        """Sum over jobs of each job's median wall time across the passes."""
        return sum(
            statistics.median(times)
            for job, times in zip(self.jobs, self.job_s)
            if times and (job["dim"] == self.top_dim or not top_only)
        )

    def _fail(self, job: dict, problem: str) -> None:
        self.failed += 1
        label = job["doc"] + ("" if job["kind"] == "session" else " " + job["argv"][0])
        self.errors.append(f"{label}: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if args.workload not in gen.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {', '.join(gen.WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        run = Run(args.workload, gen.WORKLOADS[args.workload](args.seed), work, started)
        setup = None if args.trace else run.setup_s()
        walls, traced_walls, layers = [], [], []
        begin = time.perf_counter()
        while True:
            wall, _ = run.run_pass(traced=False)
            walls.append(wall)
            if args.trace:
                twall, dumps = run.run_pass(traced=True)
                traced_walls.append(twall)
                layers.append(tracer.summarize(dumps))
            spent = time.perf_counter() - begin
            if spent + spent / len(walls) > args.seconds or time.perf_counter() > run.hard_end:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {
            name: {"value": statistics.median_low(layer[name] for layer in layers), "unit": unit}
            for name, unit in tracer.PER_LAYER
        }
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(t / u for t, u in zip(traced_walls, walls)),
            "unit": "ratio",
        }
    else:
        values = {
            "setup_s": setup,
            "wall_s": run.typical_s(),
            "top_job_s": run.typical_s(top_only=True),
            "peak_rss_mb": run.peak_kib / 1024,
            "correct_rate": (run.attempted - run.failed) / run.attempted,
            "decided_ratio": run.decided / run.results if run.results else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "samples": {"setup": 0 if args.trace else SETUP_SAMPLES, "passes": len(walls), "traced_passes": len(traced_walls), "jobs_per_pass": len(run.jobs)},
        "pass_wall_s": [round(w, 4) for w in walls],
        "errors": run.errors[:10],
    }
    print(json.dumps(info))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "bolalg" / "__init__.py").is_file():
        print(f"benchmark: no bolalg package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gen  # noqa: E402 - needs the paths above
    import tracer  # noqa: E402
    import verify  # noqa: E402

    sys.exit(main())
