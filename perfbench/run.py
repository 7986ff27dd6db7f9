#!/usr/bin/env python3
"""cavityspin benchmark: real CLI commands, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sector-ed --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it runs the workload's commands as fresh
``python -m cavityspin.cli`` processes against the checkout's ``src/``, one
at a time from this process (a closed loop with a single client), in passes:
at least three, then more while the next is predicted to end within
``--seconds``.  Before each pass it times three
``cavityspin --help`` processes (set-up: interpreter start, imports, parser).
It reports, per workload:

* ``wall_s``: wall time of one pass, as the sum over commands of each
  command's median wall time across passes, process start included;
* ``setup_s``: median wall time of the ``--help`` processes;
* ``cpu_s``: user plus system CPU of the child processes in one pass, summed
  the same way;
* ``peak_rss_mb``: the largest child max-RSS in a pass, median over passes.

With ``--trace 1`` it calls ``cavityspin.cli.main(argv)`` in this process,
in pairs of an untraced and a traced pass (at least two pairs), and reports the per-layer metrics of
``layers.PER_LAYER`` (medians over traced passes), the share of each
command's in-process time the layer spans cover, and the tracing overhead
against the untraced passes.  Spans are written to the run's work directory
when the run ends.

Every command's output is checked (``checks.py``).  A command fails on a
non-zero exit, on stderr that is not the documented JSON error object, or on
a failed check; failures are counted, never fatal.  ``error_rate`` is
``failed / attempted`` of the printed result.  ``correct`` is false when a
check fails other than a known defect listed with its command in
``workloads.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The seed, every
generated argv, the environment and all per-command results go to
``.bench_work/<workload>-seed<seed>-trace<t>/record.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
WORKERS_ENV = "CAVITYSPIN_WORKERS"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
HELP_PER_PASS = 3
MIN_PASSES = 3  # a median needs three samples; a slow first pass must not end a run
MIN_TRACED_PAIRS = 2
TIME_CAP_S = 150.0  # no pass starts that would end a run near the 180 s limit
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))


@dataclasses.dataclass
class Outcome:
    """One finished command: its cost and its check failures."""

    label: str
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int = 0
    failures: list = dataclasses.field(default_factory=list)
    known: bool = True  # every failure is a known defect of the command


def _judge(outcome: Outcome, command: workloads.Command) -> Outcome:
    outcome.known = all(key in command.known_defects for key, _ in outcome.failures)
    return outcome


def child_env() -> dict:
    env = dict(os.environ)
    env.pop(WORKERS_ENV, None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, work: Path, env: dict) -> tuple[float, float, float, int, str, str]:
    """Run one CLI process; (wall, cpu, max-RSS MiB, exit code, stdout, stderr)."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "cavityspin.cli", *argv],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            cwd=work,
            env=env,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def time_setup(work: Path, env: dict) -> float:
    wall, _, _, code, stdout, stderr = run_child(["--help"], work, env)
    if code != 0 or not stdout.startswith("usage: cavityspin"):
        raise RuntimeError(f"cavityspin --help failed (exit {code}): {stderr[:300]}")
    return wall


def run_pass(commands, work: Path, env: dict) -> list[Outcome]:
    outcomes = []
    for cmd in commands:
        wall, cpu, rss, code, stdout, stderr = run_child(cmd.argv, work, env)
        failures = checks.check_command(cmd, code, stdout, stderr, work)
        outcomes.append(_judge(Outcome(cmd.label, wall, cpu, rss, code, failures), cmd))
    return outcomes


def repeat(step, seconds: float, minimum: int) -> None:
    """Call ``step`` at least ``minimum`` times, then while the next call,
    predicted to last the median of the calls so far, ends within
    ``seconds``; never start one predicted to end past ``TIME_CAP_S``."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        began = time.perf_counter()
        step()
        durations.append(time.perf_counter() - began)
        next_end = time.perf_counter() - start + statistics.median(durations)
        if next_end > TIME_CAP_S or (len(durations) >= minimum and next_end > seconds):
            return


def end_to_end(commands, work: Path, seconds: float) -> tuple[dict, list, list]:
    env = child_env()
    time_setup(work, env)  # untimed: fills the bytecode cache of the checkout
    setups: list[float] = []
    passes: list[list[Outcome]] = []

    def one_pass() -> None:
        setups.extend(time_setup(work, env) for _ in range(HELP_PER_PASS))
        passes.append(run_pass(commands, work, env))

    repeat(one_pass, seconds, MIN_PASSES)
    per_command = list(zip(*passes))
    metrics = {
        "wall_s": sum(statistics.median(o.wall_s for o in runs) for runs in per_command),
        "setup_s": statistics.median(setups),
        "cpu_s": sum(statistics.median(o.cpu_s for o in runs) for runs in per_command),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p) for p in passes),
    }
    record = [{"setup_s": setups}] + [
        {"pass": i, "commands": [dataclasses.asdict(o) for o in p]} for i, p in enumerate(passes)
    ]
    return metrics, record, [o for p in passes for o in p]


def call_main(main, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an escaped exception is a failed command, not a crash
            code = 1
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue()


def in_process_pass(main, commands, work, tracer=None, pass_id=0):
    """One pass through cli.main; returns outcomes and per-command coverage."""
    outcomes, coverage = [], []
    for cmd in commands:
        if tracer is not None:
            tracer.command = f"{pass_id}:{cmd.label}"
        start = time.perf_counter()
        if tracer is None:
            code, stdout, stderr = call_main(main, cmd.argv)
        else:
            with tracer.span(layers.ROOT_SPAN):
                code, stdout, stderr = call_main(main, cmd.argv)
        wall = time.perf_counter() - start
        if tracer is not None:
            root = next(s for s in reversed(tracer.spans) if s.name == layers.ROOT_SPAN)
            kids = [s for s in tracer.spans if s.parent == root.id]
            coverage.append((cmd.label, layers.covered(root, kids), wall))
        failures = checks.check_command(cmd, code, stdout, stderr, work)
        outcomes.append(_judge(Outcome(cmd.label, wall, exit_code=code, failures=failures), cmd))
    return outcomes, coverage


def _sum_of_minima(passes: list[list[float]]) -> float:
    return sum(min(times) for times in zip(*passes))


def traced(commands, work: Path, seconds: float) -> tuple[dict, list, list]:
    os.environ.pop(WORKERS_ENV, None)
    sys.path.insert(0, str(SRC))
    os.chdir(work)
    from cavityspin.cli import main

    plain, traced_walls, metrics_per_pass, coverages, outcomes, spans = [], [], [], [], [], []

    def untraced_pass() -> None:
        done, _ = in_process_pass(main, commands, work)
        plain.append([o.wall_s for o in done])
        outcomes.extend(done)

    def traced_pass() -> None:
        tracer = layers.Tracer()
        with layers.instrument(tracer):
            done, cover = in_process_pass(main, commands, work, tracer, len(metrics_per_pass))
        values = layers.layer_metrics(tracer)
        values["trace.span_coverage"] = sum(c for _, c, _ in cover) / sum(w for _, _, w in cover)
        metrics_per_pass.append(values)
        traced_walls.append([o.wall_s for o in done])
        coverages.append(
            [{"command": l, "covered_s": c, "wall_s": w, "share": c / w} for l, c, w in cover]
        )
        outcomes.extend(done)
        spans.extend(dataclasses.asdict(s) for s in tracer.spans)

    def pair() -> None:
        # pairs alternate which pass goes first, so one-time costs of the
        # first pass in this process do not all land on one side
        order = (untraced_pass, traced_pass)
        for run in order if len(plain) % 2 == 0 else reversed(order):
            run()

    repeat(pair, seconds, MIN_TRACED_PAIRS)
    metrics = {
        name: statistics.median(v[name] for v in metrics_per_pass)
        for name, _, _ in layers.PER_LAYER
        if name != "trace.overhead"
    }
    # per-command minima: host noise and first-pass costs only ever add time
    metrics["trace.overhead"] = _sum_of_minima(traced_walls) / _sum_of_minima(plain) - 1.0
    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    record = [
        {
            "untraced_s": plain,
            "traced_s": traced_walls,
            "coverage": coverages,
            "per_pass": metrics_per_pass,
        }
    ]
    return metrics, record, outcomes


def cpu_times() -> list[int] | None:
    """Host-wide CPU tick counters (user .. steal) from /proc/stat, if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to others between two readings."""
    if before is None or after is None or sum(after) == sum(before):
        return None
    return (after[7] - before[7]) / (sum(after) - sum(before))


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _openblas_version() -> str | None:
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": _openblas_version(),
        "blas_thread_vars": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "cavityspin" / "cli.py").is_file():
        print(f"perfbench: no cavityspin sources under {SRC}", file=sys.stderr)
        return 2

    commands = workloads.generate(args.workload, args.seed)
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    ticks = cpu_times()
    if args.trace:
        values, passes, outcomes = traced(commands, work, args.seconds)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        values, passes, outcomes = end_to_end(commands, work, args.seconds)
        units = dict(END_TO_END)

    steal = steal_share(ticks, cpu_times())
    attempted, failed = len(outcomes), sum(1 for o in outcomes if o.failures)
    correct = all(o.known for o in outcomes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "cpu_steal_share": steal,
        "commands": [{"label": c.label, "argv": list(c.argv)} for c in commands],
        "passes": passes,
        "metrics": values,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
    }
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} commands attempted, {failed} failed, "
          f"error_rate {failed / attempted:.4f}, "
          f"cpu steal {'n/a' if steal is None else f'{steal:.3f}'}")
    seen = set()
    for o in outcomes:
        for key, message in o.failures:
            if (o.label, key) not in seen:
                seen.add((o.label, key))
                tag = "known defect" if o.known else "FAILED"
                print(f"  {tag}: {o.label} [{key}] {message}")
    if args.trace:
        for c in passes[0]["coverage"][-1]:
            print(f"  span coverage of {c['command']}: {c['share']:.4f} of {c['wall_s']:.4g} s")
    metrics ={name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
