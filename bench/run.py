#!/usr/bin/env python3
"""The ifsfourier benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload harmonic-mc --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
`src/`.  The workload's job list is generated from --seed and run as
rounds: every job is issued only after the previous one returns, and
rounds repeat until --seconds have passed and at least MIN_ROUNDS
rounds are done.  Each job's output is checked.  With --trace 0 the
last line of stdout is the end-to-end metrics as JSON; with --trace 1
rounds alternate untraced and traced, and it is the per-layer metrics.
A run record (job list, per-job times, digests, environment) goes to
bench/results/.  --tiny runs one small round, to show in seconds that
everything works end to end.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# With at least four rounds the job_s.tail level has at least ten jobs
# beyond it, and it lands on the third-slowest job of the round.
MIN_ROUNDS = 4
TAIL_BEYOND = 10
SETUP_REPEATS = 5

# Other tenants of the host slow this process by up to 2x, in bursts from
# milliseconds to minutes, so raw wall times of the same code spread by
# 10-40% from run to run.  Every timed job and set-up probe therefore sits
# between two runs of `reference()`, and its time is scaled by
# REF_NOMINAL_S over the mean of the two: figures are seconds at the
# reference speed of a lightly loaded host.  REF_NOMINAL_S is about the
# reference's time on a lightly loaded 2-core Intel Xeon (2.1 GHz) VM with
# Python 3.11 and numpy 2.4; it only scales the figures.  Raw times are
# kept in the record.  (numpy is imported inside functions throughout:
# the thread caps must be in the environment before it loads.)
REF_NOMINAL_S = 0.012
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ifsfourier import get_system
for name in sys.argv[2:]:
    get_system(name)
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("harmonic-mc", "spectral-exact", "stationary"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="one round at small sizes")
    return p.parse_args(argv)


def reference() -> float:
    """Seconds for a fixed mix of the kinds of work the package does:
    interpreter loops, numpy calls on small arrays, numpy on large arrays
    and Fraction arithmetic.  Each kind slows differently under another
    tenant's load, and the mix tracks the workloads better than any one."""
    import numpy as np

    small, eye = np.ones((32, 2)), np.eye(2)
    big, tall = np.linspace(0.0, 1.0, 100_000), np.ones((20_000, 2))
    start = time.perf_counter()
    acc = 0
    for k in range(40_000):
        acc += k % 7
    for _ in range(300):
        z = small @ eye
        np.exp(2j * np.pi * z[:, 0]).sum()
        np.cumsum(z, axis=1)
    np.exp(2j * np.pi * big).sum()
    (tall @ eye).sum()
    for k in range(1, 500):
        Fraction(k, k + 1) * Fraction(k + 2, 3 * k + 1) + Fraction(1, k)
    return time.perf_counter() - start


def normalized(seconds, ref_before, ref_after) -> float:
    """A measured time at the reference speed (see REF_NOMINAL_S)."""
    return seconds * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))


def measure_setup(names) -> tuple:
    """Import plus registry builds, each in a fresh interpreter; returns
    (raw, normalized) samples."""
    raw, norm = [], []
    ref = reference()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *names],
                              capture_output=True, text=True, timeout=120, check=True)
        seconds = float(done.stdout.strip().splitlines()[-1])
        after = reference()
        raw.append(seconds)
        norm.append(normalized(seconds, ref, after))
        ref = after
    return raw, norm


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return float(obj)


def run_job(job, cli_main, tracer=None):
    """Run one job; returns (seconds, output text, problems)."""
    out, err = io.StringIO(), io.StringIO()
    rc, result, error = 0, None, None
    close = tracer.job(job.name) if tracer is not None else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv is not None:
                rc = cli_main(job.argv)
            else:
                result = job.call()
    except Exception:  # a failing job is counted, the run goes on
        error = traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - start
    if close is not None:
        close(error is not None or rc != 0)
    if error is not None:
        return seconds, "", [error]
    if rc != 0:
        return seconds, out.getvalue(), ["exit code %d: %s" % (rc, err.getvalue()[:500])]
    text = out.getvalue() if job.argv is not None else json.dumps(
        result, sort_keys=True, default=_jsonable)
    try:
        problems = job.check(json.loads(text) if job.argv is not None else result)
    except (KeyError, TypeError, ValueError) as exc:
        problems = ["output check could not read the output: %r" % exc]
    return seconds, text, problems


def job_medians(rounds, key="job_s") -> list:
    """Each job's time as its median over the rounds."""
    return [statistics.median(times) for times in zip(*(r[key] for r in rounds))]


def job_metrics(rounds, tail_level, key) -> dict:
    """wall_s, job_s.p50 and job_s.tail with every execution of a job
    taken at that job's median over the rounds, so that a burst which
    slows one execution moves none of them."""
    import numpy as np

    medians = job_medians(rounds, key)
    executions = np.repeat(medians, len(rounds))
    return {
        "wall_s": (sum(medians), "s"),
        "job_s.p50": (statistics.median(medians), "s"),
        "job_s.tail": (float(np.percentile(executions, tail_level)), "s"),
    }


def environment(cap, cpu) -> dict:
    import numpy as np

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(), "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": commit, "thread_cap": {var: cap for var in THREAD_VARS},
        "pinned_cpu": cpu,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # One client on one core: the process and its set-up probes are pinned
    # to one CPU, so jobs and the speed reference always share a core, and
    # BLAS/OpenMP get one thread.  Both apply to this process tree only.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    cap = "1"
    for var in THREAD_VARS:
        os.environ[var] = cap
    if not (SRC / "ifsfourier" / "__init__.py").is_file():
        print("bench: no package at %s; run from the root of an ifsfourier checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ifsfourier
    import ifsfourier.cli

    if Path(ifsfourier.__file__).resolve().parent != (SRC / "ifsfourier").resolve():
        print("bench: imported ifsfourier from %s, not %s" % (ifsfourier.__file__, SRC),
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    names = workloads.systems_for(args.workload)
    setup_raw, setup_samples = measure_setup(names)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        close = tracer.job("set-up")
    systems = {name: ifsfourier.get_system(name) for name in names}
    if tracer is not None:
        close(False)
        setup_summary = tracing.summarize(tracer.spans)
        tracer.spans.clear()
        tracer.uninstall()

    jobs = workloads.build_jobs(args.workload, args.seed, systems, tiny=args.tiny)
    min_rounds = 1 if args.tiny else MIN_ROUNDS
    rounds, digests, failures = [], {}, []
    layer_rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        times, refs, norm, failed = [], [reference()], [], 0
        for job in jobs:
            seconds, text, problems = run_job(job, ifsfourier.cli.main,
                                              tracer if traced else None)
            refs.append(reference())
            times.append(seconds)
            norm.append(normalized(seconds, refs[-2], refs[-1]))
            if problems:
                failed += 1
                failures.append({"round": len(rounds), "job": job.name,
                                 "problems": [str(p)[:2000] for p in problems]})
            digests.setdefault(job.name, {"stdout": set()})["stdout"].add(
                workloads.digest(text))
        if traced:
            tracer.uninstall()
            layer_rounds.append(tracing.layer_metrics(tracing.summarize(tracer.spans), failed))
            tracer.spans.clear()
        rounds.append({"traced": traced, "job_s": norm, "raw_job_s": times, "ref_s": refs,
                       "failed": failed})
        if len(rounds) == 1:
            for job in jobs:
                if job.words is not None:
                    digests[job.name]["words"] = workloads.digest(job.words())
        plain = [r for r in rounds if not r["traced"]]
        enough = len(plain) >= min_rounds and (tracer is None or layer_rounds)
        if enough and (args.tiny or time.perf_counter() - start >= args.seconds):
            break

    plain = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    attempted = len(jobs) * len(rounds)
    n_failed = sum(r["failed"] for r in rounds)
    tail_level = max(0.0, 100.0 * (1.0 - TAIL_BEYOND / (len(jobs) * min_rounds)))
    e2e = {
        "setup_s": (statistics.median(setup_samples), "s"),
        **job_metrics(plain, tail_level, "job_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - n_failed / attempted, "ratio"),
    }
    raw = {"setup_s": statistics.median(setup_raw),
           **{k: v for k, (v, _) in job_metrics(plain, tail_level, "raw_job_s").items()}}
    if tracer is None:
        metrics = e2e
    else:
        traced_wall = sum(job_medians(traced_rounds))
        # one traced round, the median by job time, so the layer figures add up
        ranked = sorted(layer_rounds, key=lambda lr: lr["trace.job_s"])
        per_layer = dict(ranked[(len(ranked) - 1) // 2])
        per_layer["registry.get_system.busy_s"] = setup_summary["names"][
            "registry.get_system"]["busy_s"] if "registry.get_system" in setup_summary[
            "names"] else 0.0
        per_layer["trace.overhead_s"] = traced_wall - e2e["wall_s"][0]
        metrics = {key: (value, "s" if key.endswith("_s") else
                         "ratio" if key.endswith("_ratio") else "count")
                   for key, value in per_layer.items()}

    absent = sorted(set(tracing.REQUIRED_SPANS) - tracer.hooked) if tracer else []
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "env": environment(cap, cpu),
        "jobs": [job.describe() for job in jobs],
        "rounds": rounds, "setup_samples": {"normalized": setup_samples, "raw": setup_raw},
        "tail_level": tail_level, "tail_jobs": len(jobs) * len(plain),
        "failed_frac": n_failed / attempted, "failures": failures,
        "digests": {name: {"stdout": sorted(d["stdout"]), **({"words": d["words"]}
                                                               if "words" in d else {})}
                    for name, d in digests.items()},
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
        "end_to_end": {key: {"value": v, "unit": u} for key, (v, u) in e2e.items()},
        "raw_seconds": raw, "ref_nominal_s": REF_NOMINAL_S,
        "absent_spans": absent,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / ("%s_seed%d_trace%d_%d.json"
                      % (args.workload, args.seed, args.trace, time.time_ns()))
    path.write_text(json.dumps(record, indent=1, sort_keys=True))

    for key, (value, unit) in metrics.items():
        print("%-46s %14.6g %s%s" % (key, value, unit, "   (raw %.6g s)" % raw[key]
                                      if key in raw and tracer is None else ""),
              file=sys.stderr)
    print("failed_frac %.6g (%d of %d jobs); job_s.tail at p%.2f of %d jobs; "
          "%d rounds; record %s"
          % (n_failed / attempted, n_failed, attempted, tail_level, len(jobs) * len(plain),
             len(rounds), path.relative_to(ROOT)), file=sys.stderr)
    for f in failures[:5]:
        print("FAILED %s (round %d): %s" % (f["job"], f["round"], f["problems"][0][:300]),
              file=sys.stderr)
    if absent:
        print("absent spans (reported as 0): %s" % ", ".join(absent), file=sys.stderr)
    print(json.dumps({
        "correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
