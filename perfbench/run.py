"""Benchmark of the confspace workbench: four exact-algebra workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graph-pages --seed 1 --trace 0
    python3 perfbench/run.py --workload all     # every workload, a table
    python3 perfbench/run.py --workload tensor-e2 --profile

Each run is one fresh single-threaded interpreter.  It measures set-up in
fresh interpreters, then runs the workload's job list (see ``jobs.py``)
pass after pass while another pass still fits in ``--seconds``, checks
every job's output, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end metrics (``--trace 0``):

* ``setup_s``: median over fresh interpreters, started between jobs
  throughout the run, of the time each takes to import confspace and
  build the job list, until the first job could start;
* ``wall_s``: median over passes of the time to run the job list once
  (the sum of the job times);
* ``job_s.max``: the largest per-job median over passes;
* ``peak_rss_mb``: ``ru_maxrss`` of this process;
* ``pass_ratio``: jobs that passed every check over jobs attempted
  (``fail_ratio`` = 1 - ``pass_ratio`` = failed / attempted).

The three times are reported at a reference speed.  On a shared host the
machine's speed drifts by up to a factor of two within seconds, for the
probe and the jobs alike, and no statistic within one run takes that out.
So each job and each set-up is timed by a ``meter.Meter``, which times a
fixed probe every ``JOB_TICK`` (set-up: ``SETUP_TICK``) seconds of the
timed code and scales each stretch of it by the probe's speed (see
``meter.py``).  The measured
seconds and the median probe time are printed on stderr.

``--trace 1`` runs one untraced pass and then one traced pass (see
``tracer.py``) and reports the per-layer metrics plus
``trace.overhead_ratio``, the traced pass time over the untraced one.
Before the result it prints a ``counts`` line (integer counters of the
traced pass) and a ``jobs`` line (the same per job), both byte-comparable
between runs.

``--profile`` runs one pass under cProfile and reports the share of self
time spent in ``fractions`` and in ``FpElement`` methods.  It never runs in
a timed pass.

A job fails when it raises, exits with a code other than 0 or returns a
``fail`` verdict.  It is wrong when it completes but disagrees with its
oracle or its recorded payload; a wrong job makes ``correct`` false.
Both count in ``failed``.  Exits with 2, printing no result, when the
package sources are missing.
"""

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time

import meter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("graph-pages", "tensor-e2", "massey-d2", "duality")
SETUP_SAMPLES = 11
# seconds between probes: a job is probed every JOB_TICK s, the short set-up
# every SETUP_TICK s
JOB_TICK = 0.1
SETUP_TICK = 0.02

_SETUP = ("import sys; sys.path[:0] = sys.argv[1:3]; import meter; "
          "m = meter.Meter(float(sys.argv[5])); m.start(); import jobs; "
          "jobs.build(sys.argv[3], int(sys.argv[4])); "
          "print('ready %r %r' % m.stop(), flush=True)")


def _measure_setup(workload, seed):
    """(raw, scaled) seconds a fresh interpreter takes to import the
    package and build the job list, timed inside that interpreter by a
    meter started before the import."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _SETUP, SRC, HERE, workload, str(seed),
         str(SETUP_TICK)], stdout=subprocess.PIPE, text=True)
    with proc:
        out = proc.stdout.read()
    fields = out.split()
    if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
        raise RuntimeError("set-up interpreter failed (exit %s)"
                           % proc.returncode)
    return float(fields[1]), float(fields[2])


class Pass:
    """Timings and outcomes of one run of a job list, each job timed by
    ``meter``.  ``times`` holds scaled and ``raw`` measured seconds per
    job; ``wall`` sums the scaled job times, so checks and whatever
    ``on_job`` does between jobs are not counted."""

    def __init__(self, jobs_mod, job_list, expected, meter, on_job=None):
        self.times = {}
        self.raw = {}
        self.outcomes = {}
        for job in job_list:
            (raw, scaled), status, detail = jobs_mod.evaluate(
                job, expected, meter)
            self.times[job.name] = scaled
            self.raw[job.name] = raw
            self.outcomes[job.name] = (status, detail)
            if on_job:
                on_job(job)
        self.wall = sum(self.times.values())
        self.raw_wall = sum(self.raw.values())

    def count(self, *statuses):
        return sum(1 for s, _ in self.outcomes.values() if s in statuses)


def _summary(passes):
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.count("fail", "wrong") for p in passes)
    correct = all(p.count("wrong") == 0 for p in passes)
    return correct, attempted, failed


def _report_jobs(passes):
    """Per-job median time and first problem, on stderr."""
    for name in passes[0].times:
        med = statistics.median(p.times[name] for p in passes)
        bad = [p.outcomes[name] for p in passes if p.outcomes[name][0] != "ok"]
        note = "%s: %s" % bad[0] if bad else "ok"
        print("  %-32s %9.4f s  %s" % (name, med, note), file=sys.stderr)


def _result(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def _timed_run(jobs_mod, workload, seed, seconds, expected):
    job_list = jobs_mod.build(workload, seed)
    m = meter.Meter(JOB_TICK)
    # Between jobs the run collects the garbage the last job left, so no
    # job pays for another's, and takes set-up samples spread over the run.
    setup = []
    gap = seconds / SETUP_SAMPLES
    last = time.perf_counter() - gap

    def between_jobs(job=None):
        nonlocal last
        gc.collect()
        if len(setup) < SETUP_SAMPLES and time.perf_counter() - last >= gap:
            last = time.perf_counter()
            setup.append(_measure_setup(workload, seed))

    passes = []
    start = time.perf_counter()
    while True:
        between_jobs()
        passes.append(Pass(jobs_mod, job_list, expected, m, between_jobs))
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(_measure_setup(workload, seed))
    _report_jobs(passes)
    correct, attempted, failed = _summary(passes)
    scaled = {
        "setup_s": statistics.median(s for _, s in setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "job_s.max": max(statistics.median(p.times[name] for p in passes)
                         for name in passes[0].times),
    }
    raw = {
        "setup_s": statistics.median(r for r, _ in setup),
        "wall_s": statistics.median(p.raw_wall for p in passes),
        "job_s.max": max(statistics.median(p.raw[name] for p in passes)
                         for name in passes[0].raw),
    }
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("%s: %d passes, %d probes (median %.5f s), measured %s, "
          "fail_ratio %.4f" % (
              workload, len(passes), len(m.probes),
              statistics.median(m.probes),
              ", ".join("%s %.4f s" % kv for kv in raw.items()),
              failed / attempted), file=sys.stderr)
    metrics = {k: {"value": v, "unit": "s"} for k, v in scaled.items()}
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    metrics["pass_ratio"] = {"value": (attempted - failed) / attempted,
                             "unit": "ratio"}
    _result(correct, attempted, failed, metrics)


def _traced_run(jobs_mod, workload, seed, expected):
    import tracer
    job_list = jobs_mod.build(workload, seed)
    untimed = meter.Meter(None)
    plain = Pass(jobs_mod, job_list, expected, untimed)
    tr = tracer.Tracer()
    per_job = {}
    last = {}

    def on_job(job):
        now = tr.count_snapshot()
        per_job[job.name] = {k: v - last.get(k, 0) for k, v in now.items()
                             if v != last.get(k, 0)}
        last.clear()
        last.update(now)

    with tr.installed():
        traced = Pass(jobs_mod, job_list, expected, untimed, on_job)
    passes = [plain, traced]
    _report_jobs(passes)
    print("counts " + json.dumps(tr.count_snapshot(), sort_keys=True))
    print("jobs " + json.dumps(per_job, sort_keys=True))
    metrics = tr.metrics()
    metrics["trace.overhead_ratio"] = {"value": traced.wall / plain.wall,
                                       "unit": "ratio"}
    _result(*_summary(passes), metrics)


def _profiled_run(jobs_mod, workload, seed, expected):
    from confspace.exactlinalg import FpElement
    job_list = jobs_mod.build(workload, seed)
    prof = cProfile.Profile()
    prof.enable()
    p = Pass(jobs_mod, job_list, expected, meter.Meter(None))
    prof.disable()
    fp_code = {(f.__code__.co_filename, f.__code__.co_firstlineno, f.__name__)
               for f in vars(FpElement).values() if hasattr(f, "__code__")}
    total = frac = fp = 0.0
    for func, (_, _, tottime, _, _) in pstats.Stats(prof).stats.items():
        total += tottime
        if os.path.basename(func[0]) == "fractions.py":
            frac += tottime
        elif func in fp_code:
            fp += tottime
    _report_jobs([p])
    _result(*_summary([p]), {
        "scalar.fraction_share": {"value": frac / total, "unit": "ratio"},
        "scalar.fp_share": {"value": fp / total, "unit": "ratio"},
    })


def _all(seed, seconds):
    """Every workload in its own interpreter, as a table."""
    cols = ("setup_s", "wall_s", "job_s.max", "peak_rss_mb")
    print("%-12s" % "workload" + "".join("%16s" % c for c in cols)
          + "%12s" % "fail_ratio")
    for w in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        m = res["metrics"]
        cells = "".join("%16s" % ("%.4f %s" % (m[c]["value"], m[c]["unit"]))
                        for c in cols)
        print("%-12s%s%12.4f" % (w, cells, res["failed"] / res["attempted"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", action="store_true",
                    help="one pass under cProfile: scalar time shares")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "confspace", "__init__.py")):
        print("error: no package sources at %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        _all(args.seed, args.seconds)
        return 0
    sys.path.insert(0, SRC)
    import jobs as jobs_mod
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    if args.profile:
        _profiled_run(jobs_mod, args.workload, args.seed, expected)
    elif args.trace:
        _traced_run(jobs_mod, args.workload, args.seed, expected)
    else:
        _timed_run(jobs_mod, args.workload, args.seed, args.seconds, expected)
    return 0


if __name__ == "__main__":
    sys.exit(main())
