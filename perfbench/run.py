"""Benchmark of the qfk command line and its dense oracle.

    python3 perfbench/run.py --workload {analytic,matelem,oracle} --seed S --seconds T --trace {0,1}

Run from the root of a qfk checkout; the program is imported from ./src.
One process runs the workload's fixed job list in whole rounds until T
seconds have passed, checks every job's output, and prints one JSON line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
End-to-end timings are rescaled to a reference host speed by a fixed probe
timed right after each job (hostspeed.py).
See perfbench/README.md for the workloads, the metrics and reference figures.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: the default threading makes small kernels erratic.  This
# must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
END_TO_END = ("setup_s", "jobs_per_s", "job_p50_ms", "peak_rss_mb")
UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("analytic", "matelem", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program(root):
    """Put ./src first on the path and make sure qfk comes from there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qfk", "cli.py")):
        sys.exit(f"error: {src}/qfk not found; run from the root of a qfk checkout")
    sys.path.insert(0, src)
    import qfk

    if not os.path.abspath(qfk.__file__).startswith(src + os.sep):
        sys.exit(f"error: qfk imported from {qfk.__file__}, not from {src}")


def run_job(job, index, tracer=None):
    """Time one job, then the host-speed probe; return (seconds, probe seconds,
    output).  Outputs are (rc, stdout, stderr) for CLI jobs, the reduced result
    for library jobs, or the exception raised."""
    import hostspeed
    import qfk.cli

    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.current_job = index
    t0 = time.perf_counter()
    try:
        if job.argv is not None:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                raw = qfk.cli.main(job.argv)
        else:
            raw = job.call()
    except Exception as exc:  # a traceback out of the program fails the job, not the run
        raw = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.current_job = None
    probe = hostspeed.probe()
    if isinstance(raw, Exception):
        return dt, probe, raw
    if job.argv is not None:
        return dt, probe, (raw, stdout.getvalue(), stderr.getvalue())
    return dt, probe, job.reduce(raw)


def check(job, out):
    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    try:
        return job.check(out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]


def set_up(workload, seed, workdir):
    """Generate the job list and run one untimed warm-up job per job shape,
    each followed by a probe.  Return the jobs, the wall seconds of the set-up
    without its probes, and the probe times."""
    import workloads

    t0 = time.perf_counter()
    jobs = workloads.build(workload, seed, workdir)
    wall, probes, seen = time.perf_counter() - t0, [], set()
    for i, job in enumerate(jobs):
        if job.shape not in seen:
            seen.add(job.shape)
            dt, probe, _ = run_job(job, i)
            wall += dt
            probes.append(probe)
    return jobs, wall, probes


def tail_percentile(times):
    """Highest whole percentile with at least ten jobs beyond it, or None."""
    n = len(times)
    if n < 40:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(times, n=100)[p - 1]


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    import_program(root)
    import hostspeed
    import tracing
    import workloads  # noqa: F401  (imported here so that its import counts in setup_s)

    t_import = time.perf_counter() - T_START
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    outdir = os.path.join(HERE, "_out")
    os.makedirs(outdir, exist_ok=True)
    try:
        setups, setup_probes = [], []
        for _ in range(SETUP_REPEATS):
            jobs, wall, probes = set_up(args.workload, args.seed, workdir)
            setups.append(wall)
            setup_probes += probes

        tracer = tracing.Tracer().install() if args.trace else None
        results, round_rates, round_p50s = [], [], []
        t_begin = time.perf_counter()
        while not round_rates or time.perf_counter() - t_begin < args.seconds:
            start = len(results)
            for i, job in enumerate(jobs):
                results.append((i,) + run_job(job, i, tracer))
            times = [hostspeed.scale(dt, p) for _, dt, p, _ in results[start:]]
            round_rates.append(len(jobs) / sum(times))
            round_p50s.append(statistics.median(times))
        rounds = len(round_rates)
        if tracer is not None:
            tracer.uninstall()

        failed, correct, problems = 0, True, []
        for i, _, _, out in results:
            job = jobs[i]
            bad = check(job, out)
            if bad:
                failed += 1
                if not (job.known_fault and all(b.startswith(job.known_fault) for b in bad)):
                    correct = False
                    problems.append(f"{job.shape} (job {i}): {'; '.join(bad)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [dt for _, dt, _, _ in results]
    job_seconds = sum(times)
    if args.trace:
        values = tracing.per_layer_metrics(tracer, len(results), job_seconds)
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in values.items()}
        tracer.write(os.path.join(outdir, f"trace-{args.workload}.json"))
    else:
        values = {
            "setup_s": hostspeed.scale(t_import + statistics.median(setups), statistics.median(setup_probes)),
            # each round is one pass over the fixed list; taking the median
            # over rounds keeps a burst that spans a few rounds from moving
            # the run's figures
            "jobs_per_s": statistics.median(round_rates),
            "job_p50_ms": 1e3 * statistics.median(round_p50s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END}

    by_shape = {}
    for i, dt, _, _ in results:
        by_shape.setdefault(jobs[i].shape, []).append(dt)
    tail = tail_percentile(times)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": rounds,
        "jobs_per_round": len(jobs), "import_s": t_import, "setup_repeats_s": setups,
        "probe_ms": {"reference": 1e3 * hostspeed.REFERENCE_S, "setup": 1e3 * statistics.median(setup_probes),
                     "jobs": 1e3 * statistics.median(p for _, _, p, _ in results)},
        # the same figures in plain wall time, not rescaled by the probe
        "wall": {"setup_s": t_import + statistics.median(setups),
                 "jobs_per_s": len(times) / job_seconds, "job_p50_ms": 1e3 * statistics.median(times)},
        "round_rates": round_rates, "round_p50_ms": [1e3 * t for t in round_p50s],
        "tail": None if tail is None else {"percentile": tail[0], "ms": 1e3 * tail[1]},
        "shape_median_ms": {s: 1e3 * statistics.median(v) for s, v in sorted(by_shape.items())},
        "shape_count": {s: len(v) // rounds for s, v in sorted(by_shape.items())},
        "problems": problems[:20], "metrics": values,
    }
    if args.workload == "matelem":
        def share(js):
            return sum(j.info["repeats"] for j in js) / sum(j.info["intervals"] for j in js)
        details["repeated_pair_share"] = {
            "all": share(jobs),
            **{v: share([j for j in jobs if j.info["values"] == v]) for v in ("smooth", "palette")},
        }
    with open(os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(details, fh, indent=1)
    for line in problems[:5]:
        print(f"check failed: {line}", file=sys.stderr)

    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
