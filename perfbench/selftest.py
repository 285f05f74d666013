"""Self-test of the benchmark's checks: every planted error must be caught.

    python3 perfbench/selftest.py        (from the root of a qfk checkout)

Runs each job of every workload once (seed 0), confirms that its check passes
on the real output (or fails with nothing but the job's known fault), then
plants wrong values in the output and confirms that the check reports a new
failure: a perturbed matrix entry or ladder error, a wrong beta, a flipped
class flag or verdict, and a wrong exit code.  Exits 1 if any plant goes
unnoticed or any real output fails unexpectedly.
"""

import json
import os
import shutil
import sys
from collections import Counter

import run  # pins BLAS threads before numpy loads

run.import_program(os.getcwd())

import workloads  # noqa: E402


def _bump(x):
    return x + 1e-3 * (1.0 + abs(x))


def _with_stdout(out, text):
    return (out[0], text, out[2])


def _csv_edit(out, row, col, fn):
    """Apply fn to one numeric CSV field; row counts data rows, negative from the end."""
    lines = out[1].splitlines()
    data = [i for i, ln in enumerate(lines[1:], 1) if ln and not ln.startswith("#")]
    i = data[row]
    fields = lines[i].split(",")
    fields[col] = repr(fn(float(fields[col])))
    lines[i] = ",".join(fields)
    return _with_stdout(out, "\n".join(lines) + "\n")


def _verdict_edit(out):
    lines = out[1].splitlines()
    verdict = json.loads(lines[-1][2:])
    key = next(iter(verdict))
    value = verdict[key]
    verdict[key] = (not value) if isinstance(value, bool) else _bump(value) * 1e6
    lines[-1] = "# " + json.dumps(verdict)
    return _with_stdout(out, "\n".join(lines) + "\n")


def _report_edit(out, what):
    report = json.loads(out[1])
    coef = report.get("coefficient")
    if what == "beta":
        coef["beta"] = 1.0 if coef["beta"] is None else _bump(coef["beta"])
    elif coef is not None:
        coef["quasicontractive"] = not coef["quasicontractive"]
    else:
        report["flow"]["passed"] = False
    return _with_stdout(out, json.dumps(report, indent=2))


def plants(job, out):
    """(name, planted output) pairs for the job's kind of output."""
    if job.kind.startswith("dense"):
        if job.kind == "dense_scalar":
            return [("residual", out + 1e-9)]
        bad = out.copy()
        bad[0, 0] += 1e-6
        return [("matrix entry", bad)]
    # a known-fault job's exit code is already wrong; 2 is wrong for every job
    rc = 2 if job.known_fault else {0: 1, 1: 0}.get(out[0], 0)
    planted = [("exit code", (rc, out[1], out[2]))]
    if job.kind == "check":
        if json.loads(out[1]).get("coefficient") is not None:
            planted.append(("beta", _report_edit(out, "beta")))
        planted.append(("class flag", _report_edit(out, "flag")))
    elif job.kind == "csv":
        planted.append(("matrix entry", _csv_edit(out, 0, -2, _bump)))
        if out[1].rstrip().splitlines()[-1].startswith("# "):
            planted.append(("verdict", _verdict_edit(out)))
    elif job.kind == "ladder":
        planted.append(("ladder error", _csv_edit(out, -1, 2, lambda e: 3 * e + 1e-6)))
    return planted


def new_failures(job, out):
    bad = run.check(job, out)
    return [b for b in bad if not (job.known_fault and b.startswith(job.known_fault))]


def main():
    missed, unexpected = [], []
    caught = Counter()
    for workload in workloads.WORKLOADS:
        workdir = os.path.join(run.HERE, "_work", f"selftest-{workload}-{os.getpid()}")
        try:
            jobs = workloads.build(workload, 0, workdir)
            for i, job in enumerate(jobs):
                _, _, out = run.run_job(job, i)
                real = new_failures(job, out)
                if real:
                    unexpected.append(f"{workload}/{job.shape}: {real}")
                    continue
                for name, planted in plants(job, out):
                    if new_failures(job, planted):
                        caught[(workload, job.kind, name)] += 1
                    else:
                        missed.append(f"{workload}/{job.shape}: planted {name} not caught")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for (workload, kind, name), k in sorted(caught.items()):
        print(f"caught  {workload:9s} {kind:13s} {name:13s} x{k}")
    for line in unexpected:
        print(f"FAILED  real output: {line}")
    for line in missed:
        print(f"MISSED  {line}")
    print("selftest:", "PASS" if not (missed or unexpected) else "FAIL")
    return 1 if (missed or unexpected) else 0


if __name__ == "__main__":
    sys.exit(main())
