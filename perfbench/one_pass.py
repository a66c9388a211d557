"""Passes over a workload's invocation list, in a fresh process.

Run by ``run.py``; the result goes to ``--out`` as JSON.  Wall and CPU time
cover only the ``cli.main`` calls; the output checks run after the timed
loop.  Peak RSS is the high-water mark of this whole process, which is why
every run gets a process of its own.

Untraced passes run under a ``SpeedProbe``, which also gives their cost in
units of a fixed reference kernel (``speedprobe.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
import warnings

from speedprobe import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS, check_invocation


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _blas_threads() -> dict:
    """Thread count of every loaded OpenBLAS, queried through its C API."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _execute(cli, invocations, outroot, tracer) -> dict:
    """Run the invocation list once.

    Return the pass's wall and CPU time, each invocation's error (None when
    it ran) and, untraced, the same times in reference units.
    """
    errors = []
    probe = SpeedProbe() if tracer is None else contextlib.nullcontext()
    with probe:
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        for i, inv in enumerate(invocations):
            if tracer is not None:
                tracer.invocation = i
            argv = list(inv.argv) + ["--output", os.path.join(outroot, f"{i:02d}")]
            try:
                rc = cli.main(argv)
            except Exception as exc:  # NumericalError escapes main(); count it
                traceback.print_exc()
                errors.append(f"raised {type(exc).__name__}: {exc}")
            else:
                errors.append(None if rc == 0 else f"exit code {rc}")
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
    if tracer is not None:
        return {"wall": wall, "cpu": cpu, "errors": errors}
    # the probe's samples are not the program's time
    return {
        "wall": sum(probe.work_wall),
        "cpu": sum(probe.work_cpu),
        "errors": errors,
        "wall_refs": probe.wall_refs(),
        "cpu_refs": probe.cpu_refs(),
        "ref_s": probe.ref_s,
    }


def run_pass(cli, workload_name: str, seed: int, trace: bool, workdir: str, seconds: float) -> dict:
    """Execute the workload's invocation list until ``seconds`` are measured.

    ``cli`` is the ``cavitysim.cli`` module; ``cli.main`` is looked up on
    every call so that the traced wrapper is the one called.  A traced pass
    executes the list exactly once, so that its counts repeat.
    """
    workload = WORKLOADS[workload_name]
    invocations = workload.build(seed, workdir)
    tracer = None
    executions = []
    # warnings are recorded, not printed, in traced and untraced passes alike
    with workload.patch(), warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        if trace:
            tracer = Tracer()
            tracer.install()
        while not executions or (not trace and sum(e["wall"] for e in executions) < seconds):
            outroot = os.path.join(workdir, f"rep{len(executions)}")
            executions.append(dict(_execute(cli, invocations, outroot, tracer), outroot=outroot))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    labels = [inv.label.replace(workdir, "$WORKDIR") for inv in invocations]
    summaries, failures, infidelities, failed = {}, {}, [], 0
    for e in executions:
        fidelities = []
        for i, (inv, label, err) in enumerate(zip(invocations, labels, e["errors"])):
            if err is None:
                summary, fidelity, problems = check_invocation(inv, os.path.join(e["outroot"], f"{i:02d}"))
            else:
                summary, fidelity, problems = {}, None, [err]
            summaries.setdefault(label, summary)
            if problems:
                failed += 1
                failures.setdefault(label, problems)
            if fidelity is not None:
                fidelities.append(fidelity)
        # the largest 1 - F over the workload's fidelity outputs
        infidelities.append(max(1.0 - f for f in fidelities) if fidelities else None)

    result = {
        "wall_s": [e["wall"] for e in executions],
        "cpu_s": [e["cpu"] for e in executions],
        "infidelity": infidelities,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(invocations) * len(executions),
        "failed": failed,
        "failures": failures,
        "summaries": summaries,
        "env": environment(),
    }
    if tracer is None:
        result["wall_refs"] = [e["wall_refs"] for e in executions]
        result["cpu_refs"] = [e["cpu_refs"] for e in executions]
        result["ref_s"] = [r for e in executions for r in e["ref_s"]]
    else:
        first = executions[0]["outroot"]
        layers = tracer.layer_metrics()
        layers["cli.bytes_written"] = sum(
            os.path.getsize(os.path.join(d, f))
            for d, _dirs, files in os.walk(first)
            for f in files
        )
        layers["trace.spans"] = len(tracer.spans)
        # the difference of a traced and an untraced wall time is buried in
        # the run-to-run noise of a shared machine, so the overhead is the
        # span count times the measured cost of one wrapper
        layers["trace.overhead_s"] = len(tracer.spans) * tracer.seconds_per_span()
        result["layers"] = layers
        result["missed_layers"] = [n for n in workload.required if tracer.calls[n] == 0]
        result["invocations"] = labels
        result["spans"] = tracer.span_records()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=0.0, help="pass time to measure")
    ap.add_argument("--src", required=True, help="directory holding the cavitysim package")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import cavitysim.cli

    if not os.path.abspath(cavitysim.__file__).startswith(src + os.sep):
        print(f"cavitysim imported from {cavitysim.__file__}, not {src}", file=sys.stderr)
        return 2
    result = run_pass(cavitysim.cli, args.workload, args.seed, bool(args.trace), args.workdir, args.seconds)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
