"""Benchmark of the cavitysim ``sim`` recipes.

    python3 perfbench/run.py --workload gate-recipes --seed 1 --seconds 5 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` there,
never from an installed copy.  With ``--trace 0`` the run times set-up in
fresh processes, then starts one fresh process that runs passes over the
workload's invocation list until ``--seconds`` of pass time is measured, and
prints the end-to-end metrics as medians over the passes.  Pass times are
given in units of a fixed reference kernel timed between invocations (see
``one_pass.py``); the seconds they come from are printed and recorded too.  With ``--trace 1``
it runs one traced pass and prints the per-layer metrics.  The metric names
and units are those of ``BENCHMARK.json``.  The last line of standard output is
the result as one JSON object; each run's full record (samples, environment,
summary scalars of every output) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: fresh-process set-up samples per run; the median is reported
SETUP_SAMPLES = 3
#: a run must end within 180 s; the pass process gets what is left of this
RUN_BUDGET_S = 170.0

#: environment of the pass process.  On 2 vCPUs a second OpenBLAS thread
#: bought no wall time (gate-recipes took 21-24 s on two threads, 18-23 s on
#: one) but 1.6x the CPU time, and it made a pass depend on the second vCPU,
#: which the single-threaded reference kernel of ``speedprobe.py`` cannot see.
PASS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import cavitysim.cli; "
    "from cavitysim.device import default_config_text, load_params; "
    "load_params(default_config_text())"
)

#: per-layer values that must repeat exactly between traced runs
_DETERMINISTIC = (
    ".calls", ".residual_evals", ".solver_nfev", ".rhs_evals", ".iterations",
    ".steps", ".block_steps", ".points", ".process_calls", ".dim_max", ".warnings",
)


class BenchError(Exception):
    pass


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run budget exhausted")
    return left


def _setup_seconds(deadline: float) -> float:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, SRC],
        capture_output=True, text=True, timeout=_remaining(deadline),
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return elapsed


def _one_pass(workload: str, seed: int, trace: bool, seconds: float, deadline: float) -> dict:
    workdir = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    out = os.path.join(workdir, "pass.json")
    try:
        proc = subprocess.run(
            [
                sys.executable, os.path.join(HERE, "one_pass.py"),
                "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
                "--seconds", str(seconds), "--src", SRC, "--workdir", workdir, "--out", out,
            ],
            env=dict(os.environ, **PASS_ENV),
            capture_output=True, text=True, timeout=_remaining(deadline),
        )
        if proc.returncode != 0 or not os.path.isfile(out):
            raise BenchError(f"pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(out) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _check_determinism(workload: str, layers: dict) -> list:
    """Compare this run's deterministic counts with the previous traced run's."""
    counts = {k: v for k, v in layers.items() if k.endswith(_DETERMINISTIC)}
    path = os.path.join(OUT, f"counts-{workload}.json")
    problems = []
    if os.path.isfile(path):
        with open(path) as fh:
            previous = json.load(fh)
        problems = [
            f"{k}: {previous[k]} before, {counts.get(k)} now"
            for k in sorted(previous)
            if previous[k] != counts.get(k)
        ]
    with open(path, "w") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return problems


def _untraced(args, deadline):
    setup = [_setup_seconds(deadline) for _ in range(SETUP_SAMPLES)]
    measured = _one_pass(args.workload, args.seed, False, args.seconds, deadline)
    samples = {
        "setup_s": setup,
        "wall_refs": measured["wall_refs"],
        "cpu_refs": measured["cpu_refs"],
        "peak_rss_mb": [measured["peak_rss_mb"]],
        "infidelity": measured["infidelity"],
        # seconds as measured, and the reference time they are divided by
        "wall_s": measured["wall_s"],
        "cpu_s": measured["cpu_s"],
        "ref_s": measured["ref_s"],
    }
    values = {k: statistics.median(v) for k, v in samples.items() if None not in v}
    return measured, values, samples, []


def _traced(args, deadline):
    traced = _one_pass(args.workload, args.seed, True, 0.0, deadline)
    spans = {"invocations": traced.pop("invocations"), "spans": traced.pop("spans")}
    with open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump(spans, fh)
    layers = dict(traced.pop("layers"))
    layers["error_rate"] = traced["failed"] / traced["attempted"]
    problems = [f"no calls recorded in {name}" for name in traced["missed_layers"]]
    problems += _check_determinism(args.workload, layers)
    samples = {"traced_wall_s": traced["wall_s"]}
    return traced, layers, samples, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0, help="pass time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "cavitysim", "cli.py")) or not os.path.isfile(bench_file):
        print(f"error: no cavitysim sources under {SRC}", file=sys.stderr)
        return 2
    with open(bench_file) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    try:
        run = _traced if args.trace else _untraced
        measured, values, samples, problems = run(args, deadline)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    problems += [f"{k}: {'; '.join(v)}" for k, v in sorted(measured["failures"].items())]
    result = {
        "correct": not problems,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }
    env = dict(measured["env"], git_sha=_git_sha())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "samples": samples,
        "problems": problems,
        "summaries": measured["summaries"],
        "result": result,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"env: {json.dumps(env, sort_keys=True)}")
    for name, vals in samples.items():
        print(f"{name}: median {statistics.median(vals):.6g} over {len(vals)} sample(s)")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
