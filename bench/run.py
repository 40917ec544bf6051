"""duffbench benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload train-deep --seed 1 --seconds 56 --trace 0

Run from anywhere; the repository root is this file's parent's parent,
and the program is imported from its `src` directory. The command
generates one INI config per method from the seed (bench/workloads.py),
times the set-up of fresh interpreters, then runs passes over the
configs, each in a fresh single-threaded subprocess, as many as bring
the run closest to the measuring time (at least two). Every run's
outputs are checked (bench/checks.py) and every CSV must be
byte-identical across the passes. Every end-to-end time is divided by
the host's slowness, timed with a reference kernel around it
(bench/hostref.py). Outputs go to a temporary
directory under `.bench_tmp/` that is removed at the end; nothing is
written to `results/`.

With --trace 0 the end-to-end metrics are printed; with --trace 1 one
untraced and at least two traced passes give the per-layer metrics
(bench/tracing.py). The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import hostref
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 7
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
END_TO_END_UNITS.update({workloads.metric_name(m): "s"
                         for m in workloads.TIMED})


class BenchError(Exception):
    """The benchmark could not measure: missing program, crashed child."""


def child_env():
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                          else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(args, result_path, deadline):
    """Run bench/passrun.py; returns (its result, monotonic spawn time)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a required pass")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "passrun.py"),
             "--result", str(result_path), *args],
            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("a pass did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"passrun exited with code {proc.returncode}")
    return json.loads(result_path.read_text()), started


def normalise(runs, ref):
    """Give each timed run `norm_s`: its seconds at the reference speed.

    `ref` holds (start, kernel timings) pairs: ref[i] is taken just
    before run i and ref[i + 1] just after it. A run's time is divided
    by the host's slowness (bench/hostref.py) over those two and every
    other kernel timing that starts within the run's own duration of
    it, before or after. The host drifts over seconds, so a long run
    is set against as long a stretch of the host's speed as there is
    around it, and a short run against the timings next to it.
    """
    for i, run in enumerate(runs):
        lo = run["start"] - run["seconds"]
        hi = run["start"] + 2.0 * run["seconds"]
        near = [t for j, (at, times) in enumerate(ref)
                if j in (i, i + 1) or lo <= at <= hi for t in times]
        run["norm_s"] = run["seconds"] / hostref.factor(near)


def plan_traced(index):
    """Trace schedule: untraced, traced, traced, then alternate."""
    return index in (1, 2) or (index > 2 and index % 2 == 0)


def run_passes(config_paths, seconds, trace, tmp, deadline):
    """Set-up samples and pass results, with each pass's output dir."""
    cfgs = [str(p) for p in config_paths]
    setup = []
    origin = time.monotonic()
    ref = [(0.0, hostref.sample())]
    for i in range(SETUP_SPAWNS):
        result, started = spawn(["--setup-only", *cfgs],
                                tmp / f"setup{i}.json", deadline)
        setup.append({"start": started - origin,
                      "seconds": result["ready"] - started})
        ref.append((time.monotonic() - origin, hostref.sample()))
    normalise(setup, ref)
    passes = []
    start = time.monotonic()
    minimum = 3 if trace else 2
    while True:
        index = len(passes)
        traced = trace and plan_traced(index)
        out = tmp / f"pass{index}"
        args = ["--out", str(out), *(["--trace"] if traced else []), *cfgs]
        result, _ = spawn(args, tmp / f"pass{index}.json", deadline)
        result["traced"] = traced
        normalise(result["runs"], result["ref"])
        passes.append((result, out))
        if len(passes) < minimum:
            continue
        # stop where the run's length comes closest to `seconds`
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall_s"] for r, _ in passes)
        if elapsed + typical / 2 > seconds \
                or time.monotonic() + 1.5 * typical > deadline:
            return setup, passes


def score(workload, passes):
    """(attempted, failed, problems) over every config run of every pass.

    A run fails when it exits non-zero, when one of its outputs fails a
    check, or when its CSVs differ from those of the method's first run
    (every run of a method shares its config, so the bytes must match).
    """
    attempted = failed = 0
    problems = []
    reference = {}
    for index, (result, out) in enumerate(passes):
        for run in result["runs"]:
            method = run["method"]
            attempted += 1
            if run["code"] != 0:
                issues = [f"exit code {run['code']}"]
            else:
                issues = checks.check_run(
                    method, out / run["dir"],
                    workloads.is_focus(workload, method))
                digests = checks.csv_digests(out / run["dir"])
                if not digests:
                    issues.append("wrote no CSV")
                first = reference.setdefault(method, digests)
                differ = sorted(k for k in set(digests) | set(first)
                                if digests.get(k) != first.get(k))
                if differ:
                    issues.append("CSVs differ from the first run: "
                                  + ", ".join(differ))
            failed += bool(issues)
            problems += [f"pass {index} {run['dir']}: {msg}" for msg in issues]
    return attempted, failed, problems


def end_to_end(setup, passes, key="norm_s"):
    """Each metric's samples over the run; the reported value is their
    median. Times are normalised to the reference speed (`norm_s`) or,
    with key="seconds", as the clock read them. A pass's `wall_s` is
    the sum of its runs, without the reference kernel's timings."""
    untraced = [r for r, _ in passes if not r["traced"]]
    samples = {
        "setup_s": [s[key] for s in setup],
        "wall_s": [sum(run[key] for run in r["runs"]) for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    for method in workloads.TIMED:
        samples[workloads.metric_name(method)] = [
            run[key] for r in untraced for run in r["runs"]
            if run["method"] == method]
    return samples


def per_layer(passes):
    """Per-layer metrics (medians over traced passes) and count problems."""
    traced = [r["layers"] for r, _ in passes if r["traced"]]
    problems = [f"count {k} differs between traced passes: "
                f"{[t[k] for t in traced]}"
                for k in tracing.EXACT if len({t[k] for t in traced}) > 1]
    values = {k: statistics.median(t[k] for t in traced)
              for k in tracing.UNITS}
    walls = [(sum(run["norm_s"] for run in r["runs"]), r["traced"])
             for r, _ in passes]
    values["trace.overhead_frac"] = (
        statistics.median(w for w, t in walls if t)
        / statistics.median(w for w, t in walls if not t) - 1.0)
    units = dict(tracing.UNITS, **{"trace.overhead_frac": "ratio"})
    return {k: {"value": v, "unit": units[k]}
            for k, v in values.items()}, problems


def host_info(first_pass):
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
        except OSError:  # no git on this host
            proc = None
        if proc is not None and proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": first_pass["python"], "numpy": first_pass["numpy"],
            "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "src_py_lines": lines}


def print_trace_tables(passes):
    result = next(r for r, _ in passes if r["traced"])
    print("spans of the first traced pass: method name calls total_s self_s")
    for method, name, calls, total, self_s in result["spans"]:
        print(f"  span {method} {name} {calls} {total:.6f} {self_s:.6f}")
    print("loss+grad evaluations: closure method fwd_nodes bwd_nodes "
          "evals p50_ms")
    for closure, method, fwd, bwd, count, p50 in result["eval_groups"]:
        print(f"  eval {closure} {method} {fwd} {bwd} {count} {p50:.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "duffbench" / "cli.py").is_file():
        print(f"error: no duffbench sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                dir=ROOT / ".bench_tmp"))
    try:
        (tmp / "configs").mkdir()
        configs = workloads.generate(args.workload, args.seed,
                                     tmp / "configs")
        setup, passes = run_passes([p for _, p in configs], args.seconds,
                                   bool(args.trace), tmp, deadline)
        attempted, failed, problems = score(args.workload, passes)
        if args.trace:
            metrics, count_problems = per_layer(passes)
            problems += count_problems
        else:
            samples = end_to_end(setup, passes)
            metrics = {k: {"value": statistics.median(v),
                           "unit": END_TO_END_UNITS[k]}
                       for k, v in samples.items()}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass

    print("host " + json.dumps(host_info(passes[0][0])))
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"traced {sum(r['traced'] for r, _ in passes)} "
          f"attempted {attempted} failed {failed} "
          f"failed_frac {failed / attempted:.4f}")
    for msg in problems:
        print(f"check failed: {msg}")
    if args.trace:
        print_trace_tables(passes)
    else:
        for name, values in samples.items():
            print(f"samples {name} " + " ".join(f"{v:.6g}" for v in values))
        for name, values in end_to_end(setup, passes, "seconds").items():
            print(f"clock {name} {statistics.median(values)!r}")
        factors = [run["seconds"] / run["norm_s"]
                   for r, _ in passes for run in r["runs"]]
        print("host slowness: " + " ".join(
            f"{q:.3f}" for q in statistics.quantiles(factors, n=4)))
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
