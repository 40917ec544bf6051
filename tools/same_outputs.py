"""Check that two source trees write byte-identical CSVs.

usage: python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE

Runs, in each tree, every shipped `configs/*.cfg` and the seed-7 config
of every method in both benchmark workloads (the text of
`bench/workloads.config_text(W, method, 7)`, read from PARENT_TREE),
each through `duffbench run` in a fresh single-threaded interpreter
that imports the tree's `src/`. It prints every run's exit code in both
trees, then every CSV that differs or exists in one tree only
(`manifest.txt`, which holds the run time, is not compared), and last
each tree's `wc -l src/**/*.py`. A run that exits non-zero or prints
anything to stderr (a RuntimeWarning, say) in either tree counts as
differing, and the first line it printed is shown. Exits 1 if any run
differs, else 0.
Nothing is written inside either tree.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 7
RUN = ("import sys; from duffbench.cli import main; "
       "sys.exit(main(sys.argv[1:]))")


def load_workloads(tree):
    sys.dont_write_bytecode = True  # leave the tree's bench/ untouched
    spec = importlib.util.spec_from_file_location(
        "same_outputs_workloads", tree / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def configs(parent, scratch):
    """[(name, config path)]: the shipped configs, then the workloads'."""
    runs = [(f"configs/{p.name}", p)
            for p in sorted((parent / "configs").glob("*.cfg"))]
    workloads = load_workloads(parent)
    for workload in workloads.WORKLOADS:
        for method in workloads.METHODS:
            path = scratch / f"{workload}-{method}.cfg"
            path.write_text(workloads.config_text(workload, method, SEED))
            runs.append((f"{workload}/{method}", path))
    return runs


def start(tree, config, out):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen(
        [sys.executable, "-c", RUN, "run", str(config), "--out", str(out)],
        env=env, cwd=out.parent, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)


def csvs(out):
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")}


def source_lines(tree):
    """What `wc -l src/**/*.py` counts: newlines in every module."""
    return sum(p.read_bytes().count(b"\n")
               for p in (tree / "src").rglob("*.py"))


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    parent, change = (Path(a).resolve() for a in argv)
    differ = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        scratch = Path(tmp)
        n_csv = 0
        for i, (name, config) in enumerate(configs(parent, scratch)):
            outs = [scratch / side / str(i) for side in ("parent", "change")]
            for out in outs:
                out.parent.mkdir(exist_ok=True)
            # the two trees run side by side
            procs = [start(tree, config, out)
                     for tree, out in zip((parent, change), outs)]
            errs = [proc.communicate()[1] for proc in procs]
            codes = [proc.returncode for proc in procs]
            a, b = (csvs(out) if out.exists() else {} for out in outs)
            n_csv += len(a)
            bad = sorted(str(k) for k in a.keys() | b.keys()
                         if a.get(k) != b.get(k))
            mark = ("FAILED" if any(codes) else "DIFFERS" if bad
                    else "PRINTS" if any(errs) else "same")
            differ += mark != "same"
            print(f"{name}: exit {codes[0]} / {codes[1]}, {len(a)} CSVs, "
                  f"{mark}" + "".join(f"\n  differs: {k}" for k in bad)
                  + "".join(f"\n  stderr ({side}): {err.splitlines()[0]}"
                            for side, err in zip(("parent", "change"), errs)
                            if err),
                  flush=True)
        lines = " / ".join(str(source_lines(t)) for t in (parent, change))
        print(f"{n_csv} CSVs compared; {differ} runs differ, fail or print; "
              f"wc -l src/**/*.py {lines}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
