"""One benchmark pass in a fresh process: run configs back to back.

    python3 bench/passrun.py --result R.json --out DIR [--trace] CFG...
    python3 bench/passrun.py --result R.json --setup-only CFG...

Imports `duffbench.cli`, parses every config (the set-up the caller
times, ending at the `ready` timestamp), then runs each config through
`duffbench.cli.main(["run", cfg, "--out", DIR/<index>-<method>])`, and writes
per-run exit codes and wall times, the pass wall time and the peak
resident memory to R.json. The reference kernel (bench/hostref.py) is
timed before each run and after the last; runs and kernel timings carry
their start in seconds from the start of the pass. With --trace, the layers are traced for the
whole pass. Needs `src` on PYTHONPATH; the caller makes it single
threaded through the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("configs", nargs="+", type=Path)
    args = parser.parse_args(argv)

    from duffbench import cli
    for path in args.configs:
        cli.Config.from_file(path)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        result.update(run_pass(cli, args.configs, args.out, args.trace))
    args.result.write_text(json.dumps(result))
    return 0


def run_pass(cli, configs, out, trace):
    import numpy as np

    import hostref

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer().install()
    runs = []
    ref = []
    start = time.perf_counter()
    for index, path in enumerate(configs):
        method = path.stem
        run_dir = f"{index:02d}-{method}"
        if tracer is not None:
            tracer.context = method
        gc.collect()  # the previous run's garbage is not this run's cost
        ref.append((time.perf_counter() - start, hostref.sample()))
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", str(path),
                                 "--out", str(out / run_dir)])
        except Exception:  # a crash is a failed run, not a failed pass
            traceback.print_exc()
            code = 1
        runs.append({"method": method, "dir": run_dir, "code": code,
                     "start": t0 - start,
                     "seconds": time.perf_counter() - t0})
    ref.append((time.perf_counter() - start, hostref.sample()))
    result = {
        "runs": runs,
        "ref": ref,
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans()
        result["eval_groups"] = tracer.eval_groups()
    return result


if __name__ == "__main__":
    sys.exit(main())
