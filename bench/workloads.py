"""Workload definitions: which configs a pass runs, and at what budget.

Every workload runs every method in every pass, so every end-to-end
metric exists on every workload. What differs is where the work goes:
the workload's *focus* methods run once per pass at the budgets below
on the paper's 1024-sample record, and every other method runs a
*light* config, on the record's first 128 samples with a token budget,
LIGHT_CYCLES times per pass. Light runs keep each layer on the path of every
workload without taking its time.

The workload seed becomes `[experiment] seed`; the forcing
`phase_seed` stays 101, so the ground-truth record is the paper's.
Shorter training comes only from smaller iteration counts in the
generated configs: the same code path as the shipped configs.
"""

from __future__ import annotations

PHASE_SEED = 101
LIGHT_N = 128
# Light runs last tens of milliseconds; four per pass give their
# medians enough samples to hold still from run to run.
LIGHT_CYCLES = 4

# Run order inside each group of a pass. `sindy` is timed only as part
# of `wall_s` (its run is too short to resolve on its own); it is there
# for its output check.
METHODS = ("pinn-discovery", "pinn-enhanced", "pinn-forward", "pgnn", "hnn",
           "node", "ukf", "pf", "sindy", "gp-se", "gp-sdof")
TIMED = tuple(m for m in METHODS if m != "sindy")

FOCUS = {
    # Few tape nodes over large arrays (numpy kernels and optimizer
    # evaluations), plus the methods that train no network (filter step
    # loops, scalar forcing, Python-loop Cholesky solves).
    "train-wide-estimators": {
        "pinn-discovery": {"n_obs": 256, "adam_iters": 80, "adam_lr": 0.001,
                           "lbfgs_iters": 15},
        "pinn-enhanced": {"stride": 16, "adam_iters": 20, "adam_lr": 0.001,
                          "lbfgs_iters": 5},
        "pinn-forward": {"windows": 12, "margin": 6, "adam_iters": 8,
                         "adam_lr": 0.002, "lbfgs_iters": 5},
        "pgnn": {"stride": 1, "adam_iters": 25, "adam_lr": 0.002,
                 "lbfgs_iters": 5},
        "hnn": {"u0": 1.0, "adam_iters": 80, "adam_lr": 0.003,
                "lbfgs_iters": 12, "step": 0.005, "steps": 1000},
        "ukf": {"noise_ratio": 0.085, "k0": 1.0, "c0": 0.5, "k30": 40.0},
        "pf": {"noise_ratio": 0.085, "particles": 1000},
        "gp-se": {"stride": 12, "noise_ratio": 0.085, "restarts": 1,
                  "steps": 200},
        "gp-sdof": {"stride": 12, "noise_ratio": 0.085, "restarts": 1,
                    "steps": 200},
    },
    # Thousands of tape nodes over small arrays: per-node Python overhead
    # (the 64-step refinement's 50 L-BFGS iterations are fixed in the
    # program and dominate).
    "train-deep": {
        "node": {"adam_iters": 60, "adam_lr": 0.003, "lbfgs_iters": 10,
                 "refine_iters": 3},
    },
}

LIGHT = {
    "pinn-discovery": {"n_obs": 32, "adam_iters": 10, "lbfgs_iters": 3},
    "pinn-enhanced": {"stride": 16, "adam_iters": 5, "lbfgs_iters": 3},
    "pinn-forward": {"windows": 2, "margin": 6, "adam_iters": 5,
                     "lbfgs_iters": 3},
    "pgnn": {"stride": 1, "adam_iters": 5, "lbfgs_iters": 3},
    "hnn": {"u0": 1.0, "adam_iters": 10, "lbfgs_iters": 3, "steps": 100},
    "node": {"adam_iters": 10, "lbfgs_iters": 3, "refine": "false"},
    "ukf": {},
    "pf": {"particles": 100},
    "gp-se": {"restarts": 1, "steps": 10},
    "gp-sdof": {"restarts": 1, "steps": 10},
}

# sindy runs the shipped config on the full record in every workload
SINDY = {"threshold": 0.1, "ridge": 0.0}

WORKLOADS = tuple(FOCUS)


def metric_name(method):
    """End-to-end metric holding one method's wall time."""
    return method.replace("-", "_") + "_s"


def is_focus(workload, method):
    return method == "sindy" or method in FOCUS[workload]


def config_text(workload, method, seed):
    """INI text of one method's config in a workload, for one seed."""
    focus = is_focus(workload, method)
    if method == "sindy":
        section = SINDY
    else:
        section = FOCUS[workload][method] if focus else LIGHT[method]
    lines = ["[experiment]", f"method = {method}", f"seed = {seed}", "",
             "[simulator]", f"phase_seed = {PHASE_SEED}"]
    if not focus:
        lines.append(f"n = {LIGHT_N}")
    lines += ["", f"[{method}]"]
    lines += [f"{key} = {value}" for key, value in section.items()]
    return "\n".join(lines) + "\n"


def generate(workload, seed, directory):
    """Write one config per method; returns a pass's run order as
    [(method, path)]: LIGHT_CYCLES cycles through the light configs, then the
    focus configs. Light runs go first so that none follows a heavy
    run in the same process."""
    if workload not in FOCUS:
        raise ValueError(f"unknown workload '{workload}'; "
                         f"choose from {', '.join(WORKLOADS)}")
    light, focus = [], []
    for method in METHODS:
        path = directory / f"{method}.cfg"
        path.write_text(config_text(workload, method, seed))
        (focus if is_focus(workload, method) else light).append(
            (method, path))
    return light * LIGHT_CYCLES + focus
