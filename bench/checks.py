"""Output checks for one config run, and for a pass as a whole.

Every check here holds for every workload seed tried on unchanged
code. The one accuracy bound applies only to focus runs: the light
runs' token budgets make no accuracy claim.
"""

from __future__ import annotations

import hashlib
import math

COMMON = ("config_hash_int",)
STATE = ("rmse_u", "rmse_v", "nmse_u", "nmse_v")
FILTER_PARAMS = tuple(f"param_{p}_{s}" for p in ("k", "c", "k3")
                      for s in ("estimate", "percent_error"))
EXPECTED_METRICS = {
    "ukf": STATE + FILTER_PARAMS,
    "pf": STATE + FILTER_PARAMS,
    "sindy": ("residual_rel", "support_size")
    + tuple(f"param_{p}_{s}" for p in ("u", "v", "u^3", "f")
            for s in ("estimate", "percent_error")),
    "pinn-discovery": STATE + tuple(f"param_{p}_{s}" for p in ("c", "k", "k3")
                                    for s in ("estimate", "percent_error")),
    "pinn-enhanced": STATE + ("baseline_rmse_u", "baseline_rmse_v"),
    "pinn-forward": STATE + ("rel_rmse_u",),
    "pgnn": STATE + ("prior_rmse_u", "prior_rmse_v"),
    "gp-se": ("rmse_u", "nmse_u", "mean_std", "coverage_2sigma",
              "log_marginal_likelihood"),
    "gp-sdof": ("rmse_u", "nmse_u", "mean_std", "coverage_2sigma",
                "log_marginal_likelihood"),
    "node": ("rmse_u", "rmse_v", "rel_rmse_u", "one_step_loss"),
    "hnn": ("field_rel_rmse", "energy_drift", "train_loss"),
}
TRAINED = ("pinn-discovery", "pinn-enhanced", "pinn-forward", "pgnn", "node",
           "hnn")
SINDY_SUPPORT = {"f", "u", "u^3", "v"}
GP_SDOF_MIN_COVERAGE = 0.90  # acceptance criterion c09


class CheckFailure(Exception):
    """An output file is missing, malformed or holds a bad value."""


def read_table(path, columns):
    """Rows of a two-column CSV with the given header, as (str, float)."""
    try:
        lines = path.read_text().splitlines()
    except OSError as err:
        raise CheckFailure(f"{path.name}: {err}") from None
    if not lines or lines[0] != columns:
        raise CheckFailure(f"{path.name}: header is not '{columns}'")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        try:
            if len(cells) != 2:
                raise ValueError
            rows.append((cells[0], float(cells[1])))
        except ValueError:
            raise CheckFailure(f"{path.name}:{number}: malformed row "
                               f"'{line}'") from None
    return rows


def read_metrics(outdir):
    metrics = dict(read_table(outdir / "metrics.csv", "metric,value"))
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if bad:
        raise CheckFailure(f"non-finite metrics: {', '.join(bad)}")
    return metrics


def check_run(method, outdir, focus):
    """Problems with one run's outputs, as a list of messages."""
    try:
        metrics = read_metrics(outdir)
        missing = [k for k in EXPECTED_METRICS[method] + COMMON
                   if k not in metrics]
        if missing:
            raise CheckFailure(f"metrics.csv lacks {', '.join(missing)}")
        problems = []
        if method in TRAINED:
            losses = [v for _, v in read_table(outdir / "history.csv",
                                               "iter,loss")]
            if len(losses) < 2 or not all(map(math.isfinite, losses)):
                raise CheckFailure("history.csv: need >= 2 finite losses")
            if not losses[-1] < losses[0]:
                problems.append(f"final loss {losses[-1]:.6g} is not below "
                                f"the first {losses[0]:.6g}")
        if method == "sindy":
            support = {name for name, value in
                       read_table(outdir / "model.csv", "feature,coefficient")
                       if value != 0.0}
            if support != SINDY_SUPPORT:
                problems.append(f"SINDy support {sorted(support)}")
        if method == "gp-sdof" and focus:
            cover = metrics["coverage_2sigma"]
            if not cover >= GP_SDOF_MIN_COVERAGE:
                problems.append(f"gp-sdof coverage {cover:.4f}")
        return problems
    except CheckFailure as err:
        return [str(err)]


def csv_digests(outdir):
    """sha256 of every CSV a run wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.glob("*.csv"))}
