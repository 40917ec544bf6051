"""Per-layer tracing that wraps duffbench's public functions from outside.

Nothing inside `src/` is instrumented. `Tracer.install()` replaces each
listed function with a timing wrapper in *every* duffbench module that
holds a binding to it (so `nk.backward`, `from .duffing import
multisine_force` and the like are all covered), and on classes for
methods. Spans are kept in memory as totals per (method being run,
span name); a span's self time is its duration minus the time its
direct child spans cover. Bookkeeping that is not part of the traced
program (counting tape nodes and bytes) is excluded from every
enclosing span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute or Class.method, span name)
SPANS = (
    ("duffbench.numkit.linalg", "cholesky", "linalg.cholesky"),
    ("duffbench.numkit.linalg", "solve_lower", "linalg.solve"),
    ("duffbench.numkit.linalg", "solve_upper", "linalg.solve"),
    ("duffbench.nets", "fit_arrays", "nets.fit_arrays"),
    ("duffbench.nets", "mlp_predict", "nets.mlp_predict"),
    ("duffbench.nets", "save_loss_history", "cli.io"),
    ("duffbench.pinn", "run_equation_discovery",
     "pinn.run_equation_discovery"),
    ("duffbench.pinn", "run_enhanced_learning", "pinn.run_enhanced_learning"),
    ("duffbench.pinn", "run_forward_model", "pinn.run_forward_model"),
    ("duffbench.pinn", "PinnProblem.fit", "pinn.fit"),
    ("duffbench.pinn", "PinnProblem.predict", "pinn.predict"),
    ("duffbench.pgnn", "run_guided", "pgnn.run_guided"),
    ("duffbench.pgnn", "guided_train", "pgnn.guided_train"),
    ("duffbench.pgnn", "ResidualNet.correction", "pgnn.correction"),
    ("duffbench.neural_ode", "train_k1_predictor",
     "neural_ode.train_k1_predictor"),
    ("duffbench.neural_ode", "node_train", "neural_ode.node_train"),
    ("duffbench.neural_ode", "multistep_refine", "neural_ode.refine"),
    ("duffbench.neural_ode", "rollout", "neural_ode.rollout"),
    ("duffbench.neural_ode", "hnn_train", "neural_ode.hnn_train"),
    ("duffbench.neural_ode", "integrate_hamiltonian",
     "neural_ode.integrate_hamiltonian"),
    ("duffbench.neural_ode", "HamiltonianNet.grads", "neural_ode.hnn_grads"),
    ("duffbench.filters", "run_ukf", "filters.run_ukf"),
    ("duffbench.filters", "run_pf", "filters.run_pf"),
    ("duffbench.filters", "ukf_step", "filters.ukf_step"),
    ("duffbench.filters", "pf_step", "filters.pf_step"),
    ("duffbench.filters", "systematic_resample", "filters.resample"),
    ("duffbench.filters", "FilterResult.to_csv", "cli.io"),
    ("duffbench.gp", "fit", "gp.fit"),
    ("duffbench.gp", "GpModel.predict", "gp.predict"),
    ("duffbench.duffing", "simulate", "duffing.simulate"),
    ("duffbench.duffing", "multisine_force", "duffing.multisine_force"),
    ("duffbench.duffing", "add_noise", "duffing.add_noise"),
    ("duffbench.duffing", "subsample", "duffing.subsample"),
    ("duffbench.dictionary", "build_library", "dictionary.build_library"),
    ("duffbench.dictionary", "stlsq", "dictionary.stlsq"),
    ("duffbench.dictionary", "SparseCoefficients.to_csv", "cli.io"),
    ("duffbench.cli", "run_experiment", "cli.run_experiment"),
    ("duffbench.cli", "write_csv", "cli.io"),
    ("duffbench.cli", "write_metrics", "cli.io"),
    ("duffbench.cli", "write_manifest", "cli.io"),
)

# counts that must repeat exactly between traced passes of one seed
EXACT = ("tape.fwd_nodes_per_eval", "tape.bwd_nodes_per_eval",
         "tape.evals", "duffing.multisine_force_calls", "nets.lbfgs_evals",
         "nets.lbfgs_steps", "duffing.simulate_calls", "linalg.cholesky_calls",
         "linalg.solve_calls", "gp.lml_evals", "filters.steps")

# per-layer metric -> unit; `trace.overhead_frac` is added by the caller,
# which alone sees untraced passes
UNITS = {
    "tape.forward_s": "s", "tape.backward_s": "s", "tape.evals": "count",
    "tape.fwd_nodes_per_eval": "count", "tape.bwd_nodes_per_eval": "count",
    "tape.mb_per_eval": "MB",
    "nets.eval_ms.p50": "ms", "nets.eval_ms.p99": "ms", "nets.adam_s": "s",
    "nets.adam_update_s": "s", "nets.lbfgs_s": "s",
    "nets.lbfgs_update_s": "s", "nets.lbfgs_evals": "count",
    "nets.lbfgs_steps": "count", "nets.lbfgs_accept_ratio": "ratio",
    "pinn.self_s": "s", "pgnn.self_s": "s",
    "neural_ode.node_train_s": "s", "neural_ode.train_k1_s": "s",
    "neural_ode.rollout_s": "s", "neural_ode.hnn_train_s": "s",
    "neural_ode.integrate_hamiltonian_s": "s",
    "duffing.simulate_s": "s", "duffing.simulate_calls": "count",
    "duffing.multisine_force_s": "s",
    "duffing.multisine_force_calls": "count",
    "filters.ukf_step_s": "s", "filters.pf_step_s": "s",
    "filters.steps": "count", "filters.resample_ratio": "ratio",
    "gp.fit_s": "s", "gp.lml_evals": "count", "gp.lml_ms.p50": "ms",
    "gp.predict_s": "s",
    "linalg.cholesky_s": "s", "linalg.cholesky_calls": "count",
    "linalg.solve_s": "s", "linalg.solve_calls": "count",
    "dictionary.stlsq_s": "s",
    "cli.io_s": "s", "cli.self_s": "s",
}


def _resolve(qualname, module):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span totals and exact counters for one process."""

    def __init__(self):
        self.stack = []  # frames: [name, start, covered by children, paused]
        # keyed by (method being run, span name)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.samples = defaultdict(list)
        self.counts = defaultdict(int)
        self.paused = 0.0
        self.context = ""
        self._last_nodes = (0, 0)
        self._saved = []

    # -- spans --------------------------------------------------------------

    def _exit(self, frame, sample_key=None):
        end = time.perf_counter()
        self.stack.pop()
        key = (self.context, frame[0])
        duration = end - frame[1] - (self.paused - frame[3])
        self.calls[key] += 1
        self.total[key] += duration
        self.self_time[key] += duration - frame[2]
        if sample_key is not None:
            self.samples[sample_key].append(duration)
        if self.stack:
            self.stack[-1][2] += duration

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0, self.paused]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        traced.__wrapped__ = fn
        return traced

    def _wrap_closure(self, name, closure):
        """One loss+gradient evaluation; sampled per method and graph size."""
        def traced(theta):
            frame = [name, time.perf_counter(), 0.0, self.paused]
            self.stack.append(frame)
            try:
                return closure(theta)
            finally:
                self._exit(frame, (name, self.context) + self._last_nodes)
        return traced

    def _inside(self, name):
        return any(frame[0] == name for frame in self.stack)

    # -- layer-specific wrappers --------------------------------------------

    def _backward(self, fn):
        span = self.wrap("tape.backward", fn)

        def traced(output, wrt, *args, **kwargs):
            nodes = output.tape.nodes
            n_fwd = len(nodes)
            result = span(output, wrt, *args, **kwargs)
            start = time.perf_counter()
            n_bwd = len(nodes) - n_fwd
            self.counts["tape.fwd_nodes"] += n_fwd
            self.counts["tape.bwd_nodes"] += n_bwd
            self.counts["tape.bytes"] += sum(n.value.nbytes for n in nodes)
            self._last_nodes = (n_fwd, n_bwd)
            self.paused += time.perf_counter() - start
            return result
        traced.__wrapped__ = fn
        return traced

    def _optimizer(self, kind, fn):
        span = self.wrap(f"nets.{kind}", fn)

        def traced(closure, theta0, iters, *args, **kwargs):
            name = "gp.lml" if self._inside("gp.fit") else "nets.eval"
            history = kwargs.get("history")
            before = len(history) if history is not None else 0
            evals = self.calls[self.context, name]
            theta, history = span(self._wrap_closure(name, closure), theta0,
                                  iters, *args, **kwargs)
            if kind == "lbfgs":
                self.counts["nets.lbfgs_calls"] += 1
                self.counts["nets.lbfgs_evals"] += \
                    self.calls[self.context, name] - evals
                # lbfgs records the starting loss, then one per accepted step
                self.counts["nets.lbfgs_steps"] += len(history) - before - 1
            return theta, history
        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind `original` in every loaded duffbench module."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "duffbench"
                                      or mod_name.startswith("duffbench.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        import duffbench.cli  # noqa: F401  (loads every layer)

        tape = sys.modules["duffbench.numkit.tape"]
        nets = sys.modules["duffbench.nets"]
        self._replace_everywhere(tape.backward, self._backward(tape.backward))
        for kind in ("adam", "lbfgs"):
            original = getattr(nets, kind)
            self._replace_everywhere(original, self._optimizer(kind, original))
        for mod_name, qualname, span in SPANS:
            owner, attr = _resolve(qualname, sys.modules[mod_name])
            original = vars(owner)[attr]
            wrapped = self.wrap(span, original)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                self._replace_everywhere(original, wrapped)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    @staticmethod
    def _by_span(table):
        out = defaultdict(int)
        for (_, name), value in table.items():
            out[name] += value
        return out

    def _durations(self, name):
        return [d for key, ds in self.samples.items() if key[0] == name
                for d in ds]

    def metrics(self):
        """Every per-layer metric in UNITS except trace.overhead_frac."""
        t, c, n = (self._by_span(self.total), self._by_span(self.calls),
                   self.counts)
        self_time = self._by_span(self.self_time)
        evals = c["tape.backward"]
        evals_ms = 1e3 * np.array(self._durations("nets.eval"))
        lml_ms = 1e3 * np.array(self._durations("gp.lml"))
        search = n["nets.lbfgs_evals"] - n["nets.lbfgs_calls"]

        def pct(values, q):
            return float(np.percentile(values, q)) if len(values) else 0.0

        def per_eval(value):
            return value / evals if evals else 0.0

        def layer_self(layer):
            return sum(v for k, v in self_time.items()
                       if k.startswith(layer + "."))

        return {
            "tape.forward_s": t["nets.eval"] + t["gp.lml"]
            - t["tape.backward"],
            "tape.backward_s": t["tape.backward"],
            "tape.evals": evals,
            "tape.fwd_nodes_per_eval": per_eval(n["tape.fwd_nodes"]),
            "tape.bwd_nodes_per_eval": per_eval(n["tape.bwd_nodes"]),
            "tape.mb_per_eval": per_eval(n["tape.bytes"]) / 1e6,
            "nets.eval_ms.p50": pct(evals_ms, 50),
            "nets.eval_ms.p99": pct(evals_ms, 99),
            "nets.adam_s": t["nets.adam"],
            "nets.adam_update_s": self_time["nets.adam"],
            "nets.lbfgs_s": t["nets.lbfgs"],
            "nets.lbfgs_update_s": self_time["nets.lbfgs"],
            "nets.lbfgs_evals": n["nets.lbfgs_evals"],
            "nets.lbfgs_steps": n["nets.lbfgs_steps"],
            "nets.lbfgs_accept_ratio":
                n["nets.lbfgs_steps"] / search if search else 0.0,
            "pinn.self_s": layer_self("pinn"),
            "pgnn.self_s": layer_self("pgnn"),
            "neural_ode.node_train_s": t["neural_ode.node_train"],
            # one-step training plus refinement; refinement alone is not
            # a metric, as it is 0 wherever node runs light
            "neural_ode.train_k1_s": t["neural_ode.train_k1_predictor"],
            "neural_ode.rollout_s": t["neural_ode.rollout"],
            "neural_ode.hnn_train_s": t["neural_ode.hnn_train"],
            "neural_ode.integrate_hamiltonian_s":
                t["neural_ode.integrate_hamiltonian"],
            "duffing.simulate_s": t["duffing.simulate"],
            "duffing.simulate_calls": c["duffing.simulate"],
            "duffing.multisine_force_s": t["duffing.multisine_force"],
            "duffing.multisine_force_calls": c["duffing.multisine_force"],
            "filters.ukf_step_s": t["filters.ukf_step"],
            "filters.pf_step_s": t["filters.pf_step"],
            "filters.steps": c["filters.ukf_step"] + c["filters.pf_step"],
            "filters.resample_ratio": c["filters.resample"]
            / c["filters.pf_step"] if c["filters.pf_step"] else 0.0,
            "gp.fit_s": t["gp.fit"],
            "gp.lml_evals": c["gp.lml"],
            "gp.lml_ms.p50": pct(lml_ms, 50),
            "gp.predict_s": t["gp.predict"],
            "linalg.cholesky_s": t["linalg.cholesky"],
            "linalg.cholesky_calls": c["linalg.cholesky"],
            "linalg.solve_s": t["linalg.solve"],
            "linalg.solve_calls": c["linalg.solve"],
            "dictionary.stlsq_s": t["dictionary.stlsq"],
            "cli.io_s": t["cli.io"],
            "cli.self_s": self_time["cli.run_experiment"],
        }

    def spans(self):
        """Rows (method, span, calls, total s, self s) by method, then by
        total, largest first."""
        return sorted((key + (self.calls[key], self.total[key],
                              self.self_time[key]) for key in self.calls),
                      key=lambda r: (r[0], -r[3]))

    def eval_groups(self):
        """Rows (closure, method, fwd nodes, bwd nodes, evals, p50 ms)."""
        return sorted((key + (len(ds), 1e3 * float(np.median(ds)))
                       for key, ds in self.samples.items()),
                      key=lambda r: (r[1], r[0], r[2]))
