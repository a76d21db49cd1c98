"""Per-layer tracing of mindpd from outside the package.

Each wrapper counts calls and records a span around one public function.
The layers are the modules of ``src/mindpd``. Modules bind imported names
at import time, so a function is patched at every import site. A layer's
self time is the duration of its spans minus the time covered by their
child spans. ``Tracer.installed()`` patches for the duration of a ``with``
block and restores the originals on exit.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

# every per-layer metric, with its unit and better direction; counts are
# reported per traced round of the workload
METRICS = {
    "cli.calls": ("count", "lower"),
    "cli.read_data_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "montecarlo.replications": ("count", "lower"),
    "montecarlo.self_s": ("s", "lower"),
    "estimation.fits": ("count", "lower"),
    "estimation.starts": ("count", "lower"),
    "estimation.starts_converged": ("count", "higher"),
    "estimation.converged_share": ("ratio", "higher"),
    "estimation.self_s": ("s", "lower"),
    "optimize.maximize_calls": ("count", "lower"),
    "optimize.value_grad_evals": ("count", "lower"),
    "optimize.hessian_evals": ("count", "lower"),
    "optimize.self_s": ("s", "lower"),
    "divergence.value_grad_calls": ("count", "lower"),
    "divergence.gradient_calls": ("count", "lower"),
    "divergence.hessian_calls": ("count", "lower"),
    "divergence.objective_calls": ("count", "lower"),
    "divergence.self_s": ("s", "lower"),
    "asymptotics.empirical_sandwich_calls": ("count", "lower"),
    "asymptotics.population_calls": ("count", "lower"),
    "asymptotics.projection_calls": ("count", "lower"),
    "asymptotics.self_s": ("s", "lower"),
    "families.integral_terms_closed": ("count", "lower"),
    "families.integral_terms_numeric": ("count", "lower"),
    "families.points_evaluated": ("count", "lower"),
    "families.self_s": ("s", "lower"),
    "quadrature.continuous_calls": ("count", "lower"),
    "quadrature.discrete_calls": ("count", "lower"),
    "quadrature.integrand_calls": ("count", "lower"),
    "quadrature.nodes_evaluated": ("count", "lower"),
    "quadrature.failures": ("count", "lower"),
    "quadrature.max_error_estimate": ("abs", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

LAYERS = ("cli", "montecarlo", "estimation", "optimize", "divergence",
          "asymptotics", "families", "quadrature")


class Tracer:
    """Counters and per-layer self time, accumulated over traced rounds."""

    def __init__(self):
        self.counts = defaultdict(float)
        self.self_s = defaultdict(float)     # per layer
        self.span_s = defaultdict(float)     # per wrapped function
        self.max_error = 0.0
        self._open = []          # child time covered, one entry per open span

    def span(self, layer, fn, count=None, before=None, after=None):
        """Wrap fn in a span of ``layer``. ``count`` names a counter bumped
        per call; ``before(args, kwargs)`` may return replacement arguments;
        ``after(result)`` sees the result."""
        tracer = self

        def wrapper(*args, **kwargs):
            if count:
                tracer.counts[count] += 1
            if before is not None:
                args, kwargs = before(args, kwargs)
            tracer._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = tracer._open.pop()
                tracer.self_s[layer] += dt - child
                if tracer._open:
                    tracer._open[-1] += dt
                tracer.span_s[fn.__name__] += dt
            if after is not None:
                after(result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- argument hooks ------------------------------------------------

    def _wrap_arg(self, index, name, layer, count, points=False):
        """before-hook that wraps one callable argument in a span."""
        def before(args, kwargs):
            def counted(fn):
                inner = self.span(layer, fn, count)
                if not points:
                    return inner

                def integrand(x):
                    self.counts["quadrature.nodes_evaluated"] += len(x)
                    return inner(x)
                return integrand
            if name in kwargs:
                if kwargs[name] is not None:
                    kwargs = dict(kwargs, **{name: counted(kwargs[name])})
            elif len(args) > index and args[index] is not None:
                args = args[:index] + (counted(args[index]),) + args[index + 1:]
            return args, kwargs
        return before

    def _fit_done(self, result):
        self.counts["estimation.starts"] += len(result.converged_starts)
        self.counts["estimation.starts_converged"] += sum(
            bool(c) for c in result.converged_starts)

    def _quad_done(self, result):
        self.max_error = max(self.max_error, float(result[1]))

    def _integral_term(self, fn):
        def before(args, kwargs):
            fam = args[0]
            kind = kwargs.get("kind", args[3] if len(args) > 3 else None)
            method = kwargs.get("method", args[5] if len(args) > 5 else "auto")
            closed = method == "closed" or (method == "auto"
                                            and kind in fam.closed_forms)
            key = "closed" if closed else "numeric"
            self.counts[f"families.integral_terms_{key}"] += 1
            return args, kwargs
        return self.span("families", fn, before=before)

    def _quadrature(self, fn, count):
        from mindpd.errors import NumericalError
        inner = self.span("quadrature", fn, count, after=self._quad_done)

        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except NumericalError:
                self.counts["quadrature.failures"] += 1
                raise
        wrapper.__name__ = fn.__name__
        return wrapper

    def _points(self, fn):
        def before(args, kwargs):
            self.counts["families.points_evaluated"] += np.size(args[1])
            return args, kwargs
        return self.span("families", fn, before=before)

    # -- patch table -----------------------------------------------------

    def _patches(self):
        """(owner, attribute, wrapper) for every patched import site."""
        from mindpd import (asymptotics, cli, divergence, estimation,
                            families, montecarlo)
        orig = {
            "main": cli.main,
            "read_data_csv": cli.read_data_csv,
            "run_consistency_study": montecarlo.run_consistency_study,
            "run_normality_study": montecarlo.run_normality_study,
            "efficiency_curve": montecarlo.efficiency_curve,
            "_run_rep": montecarlo._run_rep,
            "fit": estimation.fit,
            "maximize": estimation.maximize,
            "empirical_sandwich": asymptotics.empirical_sandwich,
            "sandwich": asymptotics.sandwich,
            "dpd_projection": asymptotics.dpd_projection,
            "diagnose_regularity": asymptotics.diagnose_regularity,
            "integral_term": families.integral_term,
            "integrate_model": families.integrate_model,
            "integrate_continuous": families.integrate_continuous,
            "sum_discrete": families.sum_discrete,
        }
        for name in ("objective_value_and_gradient", "objective_gradient",
                     "objective_hessian", "objective"):
            orig[name] = getattr(divergence, name)
        for name in ("population_objective", "population_gradient",
                     "compute_K", "compute_J"):
            orig[name] = getattr(asymptotics, name)

        def maximize_at(layer):
            return self.span(
                "optimize", orig["maximize"], "optimize.maximize_calls",
                before=_chain(
                    self._wrap_arg(0, "value_and_grad", layer,
                                   "optimize.value_grad_evals"),
                    self._wrap_arg(2, "hessian", layer,
                                   "optimize.hessian_evals")))

        def integrate_model_at(layer):
            return self.span("families", orig["integrate_model"], before=(
                self._wrap_arg(1, "integrand", layer,
                               "quadrature.integrand_calls", points=True)))

        fit = self.span("estimation", orig["fit"], "estimation.fits",
                        after=self._fit_done)
        emp = self.span("asymptotics", orig["empirical_sandwich"],
                        "asymptotics.empirical_sandwich_calls")
        sandwich = self.span("asymptotics", orig["sandwich"])
        projection = self.span("asymptotics", orig["dpd_projection"],
                               "asymptotics.projection_calls")
        integral_term = self._integral_term(orig["integral_term"])
        patches = [
            (cli, "main", self.span("cli", orig["main"], "cli.calls")),
            (cli, "read_data_csv", self.span("cli", orig["read_data_csv"])),
            (cli, "run_consistency_study",
             self.span("montecarlo", orig["run_consistency_study"])),
            (cli, "run_normality_study",
             self.span("montecarlo", orig["run_normality_study"])),
            (cli, "efficiency_curve",
             self.span("montecarlo", orig["efficiency_curve"])),
            (cli, "diagnose_regularity",
             self.span("asymptotics", orig["diagnose_regularity"])),
            (montecarlo, "_run_rep",
             self.span("montecarlo", orig["_run_rep"],
                       "montecarlo.replications")),
            (cli, "fit", fit), (montecarlo, "fit", fit),
            (estimation, "fit", fit),
            (estimation, "maximize", maximize_at("estimation")),
            (asymptotics, "maximize", maximize_at("asymptotics")),
            (estimation, "empirical_sandwich", emp),
            (asymptotics, "sandwich", sandwich),
            (montecarlo, "sandwich", sandwich),
            (asymptotics, "dpd_projection", projection),
            (montecarlo, "dpd_projection", projection),
            (divergence, "integral_term", integral_term),
            (asymptotics, "integral_term", integral_term),
            (divergence, "integrate_model", integrate_model_at("divergence")),
            (asymptotics, "integrate_model",
             integrate_model_at("asymptotics")),
            (families, "integrate_model", integrate_model_at("families")),
            (families, "integrate_continuous",
             self._quadrature(orig["integrate_continuous"],
                              "quadrature.continuous_calls")),
            (families, "sum_discrete",
             self._quadrature(orig["sum_discrete"],
                              "quadrature.discrete_calls")),
        ]
        for name, key in (("objective_value_and_gradient", "value_grad_calls"),
                          ("objective_gradient", "gradient_calls"),
                          ("objective_hessian", "hessian_calls"),
                          ("objective", "objective_calls")):
            patches.append((estimation, name, self.span(
                "divergence", orig[name], f"divergence.{key}")))
        for name in ("population_objective", "population_gradient",
                     "compute_K", "compute_J"):
            patches.append((asymptotics, name, self.span(
                "asymptotics", orig[name], "asymptotics.population_calls")))
        for name in ("logpdf", "pdf", "score", "info"):
            patches.append((families.FamilyModel, name,
                            self._points(getattr(families.FamilyModel, name))))
        return patches

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def metrics(self, rounds, traced_wall, untraced_wall):
        """Per-round values of every metric in METRICS."""
        out = {k: self.counts[k] / rounds for k, (unit, _) in METRICS.items()
               if unit == "count"}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer] / rounds
        starts = self.counts["estimation.starts"]
        out["estimation.converged_share"] = (
            self.counts["estimation.starts_converged"] / starts if starts
            else 1.0)
        out["quadrature.max_error_estimate"] = self.max_error
        out["cli.read_data_s"] = self.span_s["read_data_csv"] / rounds
        out["trace.wall_s"] = traced_wall / rounds
        out["trace.overhead_s"] = (traced_wall - untraced_wall) / rounds
        return out


def _chain(*hooks):
    def before(args, kwargs):
        for h in hooks:
            args, kwargs = h(args, kwargs)
        return args, kwargs
    return before
