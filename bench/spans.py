"""Spans and per-layer counters, recorded from outside the sirlevy package.

The package source is never edited.  Instead, :func:`instrument` replaces each
public function at the module attribute where its caller looks it up (for
example ``sirlevy.estimator.pgd_alpha``, which ``_solve_cell`` reads from its
own module globals) with a wrapper that records a span and updates counters.
Per-iteration methods such as ``AlphaQuadratic.value`` and ``.grad`` are left
alone: the eps = 0.3 tail calls them about a million times, and wrapping them
would measure the wrapper.

A span is ``(id, name, start, end, parent id)``.  Spans stay in memory and are
written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span stack plus named counters."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 1

    def call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def calls(self) -> Counter:
        """Number of spans per name."""
        return Counter(name for _, name, _, _, _ in self.spans)

    def busy(self) -> dict[str, float]:
        """Total duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def self_times(self) -> dict[str, float]:
        """Duration minus child coverage, summed per span name.

        Children run strictly inside their parent on one thread, so the
        covered part of a parent is the sum of its direct children.
        """
        child_cover: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent:
                child_cover[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            out[name] += (end - start) - child_cover.get(span_id, 0.0)
        return dict(out)

    def table(self) -> list[tuple[str, int, float, float]]:
        """Rows (span name, calls, total s, self s), slowest self time first."""
        calls = self.calls()
        busy = self.busy()
        own = self.self_times()
        return sorted(((n, calls[n], busy[n], own[n]) for n in calls), key=lambda r: -r[3])

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "fields": ["id", "name", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


class Patches:
    """Module and class attributes replaced for one run; :meth:`undo` restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _bind(fn):
    sig = inspect.signature(fn)

    def bound(args, kwargs):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return ba.arguments

    return bound


def wrap(tracer: Tracer, name: str, fn, after=None, failed=None, bind=False):
    """Wrapper recording span ``name``; ``after(result, args)`` updates counters.

    ``args`` is the dict of bound arguments when ``bind`` is set, else the raw
    positional tuple and keyword dict.  ``failed(err, args)`` sees exceptions,
    which are re-raised unchanged.
    """
    binder = _bind(fn) if bind else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            result = tracer.call(name, fn, args, kwargs)
        except Exception as err:
            if failed is not None:
                failed(err, binder(args, kwargs) if binder else (args, kwargs))
            raise
        if after is not None:
            after(result, binder(args, kwargs) if binder else (args, kwargs))
        return result

    return wrapper


def instrument(sl, tracer: Tracer, patches: Patches) -> None:
    """Wrap every public entry point of the six layers; counters go to ``tracer.counts``."""
    import numpy as np

    c = tracer.counts
    box_lo, box_hi = sl.BoxConstraints().alpha_bounds(1)

    # levy: path construction draws the jump skeleton, increments come per path
    def levy_init(result, a):
        c["levy.jumps"] += a[0][0].jump_count

    cls = sl.levy.LevyPathNoise
    patches.set(cls, "__init__", wrap(tracer, "levy.path", cls.__init__, after=levy_init))
    patches.set(cls, "brownian_increments", wrap(tracer, "levy.increments", cls.brownian_increments))

    # simulate
    def sde_after(traj, a):
        keep = a["noise"].jump_times <= a["horizon"]
        c["simulate.sde_steps"] += a["n_obs"] * a["substeps"] + int(np.count_nonzero(keep))
        c["simulate.clamps"] += traj.clamp_count
        c["simulate.flagged"] += bool(traj.meta.get("flagged", False))

    def ode_after(traj, a):
        c["simulate.ode_steps"] += a["n_steps"]

    sde = wrap(tracer, "simulate.sde", sl.simulate.simulate_sde, after=sde_after, bind=True)
    ode = wrap(tracer, "simulate.ode", sl.simulate.solve_ode, after=ode_after, bind=True)
    for mod in (sl.simulate, sl.experiments, sl.theory):
        patches.set(mod, "simulate_sde", sde)
    for mod in (sl.experiments, sl.theory):
        patches.set(mod, "solve_ode", ode)
    patches.set(
        sl.experiments,
        "predict_ensemble",
        wrap(tracer, "simulate.ensemble", sl.simulate.predict_ensemble),
    )

    # contrast, at the names the estimator imported
    est_mod = sl.estimator

    def linear_after(alpha, a):
        if np.all(alpha >= box_lo) and np.all(alpha <= box_hi):
            c["contrast.linear_in_box"] += 1

    def linear_failed(err, a):
        if isinstance(err, sl.SingularDesignError):
            c["contrast.singular_designs"] += 1

    patches.set(
        est_mod,
        "linear_solve_alpha",
        wrap(tracer, "contrast.linear_solve", est_mod.linear_solve_alpha, linear_after, linear_failed),
    )
    for attr, name in (
        ("alpha_profile", "contrast.profile"),
        ("alpha_quadratic", "contrast.quadratic"),
        ("contrast_value", "contrast.value"),
        ("contrast_gradient", "contrast.gradient"),
    ):
        patches.set(est_mod, attr, wrap(tracer, name, getattr(est_mod, attr)))
    prof = sl.contrast.AlphaProfile
    patches.set(prof, "solve_clipped", wrap(tracer, "contrast.scan_solve", prof.solve_clipped))

    # estimator
    def pgd_after(sol, a):
        c["estimator.pgd_iters"] += sol.iterations
        c["estimator.pgd_unconverged"] += not sol.converged
        c["estimator.box_fallbacks" if a["start"] is not None else "estimator.singular_fallbacks"] += 1

    def est_after(result, a):
        c["estimator.unconverged"] += not result.converged
        c["estimator.refine_iters"] += result.refine_iterations

    patches.set(est_mod, "pgd_alpha", wrap(tracer, "estimator.pgd", est_mod.pgd_alpha, pgd_after, bind=True))
    estimate = wrap(tracer, "estimator.estimate", est_mod.lsgd_estimate, est_after)
    for mod in (sl.experiments, sl.theory):
        patches.set(mod, "lsgd_estimate", estimate)

    # theory
    patches.set(sl.theory, "information_matrix", wrap(tracer, "theory.info", sl.theory.information_matrix))
    patches.set(sl.theory, "rate_experiment", wrap(tracer, "theory.rate", sl.theory.rate_experiment))
    sampler = sl.theory.LimitSampler
    patches.set(sampler, "__init__", wrap(tracer, "theory.sampler_init", sampler.__init__))
    patches.set(sampler, "sample", wrap(tracer, "theory.draw", sampler.sample))

    # experiments: pipeline stages and persistence
    ex = sl.experiments
    for attr, name in (
        ("generate_datasets", "experiments.generate"),
        ("batch_estimate", "experiments.estimate"),
        ("emit_reports", "experiments.report"),
        ("prediction_study", "experiments.predict"),
        ("save_trajectory", "experiments.io"),
        ("load_trajectory", "experiments.io"),
    ):
        patches.set(ex, attr, wrap(tracer, name, getattr(ex, attr)))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from spans and counters."""
    c = tracer.counts
    calls = tracer.calls()
    busy = tracer.busy()

    def b(*names):
        return sum(busy.get(n, 0.0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "estimator.estimates": calls["estimator.estimate"],
        "estimator.busy_s": b("estimator.estimate"),
        "estimator.pgd_calls": calls["estimator.pgd"],
        "estimator.pgd_iters": c["estimator.pgd_iters"],
        "estimator.pgd_unconverged": c["estimator.pgd_unconverged"],
        "estimator.pgd_busy_s": b("estimator.pgd"),
        "estimator.box_fallbacks": c["estimator.box_fallbacks"],
        "estimator.singular_fallbacks": c["estimator.singular_fallbacks"],
        "estimator.linear_accept_ratio": ratio(c["contrast.linear_in_box"], calls["contrast.linear_solve"]),
        "estimator.refine_iters": c["estimator.refine_iters"],
        "estimator.unconverged": c["estimator.unconverged"],
        "contrast.profile_builds": calls["contrast.profile"],
        "contrast.quadratic_calls": calls["contrast.quadratic"],
        "contrast.scan_solves": calls["contrast.scan_solve"],
        "contrast.scan_busy_s": b("contrast.scan_solve"),
        "contrast.linear_solves": calls["contrast.linear_solve"],
        "contrast.singular_designs": c["contrast.singular_designs"],
        "contrast.value_calls": calls["contrast.value"],
        "contrast.gradient_calls": calls["contrast.gradient"],
        "contrast.refine_busy_s": b("contrast.value", "contrast.gradient"),
        "simulate.sde_calls": calls["simulate.sde"],
        "simulate.sde_steps": c["simulate.sde_steps"],
        "simulate.sde_us_per_step": 1e6 * ratio(b("simulate.sde"), c["simulate.sde_steps"]),
        "simulate.clamps": c["simulate.clamps"],
        "simulate.flagged": c["simulate.flagged"],
        "simulate.ode_calls": calls["simulate.ode"],
        "simulate.ode_steps": c["simulate.ode_steps"],
        "simulate.ode_us_per_step": 1e6 * ratio(b("simulate.ode"), c["simulate.ode_steps"]),
        "levy.paths": calls["levy.path"],
        "levy.jumps": c["levy.jumps"],
        "levy.busy_s": b("levy.path", "levy.increments"),
        "theory.info_busy_s": b("theory.info"),
        "theory.sampler_init_s": b("theory.sampler_init"),
        "theory.limit_draws": calls["theory.draw"],
        "theory.draw_us": 1e6 * ratio(b("theory.draw"), calls["theory.draw"]),
        "experiments.generate_busy_s": b("experiments.generate"),
        "experiments.estimate_busy_s": b("experiments.estimate"),
        "experiments.report_busy_s": b("experiments.report"),
        "experiments.io_busy_s": b("experiments.io"),
        "experiments.bytes_written": c["experiments.bytes_written"],
    }
    return out
