"""Spans around the calls one contmon module makes into another.

The benchmark installs these from its own files: it replaces the module
attributes a caller looks up (``ensemble.jump``, ``ensemble.min_eigenvalue``,
``config.run_ensemble`` ...) with timed wrappers and puts the originals back
afterwards.  Nothing in the program changes.  A span's self time is its
duration minus the time of the spans it caused.
"""

from __future__ import annotations

import time
from collections import defaultdict

JUMP_FUNCTIONS = (
    "jump_probability",
    "jump_sme_apply",
    "jump_kraus_apply",
    "jump_feedback_apply",
    "linear_jump_step",
)
DIFFUSIVE_FUNCTIONS = (
    "homodyne_sme_step",
    "homodyne_kraus_step",
    "heterodyne_sme_step",
    "homodyne_feedback_step",
    "linear_homodyne_step",
    "generalized_bath_homodyne_step",
)
FLOAT_BYTES = 8


class Tracer:
    """In-memory span and counter store with attribute patching."""

    def __init__(self):
        self._stack: list[float] = []
        self._undo: list[tuple] = []
        self.clear()

    def clear(self):
        self.durations = defaultdict(list)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)
        self.largest_draw = 0

    def span(self, name, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                self.durations[name].append(elapsed)
                self.self_seconds[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class _Facade:
    """Stands in for a module in its caller's namespace: the named functions
    are wrapped, every other attribute is the module's own."""

    def __init__(self, module, wrapped):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _TimedGenerator:
    """A trajectory generator whose draws are spans of ``ensemble.noise``."""

    def __init__(self, tracer, generator):
        self._tracer = tracer
        self._generator = generator
        self.random = tracer.span("ensemble.noise", self._draw(generator.random))
        self.standard_normal = tracer.span("ensemble.noise", self._draw(generator.standard_normal))

    def _draw(self, method):
        tracer = self._tracer

        def draw(size=None, *args, **kwargs):
            if isinstance(size, int):
                tracer.largest_draw = max(tracer.largest_draw, size)
            return method(size, *args, **kwargs)

        return draw

    def __getattr__(self, name):
        return getattr(self._generator, name)


def install_setup_timers(tracer, config):
    """The spans the untraced run needs: set-up work inside ``run_scenario``."""
    tracer.patch(config, "parse_config", tracer.span("config.parse_config", config.parse_config))
    tracer.patch(config, "build_runtime", tracer.span("config.build_runtime", config.build_runtime))


def install_layers(tracer, config, ensemble, jump, diffusive):
    """Every per-layer span and counter of the traced run."""
    install_setup_timers(tracer, config)
    tracer.patch(ensemble, "jump", _Facade(jump, {
        name: tracer.span(f"jump.{name}", getattr(jump, name)) for name in JUMP_FUNCTIONS
    }))
    tracer.patch(ensemble, "diffusive", _Facade(diffusive, {
        name: tracer.span(f"diffusive.{name}", getattr(diffusive, name))
        for name in DIFFUSIVE_FUNCTIONS
    }))
    tracer.patch(ensemble, "min_eigenvalue",
                 tracer.span("core_ops.min_eigenvalue", ensemble.min_eigenvalue))
    tracer.patch(ensemble, "conditional_cov_rhs",
                 tracer.span("gaussian.conditional_cov_rhs", ensemble.conditional_cov_rhs))

    make_rng = tracer.span("ensemble.noise", ensemble.trajectory_rng)
    tracer.patch(ensemble, "trajectory_rng",
                 lambda *args, **kwargs: _TimedGenerator(tracer, make_rng(*args, **kwargs)))

    run_ensemble = tracer.span("ensemble.run_ensemble", config.run_ensemble)

    def counted_run_ensemble(spec, scenario):
        tracer.largest_draw = 0
        result = run_ensemble(spec, scenario)
        tracer.counts["ensemble.traj_steps"] += spec.n_traj * spec.n_steps
        rows = min(spec.block_size, spec.n_traj)
        tracer.peaks["ensemble.noise.block_bytes"] = max(
            tracer.peaks["ensemble.noise.block_bytes"], FLOAT_BYTES * rows * tracer.largest_draw
        )
        return result

    tracer.patch(config, "run_ensemble", counted_run_ensemble)
    tracer.patch(config, "unconditional_moment_rhs",
                 tracer.span("gaussian.unconditional_moment_rhs", config.unconditional_moment_rhs))
    tracer.patch(config, "me_expectations",
                 tracer.span("master_equation.me_expectations", config.me_expectations))
    for name in ("markovian_gain", "lqg_gain"):
        tracer.patch(config, name, tracer.span("gaussian.synthesis", getattr(config, name)))

    render = tracer.span("config.render_stats_csv", config.render_stats_csv)

    def counted_render(*args, **kwargs):
        payload = render(*args, **kwargs)
        tracer.counts["config.stats_bytes"] += len(payload)
        return payload

    tracer.patch(config, "render_stats_csv", counted_render)
    tracer.patch(config, "run_scenario", tracer.span("config.run_scenario", config.run_scenario))
