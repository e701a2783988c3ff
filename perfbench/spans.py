"""In-memory span tracer that wraps incrstat's public functions from outside.

A traced invocation patches each function below under every name that
binds it in an incrstat module (for example `incrstat.corrector.
solve_helmholtz` and `incrstat.green.solve_helmholtz`), and two methods on
their classes (`GeneratorSpec.realize`, `TorusField.__init__`). Each call
records a span (name, start, end, parent index) in a list; counters that
need the call's arguments or result (sites solved, bytes copied, points
generated) are added after the span has ended. Nothing under `src/`
changes, and `uninstall` puts every original back.

Self time is a span's duration minus the durations of its direct child
spans; the self times of all spans therefore add up to the root span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

MODULES = ("cli", "corrector", "green", "lattice", "pointsets", "randfields", "seeding")


def _helmholtz_counts(counts, args, result):
    f = args[1]
    n, L = f.geometry.n_sites, f.geometry.L
    counts["lattice.sites_solved"] += n
    # per component: rfftn reads n float64 and writes n/L*(L//2+1) complex128,
    # irfftn reads that and writes n float64 (computed from sizes, not measured)
    counts["lattice.fft_bytes_computed"] += f.components * 2 * (8 * n + 16 * (n // L) * (L // 2 + 1))


def _torusfield_counts(counts, args, result):
    counts["lattice.torusfield.bytes_copied"] += args[0].values.nbytes


def _renewal_counts(counts, args, result):
    counts["pointsets.points_generated"] += result.n_points


def _energy_counts(counts, args, result):
    window, _, region = args
    counts["pointsets.energy_points"] += int(window.points_in(region).shape[0])


# (module, attribute path, span name, counter hook); hooks read positional
# arguments, which is how incrstat calls each of these
TARGETS = (
    ("seeding", "derive_rng", "seeding.derive_rng", None),
    ("randfields", "GeneratorSpec.realize", "randfields.realize", None),
    ("randfields", "empirical_covariance", "randfields.empirical_covariance", None),
    ("lattice", "solve_helmholtz", "lattice.solve_helmholtz", _helmholtz_counts),
    ("lattice", "backward_divergence", "lattice.stencil", None),
    ("lattice", "forward_gradient", "lattice.stencil", None),
    ("lattice", "laplacian", "lattice.stencil", None),
    ("lattice", "TorusField.__init__", "lattice.torusfield", _torusfield_counts),
    ("corrector", "solve_corrector", "corrector.solve_corrector", None),
    ("corrector", "second_moment_mc", "corrector.second_moment_mc", None),
    ("corrector", "scaling_study", "corrector.scaling_study", None),
    ("pointsets", "thermodynamic_density", "pointsets.thermodynamic_density", None),
    ("pointsets", "renewal_pointset_1d", "pointsets.renewal_pointset_1d", _renewal_counts),
    ("pointsets", "energy", "pointsets.energy", _energy_counts),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        mods = [importlib.import_module(f"incrstat.{m}") for m in MODULES]
        for home, path, name, hook in TARGETS:
            owner = importlib.import_module(f"incrstat.{home}")
            *cls, attr = path.split(".")
            if cls:  # a method: patch it on its class
                owner = getattr(owner, cls[0])
                self._patch(owner, attr, self.wrap(name, vars(owner)[attr], hook))
                continue
            orig = getattr(owner, attr)
            traced = self.wrap(name, orig, hook)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, traced)

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def summarize(spans: list, counts: dict) -> dict:
    """Per span name: calls, total seconds and self seconds; plus the counters."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    by_name: dict[str, dict] = {}
    for (name, t0, t1, _), inner in zip(spans, child_time):
        agg = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - inner
    roots = [t1 - t0 for _, t0, t1, parent in spans if parent < 0]
    return {"names": by_name, "counts": dict(counts), "root_s": sum(roots)}
