"""Layer-boundary spans recorded from outside the program.

The tracer wraps names that each ``boxapprox`` module exposes, patching
every module attribute bound to the same object so that ``from .x import
y`` copies are wrapped too. Nothing under ``src/`` changes, and a name a
later version deletes or renames is reported as absent instead of failing.
Spans stay in memory as (name, start, end, parent) and are aggregated
into per-layer self times: a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# Span name -> candidate paths (module.attr or module.Class.method under
# boxapprox). Every path that resolves is wrapped; a span none of whose
# paths resolve is absent.
SPANS = {
    "formats.read": ("formats.read_values_csv", "formats.read_design_file"),
    "formats.render": ("formats.format_value", "formats.write_design_file"),
    "core.basis": ("core.make_basis",),
    "core.enum": ("core.all_vertices",),
    "designs.sample": ("designs.sample_random_design",),
    "approx.api": (
        "approx.approximate_all", "approx.approximate_value", "approx.prediction_coefficients",
        "approx.covers_all", "approx.determinable", "approx.degree_of_approximation",
    ),
    "approx.complete": ("approx.complete_from_ball",),
    "linalg.factor": ("linalg.SpanSolver.__init__",),
    "linalg.solve": ("linalg.SpanSolver.solve", "linalg.SpanSolver.contains"),
    "linalg.rank": ("linalg.rank_rational",),
    "probability.api": (
        "probability.prob_real_montecarlo", "probability._mc_flags_numpy",
        "probability._rational_affine_indep_numpy", "probability.prob_f2_exact",
    ),
    "probability.exact": ("probability.prob_real_exhaustive",),
    "probability.sample": ("probability._sample_bits_numpy", "probability._sample_bits_python"),
    "probability.det": ("probability._nonzero_det_modp",),
}


def _count_targets(counts, args, kwargs, result, exc):
    if exc is None and isinstance(result, dict):
        counts["approx.targets"] += len(result)
        counts["approx.undetermined"] += sum(1 for x in result.values() if x is None)
    elif exc is None or type(exc).__name__ == "NotDeterminableError":
        counts["approx.targets"] += 1
        counts["approx.undetermined"] += exc is not None


def _count_rows(counts, args, kwargs, result, exc):
    if exc is None:
        counts["formats.read_rows"] += len(result.vertices)


def _count_monomials(counts, args, kwargs, result, exc):
    if exc is None:
        counts["core.monomials"] += len(result)


def _count_trials(counts, args, kwargs, result, exc):
    counts["probability.trials"] += args[1] if len(args) > 1 else kwargs["trials"]


# Path -> counter applied to (counts, args, kwargs, result, exception)
# after a call.
COUNTERS = {
    "approx.approximate_all": _count_targets,
    "approx.approximate_value": _count_targets,
    "formats.read_values_csv": _count_rows,
    "formats.read_design_file": _count_rows,
    "core.make_basis": _count_monomials,
    "probability.prob_real_montecarlo": _count_trials,
}

COUNT_NAMES = (
    "approx.targets", "approx.undetermined", "formats.read_rows", "core.monomials",
    "probability.trials", "probability.det_rows", "probability.retest_rows",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.det_parents: set[int] = set()
        self.patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name, start, perf_counter(), parent)
                stack.pop()
                if counter is not None:
                    counter(self.counts, args, kwargs, None, exc)
                raise
            spans[idx] = (name, start, perf_counter(), parent)
            stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result, None)
            return result

        return wrapper

    def _count_det(self, counts, args, kwargs, result, exc):
        # The first determinant batch under a caller is the one-prime test;
        # any further batch under the same caller is a second-prime retest.
        rows = len(args[0])
        counts["probability.det_rows"] += rows
        parent = self.stack[-1] if self.stack else -1
        if parent in self.det_parents:
            counts["probability.retest_rows"] += rows
        self.det_parents.add(parent)

    def install(self) -> None:
        """Wrap every resolvable path; remember the originals for uninstall."""
        self.absent = []
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "boxapprox" or key.startswith("boxapprox."))
        ]
        for name, paths in SPANS.items():
            found = False
            for path in paths:
                counter = self._count_det if name == "probability.det" else COUNTERS.get(path)
                found |= self._patch(path, name, counter, modules)
            if not found:
                self.absent.append(name)

    def _patch(self, path: str, name: str, counter, modules) -> bool:
        parts = path.split(".")
        try:
            owner = importlib.import_module("boxapprox." + parts[0])
        except ImportError:
            return False
        for part in parts[1:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        attr = parts[-1]
        if isinstance(owner, type):
            fn = owner.__dict__.get(attr)
            if fn is None:
                return False
            self.patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counter))
            return True
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return False
        wrapped = self._wrap(name, fn, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    self.patches.append((module, key, fn))
                    setattr(module, key, wrapped)
        return True

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self.patches):
            setattr(owner, attr, fn)
        self.patches.clear()

    def root(self, name: str, fn, *args):
        """Run fn(*args) as a root span, e.g. one CLI job."""
        return self._wrap(name, fn, None)(*args)

    def take(self) -> tuple[dict, dict, list]:
        """Self time and call count per span name since the last take, the
        counts, and the raw spans; then reset for the next job."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, start, end, parent), inner in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
            calls[name] = calls.get(name, 0) + 1
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        self.det_parents.clear()
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        return {"self_s": self_s, "calls": calls}, counts, spans
