"""In-memory span tracer for the per-layer benchmark numbers.

The tracer wraps public ``uwbagsim`` functions at every module attribute
that holds them, because callers resolve a function through their own
module's globals (``uwbagsim.cli.generate`` and ``uwbagsim.generator.generate``
are the same object reached through two names). Each call records one span:
name, start, end and the index of the span that was open when it began.
A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Layer name -> (module, attribute path). Names follow ``<module>.<function>``;
# ``core.ChannelRealization.init`` is the constructor.
LAYERS = {
    "generator.generate": ("uwbagsim.generator", "generate"),
    "generator.realization_rng": ("uwbagsim.generator", "realization_rng"),
    "generator.draw_cluster_arrivals": ("uwbagsim.generator", "draw_cluster_arrivals"),
    "generator.draw_ray_arrivals": ("uwbagsim.generator", "draw_ray_arrivals"),
    "generator.mean_amplitude": ("uwbagsim.generator", "mean_amplitude"),
    "core.ChannelRealization.init": ("uwbagsim.core", "ChannelRealization.__init__"),
    "analysis.estimate_params": ("uwbagsim.analysis", "estimate_params"),
    "waveform.write_waveform_csv": ("uwbagsim.waveform", "write_waveform_csv"),
    "generator.write_realization_csv": ("uwbagsim.generator", "write_realization_csv"),
    "waveform.read_waveform_csv": ("uwbagsim.waveform", "read_waveform_csv"),
    "generator.read_realization_csv": ("uwbagsim.generator", "read_realization_csv"),
    "analysis.clean_deconvolve": ("uwbagsim.analysis", "clean_deconvolve"),
    "analysis.compute_pdp": ("uwbagsim.analysis", "compute_pdp"),
    "analysis.identify_clusters": ("uwbagsim.analysis", "identify_clusters"),
    "analysis.average_significant_mpcs": ("uwbagsim.analysis", "average_significant_mpcs"),
    "analysis.count_significant_mpcs": ("uwbagsim.analysis", "count_significant_mpcs"),
    "waveform.render": ("uwbagsim.waveform", "render"),
    "simulate.realize": ("uwbagsim.simulate", "realize"),
    "linkbudget.los_amplitude": ("uwbagsim.linkbudget", "los_amplitude"),
    "geometry.los_gain": ("uwbagsim.geometry", "los_gain"),
    "cli.main": ("uwbagsim.cli", "main"),
}


class Tracer:
    """Records nested call spans in memory; one instance per traced run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` wrapped in a span; ``observe(result)`` sees each result."""
        spans, open_stack, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, open_stack[-1] if open_stack else -1]
            spans.append(span)
            open_stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self, observers: dict | None = None) -> None:
        """Wrap each of LAYERS at every ``uwbagsim`` module attribute that holds it."""
        observers = observers or {}
        # load every module first, so later imports cannot miss a patch
        for module_name, _ in LAYERS.values():
            importlib.import_module(module_name)
        for name, (module_name, path) in LAYERS.items():
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, observers.get(name))
            if owner_path:
                # a method: every caller resolves it through the class
                self._patch(owner, attr, original, wrapped)
                continue
            for module in _package_modules(module_name.split(".")[0]):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original function back where ``install`` found it."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, tuple[int, float]]:
        return self_times(self.spans)


def _package_modules(package: str):
    return [
        module
        for key, module in list(sys.modules.items())
        if module is not None and (key == package or key.startswith(package + "."))
    ]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, summed self time) from closed spans.

    ``spans`` holds ``(name, start, end, parent)`` records, where ``parent``
    indexes the enclosing span or is -1 at the top level.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, tuple[int, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        own = (end - start) - _covered(children.get(index, ()), start, end)
        calls, total = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, total + own)
    return totals
