"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces every module-level name bound to a listed
function, in the module that defines it and in every ``tagstab`` module
that imported it, with one wrapper that records (name, start, end,
parent).  Spans stay in memory until ``dump``.  A listed function that no
longer exists is skipped, so it reports zero calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = {
    "generators": ("generate_corpus", "generate_stream", "zipf_background", "load_background"),
    "ingest": ("ingest_tag_log", "write_tag_log", "read_background_file", "ingest_text_corpus"),
    # normalize_tag runs once per input row; its time stays in ingest's self time.
    "streams": ("snapshot", "rank", "proportion_trajectory"),
    "measures": ("rbo", "rbo_trajectory", "kl_topk_trajectory", "kl_divergence",
                 "kl_random_baseline", "weight_of_prefix"),
    "stability": ("stability_surface", "window_rbo", "stabilization_fraction",
                  "classify_stability"),
    "powerlaw": ("fit_power_law", "compare_distributions", "ccdf"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack = [-1]

    def _wrap(self, name: str, function):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)

        return traced

    def install(self, package: str = "tagstab") -> None:
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"{package}.{layer}")
            for name in names:
                function = getattr(module, name, None)
                if callable(function):
                    wrappers[id(function)] = (function, self._wrap(f"{layer}.{name}", function))
        for module_name, module in list(sys.modules.items()):
            if module_name != package and not module_name.startswith(package + "."):
                continue
            for attribute, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    setattr(module, attribute, found[1])

    def call(self, name: str, function, *args):
        """Run ``function`` as a root span called ``name``."""
        return self._wrap(name, function)(*args)

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans, **extra}, handle)


def aggregate(names: list[str], spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds ``s`` and ``self_s``, the
    inclusive time less the time of the spans directly beneath it."""
    beneath = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            beneath[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for slot, (index, start, end, _) in enumerate(spans):
        entry = totals.setdefault(names[index], {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - beneath[slot]
    return totals
