"""Spans at the package's layer boundaries, recorded from outside.

``Tracer.install()`` replaces each wrapped function *as its caller sees it*
(the name bound in the calling module, or the class attribute) by a wrapper
that records a span: name, start, end, parent span, item id and a small
detail.  ``Tracer.restore()`` puts every original back.  Spans stay in
memory; ``write()`` saves them once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import hddiamond
import hddiamond.capacity
import hddiamond.selection

# (span name, owner, attribute).  A function bound under several names is
# wrapped under each, since each caller looks up its own binding.
BOUNDARIES = (
    ("simplex.solve_lp", hddiamond.capacity, "solve_lp"),
    ("capacity.hd", hddiamond, "hd_capacity"),
    ("capacity.hd", hddiamond.capacity, "hd_capacity"),
    ("capacity.hd", hddiamond.selection, "hd_capacity"),
    ("capacity.rate", hddiamond, "fixed_schedule_rate"),
    ("capacity.rate", hddiamond.capacity, "fixed_schedule_rate"),
    ("capacity.rate", hddiamond.selection, "fixed_schedule_rate"),
    ("selection.select_k", hddiamond, "select_k"),
    ("selection.select_k", hddiamond.selection, "select_k"),
    ("network.subnetwork", hddiamond.DiamondNetwork, "subnetwork"),
    ("network.marginal", hddiamond.selection, "derive_natural_schedule"),
)

NAME, START, END, PARENT, ITEM, DETAIL, FAILED = range(7)

#: The layer each span belongs to, for busy and self time.
LAYER = {
    "simplex.solve_lp": "simplex",
    "capacity.hd": "capacity.hd",
    "capacity.rate": "capacity.rate",
    "selection.select_k": "selection",
    "network.subnetwork": "network",
    "network.marginal": "network",
}


def _lp_cells(args, kwargs) -> int:
    a_ub = kwargs.get("a_ub", args[1] if len(args) > 1 else None) or []
    return len(a_ub) * (len(a_ub[0]) if len(a_ub) else 0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_lp = name == "simplex.solve_lp"

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item,
                    _lp_cells(args, kwargs) if is_lp else None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if is_lp and not out.ok:
                span[FAILED] = True  # a non-optimal LP counts as failed
            return out

        return wrapper

    def install(self) -> None:
        for name, owner, attr in BOUNDARIES:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "item": s[ITEM], "detail": s[DETAIL],
                    "failed": s[FAILED],
                }) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer counts and times.  Self time is a span's duration minus
        its direct children's; busy time sums the outermost span of a layer."""
        spans = self.spans
        children = defaultdict(float)
        for s in spans:
            if s[PARENT] >= 0:
                children[s[PARENT]] += s[END] - s[START]

        def ancestors(i):
            p = spans[i][PARENT]
            while p >= 0:
                yield spans[p]
                p = spans[p][PARENT]

        count = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        under_select = defaultdict(int)
        under_hd = cells = failures = nonoptimal = 0
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            name = LAYER[s[NAME]]
            up = {a[NAME] for a in ancestors(i)}
            count[s[NAME]] += 1
            if name not in {LAYER[a] for a in up}:
                busy[name] += dur
            self_s[name] += dur - children[i]
            if s[NAME] == "simplex.solve_lp":
                cells += s[DETAIL]
                nonoptimal += s[FAILED]
                under_hd += "capacity.hd" in up
            elif s[NAME] in ("capacity.hd", "capacity.rate"):
                failures += s[FAILED]
                under_select[s[NAME]] += "selection.select_k" in up

        lps, hds, sels = count["simplex.solve_lp"], count["capacity.hd"], count["selection.select_k"]
        return {
            "simplex.calls": (lps, "count"),
            "simplex.busy_s": (busy["simplex"], "s"),
            "simplex.cells_mean": (cells / lps if lps else 0.0, "cells"),
            "simplex.nonoptimal": (nonoptimal, "count"),
            "capacity.hd_calls": (hds, "count"),
            "capacity.hd_busy_s": (busy["capacity.hd"], "s"),
            "capacity.hd_self_s": (self_s["capacity.hd"], "s"),
            "capacity.lps_per_hd": (under_hd / hds if hds else 0.0, "count"),
            "capacity.rate_calls": (count["capacity.rate"], "count"),
            "capacity.rate_busy_s": (busy["capacity.rate"], "s"),
            "capacity.failures": (failures, "count"),
            "selection.calls": (sels, "count"),
            "selection.self_s": (self_s["selection"], "s"),
            "selection.hd_per_call": (under_select["capacity.hd"] / sels if sels else 0.0, "count"),
            "selection.rate_per_call": (
                under_select["capacity.rate"] / sels if sels else 0.0, "count"),
            "network.subnet_calls": (count["network.subnetwork"], "count"),
            "network.busy_s": (busy["network"], "s"),
        }
