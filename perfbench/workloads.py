"""Inputs of the four workloads.

Each workload is a fixed corpus of calls, the same for every seed; the seed
shuffles their order.  The timed loop runs whole passes over the corpus, so
every run measures exactly the same calls, and runs differ only in order
and in the machine's own speed, which already drifts by several percent
from one run to the next.  Seeded *samples* of networks would add their own
spread: p50 and p90 of a few hundred calls of very different cost move by
10-20% from one sample to the next.

The mix of calls also sets where the latency percentiles fall: p50 and p90
land inside a group of similar calls, not in the gap between two groups,
where one call more or less would move them a long way.

Each call goes through ``hddiamond.<name>`` at call time, so a traced run can
swap the package's functions for wrappers without touching these items.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable

import numpy as np

import hddiamond

import check

#: The workloads, and why each one was chosen.
WHY = {
    "solve-float": "hd_capacity on random nets n=6-12: the simplex takes most of the time "
    "and the 2^n best-response scans grow with n",
    "solve-exact": "rational hd_capacity on random nets n=4-6 and the hard families n<=10: "
    "the same layers on Fraction arrays, 30-60x slower per solve",
    "select": "select_k, all four strategies over every k, on random nets n=6-9: "
    "thousands of tiny LPs where per-call set-up outweighs pivots",
    "rate-large": "fixed_schedule_rate on the hard family (exact, n=12-18) and random "
    "sparse schedules (float, n=16-20): no LP, the 2^n cut scan is the whole cost",
}

#: Random networks of each corpus, as (relay count, how many): the nets
#: ``gen_random(n, u)`` for u = 0, 1, ...
SOLVE_FLOAT_NETS = ((6, 12), (7, 12), (8, 12), (9, 24), (10, 12), (11, 12), (12, 12))
SOLVE_EXACT_NETS = ((4, 20), (5, 24), (6, 4))
#: select runs every strategy at every valid k on two nets per relay count,
#: and only the cheap strategies on SELECT_LIGHT more nets, so that p90
#: falls among the mid-cost calls below the heaviest ones.
SELECT_N = (6, 7, 8, 9)
SELECT_LIGHT = {6: 2, 7: 2}
RATE_FLOAT_NETS = ((16, 20), (17, 14), (18, 4), (19, 2), (20, 8))
#: The deterministic hard families: solve-exact solves each of them
#: FAMILY_REPEATS times per pass, rate-large rates each once.
WORST_CASE_N = (5, 6, 7, 8, 9, 10)
HALF_TIGHT_N = (4, 6, 8, 10)
FAMILY_REPEATS = 2
RATE_EXACT_N = (12, 14, 16, 18)

#: Every ``gen_random(n, u)`` with n = 6..12 and u < 400 was solved in
#: float when the corpora were chosen.  Float hd_capacity exhausted its
#: pivot budget (about 40 s, then SolverFailure) only on the nets in STALLS,
#: which no corpus holds (the corpora use u < 24); the traced run's probe
#: solves them instead.
STALLS = ((12, 206),)

#: The two inputs on which float hd_capacity is known to fail, and the
#: link alphabet of the wide-magnitude draws around them.
PINNED_WIDE = (
    ((1e-7, 1e-3, 1, 1e-7, 3), (1e7, 1e3, 1e7, 0.5, 1)),
    ((1e6, 0), (1e-3, 1e7)),
)
WIDE_LINKS = (0.0,) + tuple(10.0**e for e in range(-7, 8)) + (math.inf,)
WIDE_DRAWS = 40


@dataclass(frozen=True)
class Item:
    """One top-level call, ``hddiamond.<call>(*args)``.  ``check(output)``
    returns None when the output is certified, else the reason it is not."""

    call: str
    args: tuple
    check: Callable[[Any], str | None]

    def run(self):
        return getattr(hddiamond, self.call)(*self.args)


def _corpus_nets(spec) -> list[hddiamond.DiamondNetwork]:
    return [hddiamond.gen_random(n, u) for n, count in spec for u in range(count)]


def _float_solve(net) -> Item:
    return Item("hd_capacity", (net,),
                lambda out: check.check_capacity_float(net, out))


def _exact_solve(net) -> Item:
    return Item("hd_capacity", (net, "rational"),
                lambda out: check.check_capacity_exact(net, out))


def _exact_links(net: hddiamond.DiamondNetwork) -> hddiamond.DiamondNetwork:
    """The same network with every link cut to a denominator <= 100."""
    cut = lambda v: Fraction(v).limit_denominator(100)
    return hddiamond.DiamondNetwork(
        tuple(cut(v) for v in net.uplinks), tuple(cut(v) for v in net.downlinks)
    )


def _family_items() -> list[Item]:
    nets = [hddiamond.gen_worst_case(n) for n in WORST_CASE_N]
    nets += [hddiamond.gen_half_tight(n) for n in HALF_TIGHT_N]
    return [_exact_solve(net) for net in nets]


def _hard_rate_items() -> list[Item]:
    items = []
    for n in RATE_EXACT_N:
        net = hddiamond.gen_worst_case(n)
        sched = hddiamond.gen_two_phase_schedule(n)
        items.append(Item(
            "fixed_schedule_rate", (net, sched),
            lambda out, net=net, sched=sched: check.check_rate_exact(
                net, sched, out, hddiamond.fd_capacity_fast(net)),
        ))
    return items


def _float_rate(net, index: int) -> Item:
    """The net under a random schedule on at most n + 1 states."""
    n = net.n
    rng = np.random.default_rng(index)
    k = int(rng.integers(1, n + 2))
    states = rng.choice(1 << n, size=k, replace=False)
    probs = rng.dirichlet(np.ones(k))
    sched = hddiamond.Schedule(n, {int(s): float(p) for s, p in zip(states, probs)})
    return Item("fixed_schedule_rate", (net, sched),
                lambda out: check.check_rate_float(net, sched, out))


def _select_items() -> list[Item]:
    """Of the first two nets per relay count, one takes the odd k and the
    other the even k, for every strategy; each light net takes every k for
    worst-drop and iterative.  schedule-reuse (k = n-1 only) runs on each
    net.  Each network's certified interval is solved once per run."""
    calls = []
    for n in SELECT_N:
        for j, net in enumerate(_corpus_nets(((n, 2 + SELECT_LIGHT.get(n, 0)),))):
            calls.append((net, "schedule-reuse", n - 1))
            if j < 2:
                calls += [(net, strategy, k)
                          for strategy in ("worst-drop", "iterative", "exhaustive")
                          for k in range(1, n + 1) if k % 2 != j]
            else:
                calls += [(net, strategy, k)
                          for strategy in ("worst-drop", "iterative")
                          for k in range(1, n + 1)]
    intervals = lru_cache(maxsize=None)(check.game_interval)
    return [
        Item("select_k", (net, k, strategy),
             lambda out, net=net, k=k, strategy=strategy: check.check_selection(
                 net, strategy, k, out, intervals))
        for net, strategy, k in calls
    ]


def build(workload: str, seed: int) -> list[Item]:
    """One pass over the workload's corpus, in this seed's order."""
    if workload == "solve-float":
        items = [_float_solve(net) for net in _corpus_nets(SOLVE_FLOAT_NETS)]
    elif workload == "solve-exact":
        items = [_exact_solve(_exact_links(net)) for net in _corpus_nets(SOLVE_EXACT_NETS)]
        items += _family_items() * FAMILY_REPEATS
    elif workload == "select":
        items = _select_items()
    elif workload == "rate-large":
        items = _hard_rate_items() + [
            _float_rate(net, i) for i, net in enumerate(_corpus_nets(RATE_FLOAT_NETS))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, sorted(WHY).index(workload)])
    return [items[i] for i in rng.permutation(len(items))]


def probe(seed: int) -> list[Item]:
    """Inputs on which float hd_capacity is known to fail, solved by the
    traced run of solve-float: the stalls, the two pinned wide-magnitude
    inputs and seeded wide-magnitude draws (n <= 6, links from
    {0, 1e-7 .. 1e7, inf})."""
    rng = random.Random(seed)
    nets = [hddiamond.gen_random(n, u) for n, u in STALLS]
    nets += [hddiamond.DiamondNetwork(up, down) for up, down in PINNED_WIDE]
    for _ in range(WIDE_DRAWS):
        n = rng.randint(2, 6)
        nets.append(hddiamond.DiamondNetwork(
            tuple(rng.choice(WIDE_LINKS) for _ in range(n)),
            tuple(rng.choice(WIDE_LINKS) for _ in range(n)),
        ))
    return [_float_solve(net) for net in nets]
