"""Randomized and deterministic self-verification suites.

Each suite hammers one family of proven statements on generated instances
and returns a :class:`SuiteReport`; a failure is a counterexample to
something that is mathematically guaranteed, so a healthy build passes every
suite at any seed.  All randomness flows from one seeded generator, so a
(suite, trials, seed, n_max) tuple always reproduces the same instances.

Suites (names are the CLI tokens):

* ``partition``   — rates and capacities are subadditive across any split of
  the relays into two camps (with naturally derived schedules).
* ``submodular``  — the threshold-set rearrangement inequality for
  max-weight functions, its k-wise exchange step, and submodularity itself.
* ``lemma3``      — completing leave-one-out subnetwork cuts into full
  cuts never increases the total value; includes the complement duality.
* ``guarantees``  — every selection strategy meets its proven floor.
* ``lemma5``      — the sum of leave-one-out reused-schedule rates is at
  least (n-1) times the full rate.
* ``fig2``        — the hard even family: full value 1, best drop-one
  fraction exactly (n-1)/n.
* ``theorem3``    — the same family's best-1 and best-2 fractions follow
  their closed forms toward the 1/4 and 1/2 limits.
* ``sparsify``    — ``sparsify_schedule`` returns an optimal schedule with
  at most n+1 states, as the cut-lattice proof in its docstring says.
* ``edge-delta``  — dropping relay i costs at most min(uplink_i, downlink_i).

``fig2`` and ``theorem3`` compare rational exhaustive selection with their
closed forms under ``==``.  Every other check asks ``_tolerance.below``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from ._tolerance import ROUNDOFF, SETTLED, below
from .capacity import (
    _effective_guard,
    _sparse_schedule,
    fixed_schedule_rate,
    hd_capacity,
    subnetwork_seeds,
)
from .errors import GuardExceeded
from .network import (
    DiamondNetwork,
    Schedule,
    derive_natural_schedule,
    gen_random,
    gen_worst_case,
    invert_mask,
    relays_from_mask,
)
from .selection import (
    drop_worst,
    select_drop_one_schedule_reuse,
    select_k_exhaustive,
    select_k_iterative,
)
from .submodular import (
    check_complement_duality,
    check_cut_completion_bound,
    check_kwise_intersection_inequality,
    check_threshold_sum_inequality,
    is_submodular,
    max_weight_function,
)

__all__ = ["SuiteReport", "SUITES", "run_suite"]


@dataclass
class SuiteReport:
    suite: str
    instances: int = 0
    passes: int = 0
    failures: list[dict] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, instance: str, ok: bool, expected: object, got: object) -> None:
        self.instances += 1
        if ok:
            self.passes += 1
        else:
            self.failures.append(
                {"instance": instance, "expected": str(expected), "got": str(got)}
            )

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "instances": self.instances,
            "passes": self.passes,
            "failures": list(self.failures),
            "seconds": round(self.seconds, 3),
        }


def _random_schedule(rng: np.random.Generator, n: int) -> Schedule:
    weights = rng.dirichlet(np.ones(1 << n))
    probs = {s: float(p) for s, p in enumerate(weights) if p > ROUNDOFF}
    total = sum(probs.values())
    return Schedule(n, {s: p / total for s, p in probs.items()})


def _random_net(rng: np.random.Generator, n: int) -> DiamondNetwork:
    return gen_random(n, seed=int(rng.integers(0, 2**31)))


def _proper_subset(rng: np.random.Generator, n: int) -> int:
    return int(rng.integers(1, (1 << n) - 1))


def _trials(
    rng: np.random.Generator, trials: int, n_max: int, n_min: int = 2
) -> Iterator[tuple[str, int, DiamondNetwork]]:
    """``(label, n, net)`` per trial: n drawn from ``n_min..max(n_min,
    n_max)``, then a random net on n relays.  Lazy, so the draws a suite
    makes for one trial come before the next trial's."""
    n_max = max(n_min, n_max)
    for t in range(trials):
        n = int(rng.integers(n_min, n_max + 1))
        yield f"trial{t:03d}(n={n})", n, _random_net(rng, n)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _suite_partition(trials: int, seed: int, n_max: int) -> SuiteReport:
    rep = SuiteReport("partition")
    rng = np.random.default_rng(seed)
    for label, n, net in _trials(rng, trials, n_max):
        sched = _random_schedule(rng, n)
        full_rate = fixed_schedule_rate(net, sched).value
        ok = True
        worst = ""
        for mask in range(1, (1 << n) - 1):
            comp = invert_mask(mask, n)
            lhs = full_rate
            rhs = (
                fixed_schedule_rate(
                    net.subnetwork(mask), derive_natural_schedule(sched, mask)
                ).value
                + fixed_schedule_rate(
                    net.subnetwork(comp), derive_natural_schedule(sched, comp)
                ).value
            )
            if below(rhs, lhs, SETTLED):
                ok = False
                worst = f"rate split {relays_from_mask(mask)}: {lhs} > {rhs}"
                break
        split = _proper_subset(rng, n)
        comp = invert_mask(split, n)
        full = hd_capacity(net)
        c_full = full.value
        c_parts = sum(
            hd_capacity(net.subnetwork(part), seeds=subnetwork_seeds(full, part)).value
            for part in (split, comp)
        )
        if below(c_parts, c_full, SETTLED):
            ok = False
            worst = f"capacity split {relays_from_mask(split)}: {c_full} > {c_parts}"
        rep.record(label, ok, "whole <= sum of parts", worst or "held")
    return rep


def _suite_submodular(trials: int, seed: int, n_max: int) -> SuiteReport:
    rep = SuiteReport("submodular")
    rng = np.random.default_rng(seed)

    # The worked example: three sets over 1..7 with f = max element.
    f = max_weight_function({i: i for i in range(1, 8)})
    family = [{1, 2, 5, 7}, {4, 5}, {2, 4, 5, 6}]
    chk = check_threshold_sum_inequality(f, family)
    rep.record(
        "worked-example",
        chk.holds and chk.lhs == 18 and chk.rhs == 17,
        "18 >= 17",
        f"{chk.lhs} >= {chk.rhs}",
    )

    ground = list(range(1, 2 * max(2, n_max) + 1))
    for t in range(trials):
        m = int(rng.integers(2, 6))
        weights = {x: float(w) for x, w in zip(ground, rng.uniform(0, 10, len(ground)))}
        f = max_weight_function(weights)
        fam = [
            set(int(x) for x in rng.choice(ground, size=rng.integers(0, len(ground) + 1), replace=False))
            for _ in range(m)
        ]
        chk = check_threshold_sum_inequality(f, fam)
        ok = chk.holds
        detail = f"{chk.lhs} >= {chk.rhs}"
        extra = set(
            int(x) for x in rng.choice(ground, size=rng.integers(0, len(ground) + 1), replace=False)
        )
        for k in range(len(fam)):
            step = check_kwise_intersection_inequality(f, fam, extra, k)
            if not step.holds:
                ok = False
                detail = f"exchange step k={k}: {step.lhs} < {step.rhs}"
                break
        if t % 10 == 0:
            small = {x: weights[x] for x in ground[:5]}
            sub = is_submodular(max_weight_function(small), small)
            if not sub.holds:
                ok = False
                detail = f"max-weight not submodular: witness {sub.witness}"
        rep.record(f"trial{t:03d}(m={m})", ok, "inequalities hold", detail)
    return rep


def _suite_lemma3(trials: int, seed: int, n_max: int) -> SuiteReport:
    rep = SuiteReport("lemma3")
    rng = np.random.default_rng(seed)

    # Exhaustive sweep at n=3: all 4^3 combinations of per-relay cuts.
    net3 = _random_net(rng, 3)
    all_ok = True
    detail = "held"
    others = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
    for c1 in range(4):
        for c2 in range(4):
            for c3 in range(4):
                cuts = [
                    {x for x, bit in zip(others[i], (1, 2)) if c & bit}
                    for i, c in ((1, c1), (2, c2), (3, c3))
                ]
                chk = check_cut_completion_bound(net3, cuts)
                if not chk.holds or not check_complement_duality(cuts, 3):
                    all_ok = False
                    detail = f"cuts {cuts}: {chk.lhs} < {chk.rhs}"
    rep.record("exhaustive-n3", all_ok, "all 64 cut combinations hold", detail)

    for label, n, net in _trials(rng, trials, n_max, n_min=3):
        cuts = []
        for i in range(1, n + 1):
            pool = [x for x in range(1, n + 1) if x != i]
            take = int(rng.integers(0, n))
            cuts.append(set(int(x) for x in rng.choice(pool, size=min(take, n - 1), replace=False)))
        chk = check_cut_completion_bound(net, cuts)
        dual_ok = check_complement_duality(cuts, n)
        rep.record(
            label,
            chk.holds and dual_ok,
            "completion bound + duality",
            f"{chk.lhs} >= {chk.rhs}, duality={dual_ok}",
        )
    return rep


def _suite_guarantees(trials: int, seed: int, n_max: int) -> SuiteReport:
    rep = SuiteReport("guarantees")
    rng = np.random.default_rng(seed)
    for label, n, net in _trials(rng, trials, n_max):
        ok = True
        detail = "all floors met"
        for k in range(1, n + 1):
            wd = drop_worst(net, k)
            if wd.below_bound:
                ok, detail = False, f"worst-drop k={k}: {wd.fraction} < {wd.bound}"
                break
            it = select_k_iterative(net, k)
            if it.below_bound:
                ok, detail = False, f"iterative k={k}: {it.fraction} < {it.bound}"
                break
            ex = select_k_exhaustive(net, k)
            if ex.below_bound:
                ok, detail = False, f"exhaustive k={k}: {ex.fraction} < {ex.bound}"
                break
            if below(ex.value, it.value, SETTLED):
                ok, detail = False, f"exhaustive k={k} below iterative: {ex.value} < {it.value}"
                break
        if ok and n >= 2:
            sr = select_drop_one_schedule_reuse(net)
            if sr.below_bound:
                ok, detail = False, f"schedule-reuse: {sr.fraction} < {sr.bound}"
        rep.record(label, ok, "fraction >= bound", detail)
    return rep


def _suite_lemma5(trials: int, seed: int, n_max: int) -> SuiteReport:
    rep = SuiteReport("lemma5")
    rng = np.random.default_rng(seed)
    for label, n, net in _trials(rng, trials, n_max):
        sched = _random_schedule(rng, n)
        full = fixed_schedule_rate(net, sched).value
        total = 0.0
        for i in range(1, n + 1):
            keep = [p for p in range(1, n + 1) if p != i]
            total += fixed_schedule_rate(
                net.subnetwork(keep), derive_natural_schedule(sched, keep)
            ).value
        ok = not below(total, (n - 1) * full, SETTLED)
        rep.record(
            label,
            ok,
            f"sum of leave-one-out rates >= {(n - 1)} * {full}",
            f"{total}",
        )
    return rep


def _suite_fig2(trials: int, seed: int, n_max: int) -> SuiteReport:
    rep = SuiteReport("fig2")
    for n in range(2, 11):
        best = select_k_exhaustive(gen_worst_case(n), n - 1, arithmetic="rational")
        rep.record(
            f"n={n}",
            best.full_value == 1 and best.fraction == Fraction(n - 1, n),
            f"C=1, fraction={n - 1}/{n}",
            f"C={best.full_value}, best drop-one fraction={best.fraction}",
        )
    return rep


def _suite_theorem3(trials: int, seed: int, n_max: int) -> SuiteReport:
    rep = SuiteReport("theorem3")
    best1_seen: list[Fraction] = []
    best2_seen: list[Fraction] = []
    for t in range(1, 6):
        n = 4 * t - 2
        net = gen_worst_case(n)
        b1, b2 = (select_k_exhaustive(net, k, arithmetic="rational") for k in (1, 2))
        expect1 = Fraction(t, 4 * t - 2)
        expect2 = Fraction(t, 2 * t - 1)
        best1_seen.append(b1.fraction)
        best2_seen.append(b2.fraction)
        rep.record(
            f"t={t}(n={n})",
            b1.full_value == b2.full_value == 1
            and b1.fraction == expect1
            and b2.fraction == expect2,
            f"full=1, best1={expect1}, best2={expect2}",
            f"full={b1.full_value}, best1={b1.fraction}, best2={b2.fraction}",
        )
    # The family is built to make small subsets progressively weaker: the
    # best-single fraction decreases toward 1/4 and the best-pair fraction
    # toward 1/2, both from above, as the network grows.
    falling1 = all(a >= b for a, b in zip(best1_seen, best1_seen[1:]))
    falling2 = all(a >= b for a, b in zip(best2_seen, best2_seen[1:]))
    above = all(f > Fraction(1, 4) for f in best1_seen) and all(
        f > Fraction(1, 2) for f in best2_seen
    )
    near = (
        abs(best1_seen[-1] - Fraction(1, 4)) < Fraction(1, 20)
        and abs(best2_seen[-1] - Fraction(1, 2)) < Fraction(1, 10)
    )
    rep.record(
        "monotone-limits",
        falling1 and falling2 and above and near,
        "fractions decrease toward the 1/4 and 1/2 floors",
        f"best1=[{', '.join(map(str, best1_seen))}], best2=[{', '.join(map(str, best2_seen))}]",
    )
    return rep


def _suite_sparsify(trials: int, seed: int, n_max: int) -> SuiteReport:
    rep = SuiteReport("sparsify")
    rng = np.random.default_rng(seed)
    for label, n, net in _trials(rng, trials, n_max):
        res = hd_capacity(net)
        cap, sched = res.value, _sparse_schedule(net, res)
        if sched is None:
            rep.record(label, False, "sparse schedule found", "None")
            continue
        rate = fixed_schedule_rate(net, sched).value
        near = not (below(rate, cap, SETTLED) or below(cap, rate, SETTLED))
        ok = len(sched.support) <= n + 1 and near
        rep.record(
            label,
            ok,
            f"<= {n + 1} states at rate {cap}",
            f"{len(sched.support)} states at rate {rate}",
        )
    return rep


def _suite_edge_delta(trials: int, seed: int, n_max: int) -> SuiteReport:
    rep = SuiteReport("edge-delta")
    rng = np.random.default_rng(seed)
    for label, n, net in _trials(rng, trials, n_max):
        full = hd_capacity(net)
        cap = full.value
        ok = True
        detail = "all drops within delta"
        for i in range(1, n + 1):
            keep = invert_mask(1 << (i - 1), n)
            sub_cap = hd_capacity(net.subnetwork(keep), seeds=subnetwork_seeds(full, keep)).value
            delta = min(net.uplinks[i - 1], net.downlinks[i - 1])
            if below(sub_cap, cap - delta, SETTLED):
                ok = False
                detail = f"drop {i}: {sub_cap} < {cap} - {delta}"
                break
        rep.record(label, ok, "loss <= min(uplink, downlink)", detail)
    return rep


SUITES = {
    "partition": _suite_partition,
    "submodular": _suite_submodular,
    "lemma3": _suite_lemma3,
    "guarantees": _suite_guarantees,
    "lemma5": _suite_lemma5,
    "fig2": _suite_fig2,
    "theorem3": _suite_theorem3,
    "sparsify": _suite_sparsify,
    "edge-delta": _suite_edge_delta,
}


#: Suites that draw a schedule over, or solve over, all ``2^n`` states.
_EXPONENTIAL = frozenset({"partition", "lemma5", "guarantees", "sparsify", "edge-delta"})


def run_suite(suite: str, trials: int = 100, seed: int = 0, n_max: int = 5) -> SuiteReport:
    """Run one named suite and return its report (with wall time filled).

    ``trials`` below 1 or a negative ``seed`` raises ``ValueError`` for
    every suite, also for the ones that run fixed instances and ignore
    them.  The ``_EXPONENTIAL`` suites refuse an ``n_max`` past the LP
    guard with ``GuardExceeded`` before their first instance."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; have {sorted(SUITES)}")
    if trials < 1:
        # A suite with no instances has no failures and would pass vacuously.
        raise ValueError(f"bad --trials {trials}, want at least 1")
    if seed < 0:
        raise ValueError(f"bad --seed {seed}, want at least 0")
    if suite in _EXPONENTIAL:
        guard = _effective_guard()
        if n_max > guard:
            raise GuardExceeded(f"suite {suite} with n_max {n_max} exceeds the LP guard {guard}")
    start = time.perf_counter()
    rep = SUITES[suite](trials, seed, n_max)
    rep.seconds = time.perf_counter() - start
    return rep
