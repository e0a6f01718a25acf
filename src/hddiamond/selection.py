"""Relay-subset selection with provable fraction-of-capacity guarantees.

Four strategies pick k of the n relays:

* ``worst-drop``   — repeatedly delete the relay whose single-relay capacity
  is smallest.  Cheap (n single-relay closed forms in all) and guarantees
  the surviving subnetwork keeps at least 2^-(n-k) of the capacity — 1/2 for
  k = n-1, which is tight (see ``gen_half_tight``).
* ``iterative``    — take an optimal schedule of the full network,
  marginalize it onto each leave-one-out subnetwork and keep the best; repeat
  n-k times, re-deriving the schedule each round.  Certifies an actual
  *rate* of at least k/n of the full value (each round keeps (m-1)/m of the
  current one).
* ``schedule-reuse`` — iterative's k = n-1 case, a single round: the kept
  rate is at least (n-1)/n of the full value.
* ``exhaustive``   — the best size-k subnetwork, visited best first by one
  certified ceiling per subset (the smaller of its FD value and the full
  solve's cut-mixture bound) and solved only where it could win.  Dominates
  everything above; its guarantee combines the k/n rate floor
  with a capacity floor of 1/2 (k >= 2) or 1/4 (k = 1).

Every strategy takes the full network's solve from one
:func:`capacity._hd_capacity` call, so past the LP guard every strategy
answers where its pin closes, and refuses elsewhere.

Capacity-valued strategies report ``value_kind="capacity"``; the
schedule-driven ones certify rates (``value_kind="rate"``), with
``full_value`` the same yardstick the guarantee is stated against (the HD
capacity, resp. the reused schedule's full-network rate — identical when
the schedule is the optimal one).
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from ._tolerance import AGREE, SETTLED, _is_exact, below
from .capacity import (
    CapacityResult,
    _effective_guard,
    _exact_links,
    _hd_capacity,
    _subnetwork_ceilings,
    fd_capacity_fast,
    fixed_schedule_rate,
    hd_capacity,
    single_relay_capacity,
    subnetwork_seeds,
)
from .errors import BoundViolation, GuardExceeded
from .network import (
    DiamondNetwork,
    LinkValue,
    Schedule,
    derive_natural_schedule,
    is_unbounded,
    mask_from_relays,
)

__all__ = [
    "SelectionReport",
    "STRATEGIES",
    "worst_relay_index",
    "drop_worst",
    "select_drop_one_schedule_reuse",
    "select_k_iterative",
    "select_k_exhaustive",
    "select_k",
    "guarantee_bound",
]

STRATEGIES = ("worst-drop", "schedule-reuse", "iterative", "exhaustive")


@dataclass(frozen=True)
class SelectionReport:
    """What a selection strategy found.

    ``selected`` holds original relay labels, ascending.  ``value`` is the
    kept subnetwork's capacity (value_kind "capacity") or certified rate
    (value_kind "rate"); ``full_value`` is the matching full-network
    yardstick, ``fraction`` their ratio (1 when both are 0), and ``bound``
    the proven floor for the fraction — None when it does not apply (forced
    removals).  ``notes`` records anything unusual.
    """

    strategy: str
    selected: tuple[int, ...]
    k: int
    value_kind: str
    value: LinkValue
    full_value: LinkValue
    fraction: LinkValue
    bound: Fraction | None
    notes: tuple[str, ...] = ()

    @property
    def below_bound(self) -> bool:
        """Whether ``fraction`` falls short of the proven ``bound``: exactly
        when both are exact, else by more than the ``AGREE`` slack.  False
        when no bound applies."""
        return self.bound is not None and below(self.fraction, self.bound, AGREE)


def _ratio(value: LinkValue, full: LinkValue) -> LinkValue:
    if full == 0:
        return Fraction(1)
    if isinstance(full, float) and math.isinf(full):
        return Fraction(1) if isinstance(value, float) and math.isinf(value) else 0.0
    if isinstance(value, (int, Fraction)) and isinstance(full, (int, Fraction)):
        return Fraction(value) / Fraction(full)
    return float(value) / float(full)


def _report(strategy, kind, k, value, full_value, selected, bound, notes=()) -> SelectionReport:
    """The report of a strategy's answer, with its kept fraction."""
    fraction = _ratio(value, full_value)
    return SelectionReport(strategy, selected, k, kind, value, full_value, fraction, bound, notes)


def guarantee_bound(strategy: str, n: int, k: int) -> Fraction:
    """Proven floor on the kept fraction for a strategy at (n, k).  Every
    strategy calls it first, so it is also their one check of k."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if strategy == "schedule-reuse" and k != n - 1:
        raise ValueError("schedule-reuse only drops a single relay")
    if k == n:
        return Fraction(1)
    if strategy == "worst-drop":
        return Fraction(1, 1 << (n - k))
    if strategy == "schedule-reuse":
        return Fraction(n - 1, n)
    if strategy == "iterative":
        return Fraction(k, n)
    # exhaustive: the best subnetwork beats both the iterative rate floor
    # and the capacity floor (1/4 for a single relay, 1/2 for more).
    floor = Fraction(1, 4) if k == 1 else Fraction(1, 2)
    return max(Fraction(k, n), floor)


def _ceiling_rules_out(ceiling: LinkValue, best: LinkValue) -> bool:
    """Whether a subnetwork's ceiling shows it cannot beat the incumbent
    value ``best``.  Exact values compare strictly.  In float, a schedule's
    probabilities sum to 1 only within ``AGREE``, so a float value can sit
    that far above its exact one, and the ceiling must fall short by more.
    An unbounded incumbent reads no slack: a finite ceiling cannot beat it,
    and an unbounded one can only tie it."""
    exact = is_unbounded(best) or _is_exact(ceiling) and _is_exact(best)
    return below(ceiling, best, 0 if exact else AGREE * max(1.0, abs(ceiling)))


def _best_subnetwork(
    net: DiamondNetwork,
    masks: Sequence[int],
    full: CapacityResult,
    mixture: dict[int, LinkValue],
    arithmetic: str,
) -> tuple[LinkValue, tuple[int, ...]]:
    """The largest capacity among the subnetworks of ``net`` kept by
    ``masks``, with its relay labels; ties keep the first mask.

    ``full`` is ``net``'s own solve: the mask of every relay reuses it, and
    every other subnetwork solve is seeded from it (see
    :func:`subnetwork_seeds`).

    With more than one mask, each gets a certified ceiling on its capacity:
    the smaller of its FD value and the bound from ``full``'s cut mixture
    (:func:`capacity._subnetwork_ceilings`), or its FD value alone when the
    mixture is empty (the pin past the guard, an unbounded full value) or,
    in float, with a link too large for float tables.  The masks are
    visited best first, by descending ceiling (ties in the given order),
    and the visit stops at the first ceiling below the incumbent: no later
    mask can win.  A solved mask that ties the incumbent replaces it only
    when it comes earlier in the given order, so the answer does not
    depend on the visit order.
    """
    whole = (1 << net.n) - 1
    ceilings = [None]  # a lone mask is solved without one
    if len(masks) > 1 and mixture:
        with suppress(OverflowError):
            ceilings = _subnetwork_ceilings(net, masks, mixture, arithmetic == "rational")
    if len(ceilings) < len(masks):  # no mixture, or float tables overflow
        ceilings = [fd_capacity_fast(net.subnetwork(keep)) for keep in masks]
    best: tuple[LinkValue, int, tuple[int, ...]] | None = None
    for i in sorted(range(len(masks)), key=ceilings.__getitem__, reverse=True):  # stable
        if best is not None and _ceiling_rules_out(ceilings[i], best[0]):
            break
        keep = masks[i]
        if keep == whole:
            value, labels = full.value, net.labels
        else:
            sub = net.subnetwork(keep)
            value = hd_capacity(sub, arithmetic, seeds=subnetwork_seeds(full, keep)).value
            labels = sub.labels
        if best is None or value > best[0] or value == best[0] and i < best[1]:
            best = value, i, labels
    return best[0], best[2]


def worst_relay_index(net: DiamondNetwork) -> int:
    """1-based position (within this network) of the relay with the smallest
    single-relay capacity; ties break to the lowest position."""
    return _by_single_capacity(net)[0] + 1


def _by_single_capacity(net: DiamondNetwork) -> list[int]:
    """0-based relay positions, ascending by (single-relay capacity, position)."""
    singles = [single_relay_capacity(l, r) for l, r in zip(net.uplinks, net.downlinks)]
    return sorted(range(net.n), key=lambda i: (singles[i], i))


def _resolve_forced(net: DiamondNetwork, force_remove: Iterable[int] | None) -> list[int]:
    forced = list(force_remove or ())
    labels = set(net.labels)
    for lab in forced:
        if lab not in labels:
            raise ValueError(f"cannot force-remove unknown relay {lab!r}")
    if len(set(forced)) != len(forced):
        raise ValueError("force_remove lists a relay twice")
    return forced


def drop_worst(
    net: DiamondNetwork,
    k: int,
    *,
    force_remove: Iterable[int] | None = None,
    arithmetic: str = "float",
) -> SelectionReport:
    """Keep k relays by repeatedly deleting the worst single relay.

    ``force_remove`` (original labels) overrides the choice for the first
    removals, in the order given; the remaining rounds fall back to the
    worst-single rule.  Forced removals void the proven bound (reported as
    None): the guarantee only covers the strategy's own choices.
    """
    n = net.n
    bound: Fraction | None = guarantee_bound("worst-drop", n, k)
    forced = _resolve_forced(net, force_remove)
    if len(forced) > n - k:
        raise ValueError(f"cannot force {len(forced)} removals when dropping {n - k}")

    # Single-relay capacities stay as relays go, so one sort gives every round.
    gone = {net.labels.index(lab) for lab in forced}
    gone.update([i for i in _by_single_capacity(net) if i not in gone][: n - k - len(gone)])
    keep = sum(1 << i for i in range(n) if i not in gone)

    full, mixture = _hd_capacity(net, arithmetic, ((), ()))
    value, selected = _best_subnetwork(net, [keep], full, mixture, arithmetic)
    notes: tuple[str, ...] = ()
    if forced:
        bound = None
        notes = (
            f"forced removal of relays {tuple(forced)}: the worst-drop bound "
            "does not apply",
        )
    return _report("worst-drop", "capacity", k, value, full.value, selected, bound, notes)


def _reuse_round(
    net: DiamondNetwork, sched: Schedule
) -> tuple[int, DiamondNetwork, Schedule, LinkValue]:
    """One leave-one-out round: returns (dropped position, subnetwork,
    derived schedule, certified rate) for the best relay to drop under the
    given schedule; ties keep the lowest dropped position."""
    best = None
    for pos in range(1, net.n + 1):
        keep = [p for p in range(1, net.n + 1) if p != pos]
        sub = net.subnetwork(keep)
        sub_sched = derive_natural_schedule(sched, keep)
        rate = fixed_schedule_rate(sub, sub_sched).value
        if best is None or rate > best[3]:
            best = (pos, sub, sub_sched, rate)
    return best


def select_drop_one_schedule_reuse(
    net: DiamondNetwork,
    schedule: Schedule | None = None,
    *,
    arithmetic: str = "float",
) -> SelectionReport:
    """Drop one relay, reusing (the marginal of) the full network's schedule:
    one round of :func:`select_k_iterative`, so it needs at least 2 relays.

    Certifies value_kind "rate": the reported value is what the kept n-1
    relays really achieve under the derived schedule, at least (n-1)/n of
    the schedule's full-network rate.  With the default schedule (an optimal
    one) the yardstick equals the HD capacity.
    """
    report = select_k_iterative(net, net.n - 1, schedule, arithmetic=arithmetic)
    return replace(report, strategy="schedule-reuse")


def select_k_iterative(
    net: DiamondNetwork,
    k: int,
    schedule: Schedule | None = None,
    *,
    arithmetic: str = "float",
) -> SelectionReport:
    """Drop relays one at a time, re-deriving the reused schedule each round.

    Round m -> m-1 keeps at least (m-1)/m of the current certified rate
    (checked, BoundViolation if numerically breached), so the final rate
    keeps at least k/n of the starting full-network rate (exact in rational mode).

    In rational mode a given ``schedule`` must be exact (int or ``Fraction``
    probabilities), else ``ValueError``: a float schedule's probabilities
    need not sum to exactly 1, so rating it exactly would rate another
    schedule.
    """
    bound = guarantee_bound("iterative", net.n, k)
    if arithmetic == "rational":
        if schedule is not None and not schedule.is_exact:
            raise ValueError("rational selection needs an exact schedule, got float probabilities")
        net = _exact_links(net)
    if schedule is None:
        schedule = _hd_capacity(net, arithmetic, ((), ()))[0].optimal_schedule
    full_rate = fixed_schedule_rate(net, schedule).value

    current, cur_sched = net, schedule
    rate = full_rate
    while current.n > k:
        m = current.n
        _, sub, sub_sched, new_rate = _reuse_round(current, cur_sched)
        floor = Fraction(m - 1, m) * rate
        if below(new_rate, floor, SETTLED):
            raise BoundViolation(
                f"round {m}->{m - 1} rate {new_rate} fell below floor {floor}"
            )
        current, cur_sched, rate = sub, sub_sched, new_rate
    return _report("iterative", "rate", k, rate, full_rate, current.labels, bound)


def select_k_exhaustive(
    net: DiamondNetwork,
    k: int,
    *,
    arithmetic: str = "float",
) -> SelectionReport:
    """The best size-k subnetwork (ties: smallest relay set), as if every
    one were solved.  Guarded on estimated work, before anything is
    solved: for ``k < n`` the subnetworks' ``C(n, k) * 2^k`` scan cells may
    not exceed the ``2^g`` of one scan at the relay guard g (16, or
    HDDIAMOND_LP_GUARD); the same splits bound the one pass that computes
    every subnetwork's ceiling.  At ``k == n`` only the full solve's guard
    applies, and the full solve is the answer.  See
    :func:`_best_subnetwork` for the seeds and the best-first visit by
    ceiling.
    """
    n = net.n
    bound = guarantee_bound("exhaustive", n, k)
    g, cells = _effective_guard(), math.comb(n, k) << k
    if k < n and cells > 1 << g:
        raise GuardExceeded(
            f"select_k_exhaustive on {n} relays with k={k} exceeds guard {g}: "
            f"C({n},{k})*2^{k} = {cells} subnetwork cells > 2^{g}"
        )
    full, mixture = _hd_capacity(net, arithmetic, ((), ()))
    masks = [mask_from_relays(c, n) for c in combinations(range(1, n + 1), k)]
    value, selected = _best_subnetwork(net, masks, full, mixture, arithmetic)
    return _report("exhaustive", "capacity", k, value, full.value, selected, bound)


def select_k(
    net: DiamondNetwork,
    k: int,
    strategy: str = "exhaustive",
    *,
    schedule: Schedule | None = None,
    force_remove: Iterable[int] | None = None,
    arithmetic: str = "float",
) -> SelectionReport:
    """Dispatch to a strategy by name (the CLI entry point).  The strategy
    and k are checked by :func:`guarantee_bound`."""
    guarantee_bound(strategy, net.n, k)
    if schedule is not None and strategy in ("worst-drop", "exhaustive"):
        raise ValueError("schedule only applies to the schedule-reuse and iterative strategies")
    if strategy == "worst-drop":
        return drop_worst(net, k, force_remove=force_remove, arithmetic=arithmetic)
    if force_remove:
        raise ValueError("force_remove only applies to the worst-drop strategy")
    if strategy == "schedule-reuse":
        return select_drop_one_schedule_reuse(net, schedule, arithmetic=arithmetic)
    if strategy == "iterative":
        return select_k_iterative(net, k, schedule, arithmetic=arithmetic)
    return select_k_exhaustive(net, k, arithmetic=arithmetic)
