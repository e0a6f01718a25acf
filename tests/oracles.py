"""Test oracles: plain, slow routes to numbers the library computes faster.

* :func:`reference_tables` and :func:`reference_scan` are the subset-max
  tables and the cut scan on plain values, ``Fraction`` or float, with no
  integer scale: the reference the library's integer scans are checked
  against.
* :func:`chain_min_cut` is the s-t min cut of a fixed schedule's rate on a
  graph with one chain of nodes per state and side, the construction
  :func:`hddiamond.capacity._min_cut` replaced by one node per distinct
  threshold term: the same cut function on other nodes and paths, so the
  two flows must agree on the value and the lowest minimizing cut.
* :func:`dual_capacity` is the adversary's side of the scheduling game,
  solved as one LP over the full payoff matrix.  It is an independent route
  to the number :func:`hddiamond.hd_capacity` computes by strategy
  generation: it solves the transposed game (the cut player's LP) rather
  than reading the cut mixture off the schedule LP's prices, and certifies
  its value from that mixture by a reference scan over every state.
* :func:`dense_fd_capacity` is the full-duplex minimum over all ``2**n``
  cuts of the links' exact values, with every exactly tight cut and the
  value rounded once for float links: the reference
  :func:`hddiamond.fd_capacity`'s integer threshold scan is checked against
  (:func:`fd_mismatch`).  It reads the reference tables, so it shares no
  code with that scan.
* :func:`cold_exhaustive` is exhaustive selection as a plain loop: every
  size-k subnetwork solved from scratch, none skipped.
* :func:`round_by_round_kept` is worst-drop selection's relay choice as one
  removal per round, the worst single relay found again in each round.
* :func:`pairwise_leaving_row` is the simplex's leaving-row choice as a
  per-row scan that breaks near-ties between two rows at a time.
* :func:`fraction_simplex_pivots` is the exact simplex on a tableau of
  ``Fraction`` entries, with the library's pivoting rules: on the system
  scaled to integers, the pivots the fraction-free integer tableau must
  take too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from hddiamond import (
    UNBOUNDED,
    CapacityResult,
    DiamondNetwork,
    GuardExceeded,
    LinkValue,
    SelectionReport,
    fd_capacity,
    guarantee_bound,
    hd_capacity,
    is_unbounded,
    single_relay_capacity,
)
from hddiamond.capacity import (
    _check_arithmetic,
    _clean_weights,
    _effective_guard,
    _net_is_exact,
    _normalized_floor_lp,
    _unit_scaled,
)
from hddiamond.flow import FlowGraph, max_flow
from hddiamond.selection import _ratio
from hddiamond.simplex import _TOL

_DUAL_GUARD = 10  # dual_capacity materializes a dense (cuts x states) matrix


def _plain(v: LinkValue, exact: bool) -> LinkValue:
    if not exact:
        return float(v)
    return v if is_unbounded(v) else Fraction(v)


def reference_tables(net: DiamondNetwork, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """(maxl, maxr): the largest uplink and downlink over every relay
    subset, as float64 arrays or as object arrays of ``Fraction`` and
    ``UNBOUNDED``."""
    def build(vals: Sequence[LinkValue]) -> np.ndarray:
        table = np.array([_plain(0, exact)])
        for v in vals:
            table = np.concatenate([table, np.maximum(table, _plain(v, exact))])
        return table

    return build(net.uplinks), build(net.downlinks)


def reference_payoff(maxl: np.ndarray, maxr: np.ndarray, cuts, states) -> np.ndarray:
    """``value(cut, state)`` over the given cut rows and state columns."""
    return np.array(
        [[maxl[a & ~s] + maxr[s & ~a] for s in states] for a in cuts],
        dtype=maxl.dtype,
    )


def reference_scan(
    n: int, maxl: np.ndarray, maxr: np.ndarray, items: Iterable[tuple[int, LinkValue]]
) -> np.ndarray:
    """Scheduled value of every cut mask under the (state, prob) items, in
    the tables' own arithmetic; with the tables swapped, the value of every
    state under a (cut, prob) mixture."""
    size = 1 << n
    cuts = np.arange(size)
    acc = np.full(size, maxl[0])
    for s, p in items:
        p = Fraction(p) if maxl.dtype == object else float(p)
        acc = acc + (maxl[cuts & (size - 1 - s)] + maxr[s & (size - 1 - cuts)]) * p
    return acc


def chain_min_cut(
    n: int,
    up: Sequence[LinkValue],
    down: Sequence[LinkValue],
    items: Sequence[tuple[int, LinkValue]],
) -> tuple[LinkValue, int]:
    """(max-flow value, lowest minimizing cut mask) on the chain graph, with
    the arguments of :func:`hddiamond.capacity._min_cut`: node 0 is the
    source, node 1 the sink and relay k is node k + 2.

    Per state, a chain runs over the listening relays in descending uplink
    order, ties merged into one group.  The t-th chain node has a source
    edge of weight ``p * (v_t - v_{t+1})`` and unbounded edges to the t-th
    group's relays and to the previous chain node, so a sink-side relay
    drags its own group's node and every later one to the sink side.  The
    downlink chain over the transmitting relays is the mirror image toward
    the sink.
    """
    g = FlowGraph(n + 2)
    reverse = lambda u, v, c: g.add_edge(v, u, c)
    chains = (
        (0, sorted(range(n), key=up.__getitem__, reverse=True), up, g.add_edge),
        (1, sorted(range(n), key=down.__getitem__, reverse=True), down, reverse),
    )
    for s, p in items:
        for end, order, links, add in chains:
            members = [k for k in order if (s >> k & 1) == end and links[k] > 0]
            prev = None
            i = 0
            while i < len(members):
                v = links[members[i]]
                node = g.add_node()
                while i < len(members) and links[members[i]] == v:
                    add(node, members[i] + 2, UNBOUNDED)
                    i += 1
                add(end, node, p * (v - (links[members[i]] if i < len(members) else 0)))
                if prev is not None:
                    add(node, prev, UNBOUNDED)
                prev = node
    value, sink_side = max_flow(g, 0, 1)
    return value, sum(1 << k for k in range(n) if sink_side[k + 2])


@dataclass(frozen=True)
class DualCapacity:
    """Value and optimal cut mixture of the adversary's side of the game."""

    value: LinkValue
    cut_probs: Mapping[int, LinkValue]
    arithmetic: str


def _game_dual(matrix: np.ndarray, exact: bool):
    """Value and minimizing row mixture of a finite matrix game: the mixture
    p over rows minimizing the best column average ``max_j (p^T G)_j``.

    p caps the ceiling at V exactly when ``(G + K)^T p <= (V + K) * 1``, so
    the normalized LP over the shifted transpose returns ``1/sum(x) = V + K``
    and ``p = x/sum(x)``.  ``hd_capacity`` reads the same mixture off its own
    schedule LP's final prices; this separate transposed solve is the
    independent route.
    """
    one = Fraction(1) if exact else 1.0
    scale = 1.0
    if not exact:
        matrix, scale = _unit_scaled(matrix)
    shift = one - matrix.min()
    inv, weights, _, _ = _normalized_floor_lp((matrix + shift).T.tolist(), exact)
    value = inv - shift
    return (value if exact else scale * value), weights


def dual_capacity(
    net: DiamondNetwork,
    arithmetic: str = "float",
    *,
    guard: int = _DUAL_GUARD,
) -> DualCapacity:
    """Adversary-side oracle for the HD value: materializes the full payoff
    matrix over the finite-FD cuts and solves the min-max LP densely.

    The dense matrix caps the practical size, hence the guard of 10 relays.
    """
    exact = _check_arithmetic(arithmetic)
    n = net.n
    if n > guard:
        raise GuardExceeded(f"dual_capacity on {n} relays exceeds guard {guard}")
    size = 1 << n
    maxl, maxr = reference_tables(net, exact)
    kept = [int(a) for a in np.flatnonzero((maxl + maxr[::-1]) != UNBOUNDED)]

    arith = "rational" if exact else "float"
    if not kept:
        return DualCapacity(UNBOUNDED, {}, arith)

    matrix = reference_payoff(maxl, maxr, kept, range(size))
    _lp_value, mu = _game_dual(matrix, exact)
    cut_probs = _clean_weights(kept, mu, exact)

    # Certify directly from the cut mixture: its guaranteed ceiling is the
    # worst (largest) mixed cut value over all states.  Swapping the two
    # subset-max tables turns the scheduled-cut-value scan into exactly
    # this state-indexed average, rather than trusting the LP's own objective.
    value = reference_scan(n, maxr, maxl, sorted(cut_probs.items())).max()
    return DualCapacity(value if exact else float(value), cut_probs, arith)


def dense_fd_capacity(net: DiamondNetwork) -> CapacityResult:
    """Full-duplex cut-set capacity: min over cuts A of (best uplink in A +
    best downlink outside A), on the exact values of the links.  The value
    is a ``Fraction`` when every link is exact, else rounded once to a
    float; the tight cuts are the exact ties.  Enumerates all ``2**n``
    cuts, so past the relay guard of :func:`hd_capacity` it raises
    :class:`GuardExceeded`.
    """
    g = _effective_guard()
    if net.n > g:
        raise GuardExceeded(f"fd_capacity on {net.n} relays exceeds guard {g}")
    maxl, maxr = reference_tables(net, True)
    # Never inf + a finite Fraction: one past the float range overflows.
    vals = [UNBOUNDED if is_unbounded(l) or is_unbounded(r) else l + r
            for l, r in zip(maxl, maxr[::-1])]
    low = min(vals)
    exact = _net_is_exact(net)
    if is_unbounded(low):
        value, tight = UNBOUNDED, (0,)
    else:
        value = low if exact else float(low)
        tight = tuple(a for a, v in enumerate(vals) if v == low)
    return CapacityResult(
        value=value,
        optimal_schedule=None,
        tight_cuts=tight,
        arithmetic="rational" if exact else "float",
    )


def is_threshold_cut(net: DiamondNetwork, cut: int) -> bool:
    """Whether ``cut`` is ``{i : downlink_i > t}`` for some t, or holds
    every relay: each relay in it has a higher downlink than each outside."""
    inside = [r for k, r in enumerate(net.downlinks) if cut >> k & 1]
    outside = [r for k, r in enumerate(net.downlinks) if not cut >> k & 1]
    return not inside or not outside or min(inside) > max(outside)


def fd_mismatch(net: DiamondNetwork) -> str | None:
    """How :func:`hddiamond.fd_capacity` departs from the dense scan on
    ``net``, or None.  The value must be ``==`` and of the same type, every
    reported cut dense-tight and of threshold form, and every dense-tight
    threshold cut reported (so the cuts are the dense threshold ones, in
    the dense order)."""
    got = fd_capacity(net)
    dense = dense_fd_capacity(net)
    want = replace(
        dense, tight_cuts=tuple(a for a in dense.tight_cuts if is_threshold_cut(net, a))
    )
    if got != want or type(got.value) is not type(want.value):
        return f"{got!r} != dense threshold result {want!r}"
    return None


def cold_exhaustive(net: DiamondNetwork, k: int, arithmetic: str = "float") -> SelectionReport:
    """What :func:`hddiamond.select_k_exhaustive` reports, by a plain loop:
    the full network and every size-k subnetwork solved unseeded, none
    skipped, the first of the best kept (the smallest relay set)."""
    full = hd_capacity(net, arithmetic).value
    best = None
    for positions in combinations(range(1, net.n + 1), k):
        sub = net.subnetwork(positions)
        value = hd_capacity(sub, arithmetic).value
        if best is None or value > best[0]:
            best = (value, sub.labels)
    value, selected = best
    return SelectionReport(
        strategy="exhaustive",
        selected=selected,
        k=k,
        value_kind="capacity",
        value=value,
        full_value=full,
        fraction=_ratio(value, full),
        bound=guarantee_bound("exhaustive", net.n, k),
    )


def round_by_round_kept(
    net: DiamondNetwork, k: int, force_remove: Sequence[int] = ()
) -> tuple[int, ...]:
    """Labels of the relays :func:`hddiamond.drop_worst` keeps, by removing
    one relay per round: the forced labels first, in order, then the relay
    of least single-relay capacity left, the first of equals."""
    current = net
    forced = list(force_remove)
    while current.n > k:
        if forced:
            pos = current.labels.index(forced.pop(0))
        else:
            singles = [single_relay_capacity(l, r)
                       for l, r in zip(current.uplinks, current.downlinks)]
            pos = min(range(current.n), key=lambda i: (singles[i], i))
        current = current.drop((pos + 1,))
    return current.labels


def pairwise_leaving_row(t: np.ndarray, col: int, exact: bool) -> int:
    """The simplex's leaving row as the row scan that preceded
    :func:`hddiamond.simplex._leaving_row`: a row of clearly smaller ratio
    replaces the incumbent, and one within the tie width replaces it if its
    ratio vector ``t[i] / a`` (rhs first, then left to right) is
    lexicographically smaller.  The two agree in exact arithmetic and on
    float ties that are exact; on chains of near-ties they can differ."""
    _, eps_piv, _, tie = _TOL[exact]

    def lexico_less(i, ai, j, aj) -> bool:
        for k in range(-1, t.shape[1] - 1):
            d = t[i, k] / ai - t[j, k] / aj
            if d < -tie:
                return True
            if d > tie:
                return False
        return False

    row, best, best_a = -1, None, None
    for i in range(t.shape[0]):
        a = t[i, col]
        if a > eps_piv:
            ratio = t[i, -1] / a
            if best is None or ratio < best - tie:
                best, row, best_a = ratio, i, a
            elif ratio <= best + tie and lexico_less(i, a, row, best_a):
                best, row, best_a = ratio, i, a
    return row


def fraction_simplex_pivots(c, a_ub, b_ub, basis=None) -> tuple[str, list[tuple[int, int]]]:
    """(status, pivots) of an exact :func:`hddiamond.solve_lp` run on a
    ``Fraction`` tableau ``[A | I | b]``, as (row, column) pairs in order.

    The rules are the library's, read on the rational entries themselves:
    an optional warm start pivots each wanted column into the first row
    whose basic column is not wanted, then dual pivots repair a negative
    rhs (most negative row first; least ratio ``obj_j / -a_j``, then the
    most negative ``a_j``), then primal pivots run (Dantzig's entering
    column, lowest index on ties; lexicographic least-ratio leaving row).
    A singular warm start, or one the repair cannot make feasible, restarts
    from the all-slack basis."""
    m, nv = len(a_ub), len(c)
    ncols = nv + m
    pivots: list[tuple[int, int]] = []

    def pivot(t, obj, rows, row, col):
        t[row] = t[row] / t[row, col]
        for i in range(m):
            if i != row and t[i, col] != 0:
                t[i] = t[i] - t[i, col] * t[row]
        obj -= obj[col] * t[row]
        rows[row] = col
        pivots.append((row, col))

    def install(t, obj, rows, want):
        if len(set(want)) != m:
            return False
        for col in want:
            if col not in rows:
                free = [i for i in range(m) if rows[i] not in want and t[i, col] != 0]
                if not free:
                    return False
                pivot(t, obj, rows, free[0], col)
        return True

    def repair(t, obj, rows):
        while True:
            row = min(range(m), key=lambda i: t[i, -1])
            if t[row, -1] >= 0:
                return True
            cand = [j for j in range(ncols) if t[row, j] < 0 and obj[j] >= 0]
            if not cand:
                return False
            least = min(obj[j] / -t[row, j] for j in cand)
            near = [j for j in cand if obj[j] / -t[row, j] == least]
            pivot(t, obj, rows, row, min(near, key=lambda j: t[row, j]))

    def primal(t, obj, rows):
        while True:
            col = min(range(ncols), key=lambda j: obj[j])
            if obj[col] >= 0:
                return "optimal"
            up = [i for i in range(m) if t[i, col] > 0]
            if not up:
                return "unbounded"
            lex = lambda i: tuple(t[i, k] / t[i, col] for k in (-1, *range(ncols)))
            pivot(t, obj, rows, min(up, key=lex), col)

    def start():
        t = np.array(
            [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(m)]
             + [Fraction(b_ub[i])] for i, row in enumerate(a_ub)],
            dtype=object,
        )
        obj = np.array([Fraction(v) for v in c] + [Fraction(0)] * (m + 1), dtype=object)
        return t, obj, list(range(nv, ncols))

    if basis is not None:
        t, obj, rows = start()
        if install(t, obj, rows, list(basis)) and repair(t, obj, rows):
            return primal(t, obj, rows), pivots
    t, obj, rows = start()
    return primal(t, obj, rows), pivots
