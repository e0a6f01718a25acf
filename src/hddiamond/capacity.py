"""Capacity computations for half-duplex diamond networks.

The half-duplex (HD) approximate capacity of an n-relay diamond network is
the value of a finite zero-sum game: the scheduler mixes over the ``2**n``
listen/transmit states, an adversary picks a network cut, and the payoff of
(cut A, state s) is

    value(A, s) = max uplink over relays of A that are listening in s
                + max downlink over relays outside A that are transmitting,

with empty maxima reading 0.  The full-duplex (FD) capacity replaces the
scheduling game by a plain minimum over cuts of (max uplink in A + max
downlink outside A) and always dominates the HD value; a downlink-threshold
cut always attains it, so it is one ``O(n log n)`` scan at any n.  Like the
single-relay closed form and the min-cut rate, it runs once on the exact
values of its inputs and rounds once when any input is a float.

Unbounded links: a cut whose FD value is infinite can never bind as the
number of channel uses grows, so the HD value with unbounded links is the
limit of substituting an ever-larger finite capacity.  That limit equals the
value of the reduced game over the cuts with finite FD value (and is itself
infinite exactly when every cut's FD value is, i.e. when the FD capacity is
infinite).  ``hd_capacity`` computes the reduced game directly; see its
docstring for what that means for the reported schedule.

Everything runs in either float64 or exact arithmetic through the same
self-contained simplex engine and the same numpy cut scans.  In exact mode
the scans run on object arrays of Python ints: the links are scaled by the
lcm of their denominators and a scan's weights are put over one common
denominator, so a scanned value is an integer over a known scale, and a
``Fraction`` is built only for a value that is returned or compared with
one on another scale.  The game is solved by deterministic
strategy generation (grow small cut/state subsets by exact best-response
scans), so the full ``2**n x 2**n`` payoff matrix is never materialized.
Each round's LP starts from the previous round's optimal basis.  Rational
``hd_capacity`` runs that loop twice: in float first, then in exact
arithmetic from the float solve's support, stopping only on the exact
certificate.  Float ``hd_capacity`` runs it in exact arithmetic only when
the float loop ends without a tight certificate.
"""

from __future__ import annotations

import math
import os
from contextlib import suppress
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ._tolerance import AGREE, ROUNDOFF, SETTLED, _is_exact
from .errors import GuardExceeded, NetworkFormatError, SolverFailure
from .flow import FlowGraph, max_flow
from .network import (
    UNBOUNDED,
    DiamondNetwork,
    LinkValue,
    Schedule,
    _as_mask,
    _check_link,
    gen_two_phase_schedule,
    invert_mask,
    is_unbounded,
    restrict_mask,
)
from .simplex import _integers, solve_lp

__all__ = [
    "CapacityResult",
    "RateValue",
    "cut_state_value",
    "fixed_schedule_rate",
    "fd_capacity",
    "fd_capacity_fast",
    "hd_capacity",
    "single_relay_capacity",
    "sparsify_schedule",
    "subnetwork_seeds",
]

#: Largest relay count of a ``2^n`` scan unless HDDIAMOND_LP_GUARD sets another.
DEFAULT_LP_GUARD = 16
LP_GUARD_ENV = "HDDIAMOND_LP_GUARD"


@dataclass(frozen=True)
class CapacityResult:
    """Outcome of a capacity computation.

    ``value`` is the capacity; ``optimal_schedule`` is the maximizing state
    distribution (HD only, None for FD); ``tight_cuts`` are the cut masks
    achieving the minimum that defines ``value`` (for an infinite value,
    where every cut qualifies, the single representative cut 0 is reported);
    ``arithmetic`` records which mode produced the numbers ("float" or
    "rational").
    """

    value: LinkValue
    optimal_schedule: Schedule | None
    tight_cuts: tuple[int, ...]
    arithmetic: str


@dataclass(frozen=True)
class RateValue:
    """A rate certified by a minimum cut: the smallest scheduled cut value
    and the lowest cut mask attaining it."""

    value: LinkValue
    min_cut: int


# ---------------------------------------------------------------------------
# Guards and arithmetic selection
# ---------------------------------------------------------------------------

def _effective_guard() -> int:
    """The relay guard: 16, or a positive integer from HDDIAMOND_LP_GUARD."""
    env = os.environ.get(LP_GUARD_ENV, str(DEFAULT_LP_GUARD))
    with suppress(ValueError):
        if (g := int(env)) >= 1:
            return g
    raise GuardExceeded(f"bad {LP_GUARD_ENV} value {env!r}")


def _check_arithmetic(arithmetic: str) -> bool:
    if arithmetic not in ("float", "rational"):
        raise ValueError(f"arithmetic must be 'float' or 'rational', not {arithmetic!r}")
    return arithmetic == "rational"


def _net_is_exact(net: DiamondNetwork) -> bool:
    return all(
        _is_exact(v) or is_unbounded(v) for v in net.uplinks + net.downlinks
    )


# ---------------------------------------------------------------------------
# Subset-max tables
# ---------------------------------------------------------------------------
#
# maxl[m] = max uplink over the relays in mask m (0 for the empty mask), and
# likewise maxr for downlinks, both times the tables' scale (1 in float).
# Built by doubling, so the whole table costs O(n * 2^n).  Every cut/state
# payoff is then two table lookups:
#     value(A, s) = maxl[A & ~s] + maxr[s & ~A].

def _exact_links(net: DiamondNetwork) -> DiamondNetwork:
    """``net`` with every finite link as an exact ``Fraction``, name and labels kept."""
    exact = lambda vals: tuple(UNBOUNDED if is_unbounded(v) else Fraction(v) for v in vals)
    return replace(net, uplinks=exact(net.uplinks), downlinks=exact(net.downlinks))


class _Absorbing(float):
    """``UNBOUNDED`` among exact ints: equal to ``math.inf``, but its sum with
    an int, its difference less an int, and its product with a positive int
    are itself.  A plain ``math.inf`` would turn the int into a float, which
    overflows once the integer scale passes about 1.8e308."""

    __slots__ = ()

    def _absorb(self, other):
        return self

    __add__ = __radd__ = __sub__ = __mul__ = __rmul__ = _absorb


_ABSORBING = _Absorbing(UNBOUNDED)


def _scaled_links(links: Sequence[LinkValue]) -> tuple[list, int]:
    """``(ints, scale)``: each link times the lcm ``scale`` of the finite
    links' denominators, as a Python int (see :func:`simplex._integers`),
    with ``UNBOUNDED`` held as :data:`_ABSORBING`."""
    ints, scale = _integers(0 if is_unbounded(v) else v for v in links)
    return [_ABSORBING if is_unbounded(v) else i for v, i in zip(links, ints)], scale


def _tables(net: DiamondNetwork, exact: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """(maxl, maxr, scale): the tables hold ``scale`` times the subset
    maxima.  In float they are float64 arrays and ``scale`` is 1.  When exact
    they are object arrays of Python ints and ``UNBOUNDED`` (as
    :class:`_Absorbing`), and ``scale`` is the lcm of the finite links'
    denominators.  The dtype carries the arithmetic mode from here on: every
    scan below is the same numpy code in either mode, and a positive scale
    changes no order and no tie."""
    n = net.n
    if exact:
        links, scale = _scaled_links(net.uplinks + net.downlinks)
        zero = np.array([0], dtype=object)
    else:
        links, scale = [float(v) for v in net.uplinks + net.downlinks], 1
        zero = np.array([0.0])

    def build(vals: Sequence[LinkValue]) -> np.ndarray:
        table = zero
        for v in vals:
            # A 0-d array of the table's dtype: numpy would turn a bare
            # float scalar, _ABSORBING too, into a plain float64.
            link = np.array(v, dtype=table.dtype)
            table = np.concatenate([table, np.maximum(table, link)])
        return table

    return build(links[:n]), build(links[n:]), scale


#: Cells of one best-response scan block: a few states' rows at once.
_SCAN_BLOCK_CELLS = 4096


def _cut_values(
    n: int,
    maxl: np.ndarray,
    maxr: np.ndarray,
    scale: int,
    items: Iterable[tuple[int, LinkValue]],
) -> tuple[np.ndarray, int]:
    """Scheduled value of every cut mask under the given (state, prob)
    items, as ``(values, scale)``: the values are ``scale`` times the
    scheduled cut values.

    ``scale`` comes in as the tables' own.  On exact tables the weights are
    put over their common denominator d, so every value is an integer sum
    and the scale goes out multiplied by d; on float tables it stays 1.
    With the two tables swapped, the same scan gives the value of every
    state under a (cut, prob) mixture, since ``value(A, s) = maxl[A & ~s] +
    maxr[s & ~A]`` is symmetric in that swap.

    The terms are gathered a block of states at a time, and summed in the
    items' order, one at a time, as a loop over the states would.
    """
    cuts = np.arange(1 << n)
    others = ~cuts
    items = list(items)
    states = np.array([s for s, _ in items], dtype=np.int64)[:, None]
    if maxl.dtype == object:
        weights, d = _integers(p for _, p in items)
        weights = np.array(weights, dtype=object)[:, None]
        scale *= d
    else:
        weights = np.array([p for _, p in items], dtype=np.float64)[:, None]
    # Blocks of up to _SCAN_BLOCK_CELLS cells, one row per state.  The
    # running sum enters the block's first row, and numpy reduces along
    # axis 0 one row after another, so the float sums are bitwise a loop's.
    rows = max(1, _SCAN_BLOCK_CELLS >> n)
    acc = np.full(1 << n, maxl[0], dtype=maxl.dtype)  # the tables' zero
    for i in range(0, len(items), rows):
        s = states[i:i + rows]
        block = maxl[cuts & ~s]
        block += maxr[s & others]
        block *= weights[i:i + rows]
        block[0] += acc
        acc = block[0] if len(block) == 1 else np.add.reduce(block, axis=0)
    return acc, scale


def _unscaled(x, scale: int, exact: bool) -> LinkValue:
    """A scanned value as the library reports it: ``x / scale`` as a
    ``Fraction`` when exact (``UNBOUNDED`` as it is), a float otherwise
    (where the scale is 1)."""
    if not exact:
        return float(x)
    return UNBOUNDED if is_unbounded(x) else Fraction(x, scale)


# ---------------------------------------------------------------------------
# Pointwise values and fixed-schedule rates
# ---------------------------------------------------------------------------

def cut_state_value(
    net: DiamondNetwork,
    cut: int | str | Iterable[int],
    state: int | str | Iterable[int],
) -> LinkValue:
    """Payoff of one (cut, state) pair.

    Relays in the cut that are listening contribute their best uplink;
    relays outside the cut that are transmitting contribute their best
    downlink; either group may be empty (contributing 0).  Unbounded
    participating links make the value unbounded.
    """
    n = net.n
    a = _as_mask(cut, n)
    s = _as_mask(state, n)
    listen_in = a & invert_mask(s, n)
    transmit_out = s & invert_mask(a, n)
    best_l: LinkValue = max(
        (net.uplinks[k] for k in range(n) if listen_in >> k & 1), default=0
    )
    best_r: LinkValue = max(
        (net.downlinks[k] for k in range(n) if transmit_out >> k & 1), default=0
    )
    # Never inf + a finite link: an exact one may not fit a float.
    return UNBOUNDED if is_unbounded(best_l) or is_unbounded(best_r) else best_l + best_r


def fixed_schedule_rate(net: DiamondNetwork, sched: Schedule) -> RateValue:
    """Rate the network carries under a fixed schedule: the minimum over all
    cuts of the schedule-averaged cut value, and a cut attaining it.  Exact
    inputs (int/Fraction links and probabilities) are evaluated exactly and
    ``min_cut`` is the lowest minimizing cut mask; anything else is rated in
    float64, and ``min_cut`` attains the minimum within the float tolerance.

    Exact inputs always solve one s-t minimum cut (see :func:`_flow_rate`).
    Float inputs scan all ``2**n`` cuts in float when that is estimated to
    be less work and every link fits a float, and else take the same min
    cut, whose value is the exact rate rounded once.  The scan reports the
    lowest mask of least float sum, the min cut the lowest minimizer of the
    exact values of the float inputs; on near-ties the two can differ.
    """
    if sched.n != net.n:
        raise ValueError(f"schedule is over {sched.n} relays, network has {net.n}")
    exact = _net_is_exact(net) and sched.is_exact
    if not exact and _scan_is_cheaper(net.n, len(sched.probs)):
        with suppress(OverflowError):  # a link too large for the float tables
            maxl, maxr, _ = _tables(net, False)
            vals, _ = _cut_values(net.n, maxl, maxr, 1, sched.items())
            cut = int(np.argmin(vals))
            return RateValue(float(vals[cut]), cut)
    return _flow_rate(net, sched, exact)


# Estimated seconds, used only to pick the cheaper route for a float rate.
# The float scan costs about one unit per cut and state, plus two per cut
# for the tables and the argmin.  The flow runs on Python ints and costs
# about one unit per relay and state (the threshold graph has at most 2n
# term nodes per state).  Fitted on random nets with n = 3..16 and k = 1,
# 2, 3, n/2+1, n+1 states: the flow is chosen from n = 13 / 14 / 15 for
# k = 1 / 2 / n+1.  With one node per distinct term the flow measures 4-9
# us per relay and state on one Intel Xeon core, but the scan constant is
# high too: lowering the flow's alone would pick the flow at n = 13 with
# k = 2 or 3, where the scan measured cheaper.  As they stand, the model's
# route at n <= 16 was the one measured cheaper, except k = 1 at n = 11-12,
# where the flow was cheaper by under 0.02 ms (0.05 against 0.07 ms).
_SCAN_UNIT_S = 8e-9
_FLOW_UNIT_S = 13e-6


def _scan_is_cheaper(n: int, k: int) -> bool:
    """Whether scanning every cut in float under a ``k``-state schedule is
    estimated to cost less than one s-t min cut on the threshold graph."""
    return _SCAN_UNIT_S * (1 << n) * (k + 2) <= _FLOW_UNIT_S * n * k


def _escalate_gap(value: LinkValue) -> float:
    """Largest ceiling-minus-floor gap a float ``hd_capacity`` returns as it
    is; a wider one sends the game to exact arithmetic.  Relative, and
    absolute below 1.  Float solves that settle leave gaps of a few 1e-9
    relative at most; those that stop at a wrong vertex leave 1e-7 or more."""
    return SETTLED * max(1.0, abs(value))


def _flow_rate(net: DiamondNetwork, sched: Schedule, exact: bool) -> RateValue:
    """:func:`fixed_schedule_rate` by one s-t minimum cut.

    The scheduled value of cut A is a sum over states of ``p * max uplink
    over listening relays in A`` plus ``p * max downlink over transmitting
    relays outside A``.  Sort a state's listening relays by uplink, highest
    first, and merge ties: with ``v_1 > v_2 > ... > v_m > 0`` the distinct
    positive values and ``v_{m+1} = 0``, the first term is the sum over t of
    ``p * (v_t - v_{t+1})`` times [A meets the top t groups].  Each such
    threshold term is one node: a source edge of its weight into it, and
    unbounded edges from it to the relays of the top t groups, so a relay
    on the sink side (in A) drags every term that holds it to the sink side
    too (the standard graph of such terms: Kolmogorov & Zabih, TPAMI 2004).
    Equal terms of different states are one node, their weights summed.
    The downlink term is the mirror image toward the sink.  Cut A's value
    is then the least capacity of a graph cut with sink-side relays A, so
    the minimal sink side of a minimum cut gives the lowest minimizing mask.
    Every augmenting path runs source, term, relay, term, sink, plus
    residual detours, so Dinic needs few phases.

    The flow runs once, in either arithmetic, on Python ints: the links and
    the probabilities are scaled by the lcm of their denominators, which is
    exact for floats too (each is a dyadic rational).  So ``min_cut`` is the
    lowest minimizer of the exact values of the inputs, and the rate is the
    flow value over the scale: a ``Fraction`` when exact, else that ratio
    rounded once to a float (Python's int division rounds correctly).
    """
    n = net.n
    links, scale = _scaled_links(net.uplinks + net.downlinks)
    weights, d = _integers(sched.probs.values())
    value, cut = _min_cut(n, links[:n], links[n:], list(zip(sched.probs, weights)))
    if value == UNBOUNDED:
        return RateValue(UNBOUNDED, 0)
    return RateValue(Fraction(value, scale * d) if exact else value / (scale * d), cut)


def _min_cut(
    n: int,
    up: Sequence[LinkValue],
    down: Sequence[LinkValue],
    items: Sequence[tuple[int, LinkValue]],
) -> tuple[LinkValue, int]:
    """(max-flow value, lowest minimizing cut mask) of the threshold graph
    of :func:`_flow_rate`: node 0 is the source, node 1 the sink, relay k is
    node k + 2, and each distinct threshold term is one node after those."""
    # Per side, {relay mask of a term: [summed weight, its relays]}; equal
    # terms of different states share one entry.
    terms: tuple[dict, dict] = ({}, {})
    sides = (
        (up, sorted(range(n), key=up.__getitem__, reverse=True), terms[0]),
        (down, sorted(range(n), key=down.__getitem__, reverse=True), terms[1]),
    )
    for s, p in items:
        for side, (links, order, weights) in enumerate(sides):
            # Listening relays (bit clear) on the uplink side, transmitting
            # relays (bit set) on the downlink side, highest link first.
            members = [k for k in order if (s >> k & 1) == side and links[k] > 0]
            mask = i = 0
            while i < len(members):
                v = links[members[i]]
                while i < len(members) and links[members[i]] == v:
                    mask |= 1 << members[i]
                    i += 1
                w = p * (v - (links[members[i]] if i < len(members) else 0))
                weights.setdefault(mask, [0, members[:i]])[0] += w
    g = FlowGraph(n + 2)
    for weight, relays in terms[0].values():
        node = g.add_node()
        g.add_edge(0, node, weight)
        for k in relays:
            g.add_edge(node, k + 2, UNBOUNDED)
    # The downlink terms are the mirror image: every edge reversed, and the
    # sink in place of the source.
    for weight, relays in terms[1].values():
        node = g.add_node()
        g.add_edge(node, 1, weight)
        for k in relays:
            g.add_edge(k + 2, node, UNBOUNDED)
    value, sink_side = max_flow(g, 0, 1)
    return value, sum(1 << k for k in range(n) if sink_side[k + 2])


# ---------------------------------------------------------------------------
# Full-duplex capacity
# ---------------------------------------------------------------------------

def fd_capacity(net: DiamondNetwork) -> CapacityResult:
    """Full-duplex cut-set capacity: min over cuts A of (best uplink in A +
    best downlink outside A), in O(n log n) at any n.

    Threshold cuts suffice: if t is the best downlink outside A, taking
    every relay with downlink at most t out of A lowers no term but the
    uplink one.  So the scan walks the distinct downlinks t, highest first,
    each giving the cut ``{i : downlink_i > t}`` worth its best uplink plus
    t, and ends with the cut of all relays.

    The scan runs on the links as integers over their lcm scale (see
    :func:`_scaled_links`), exact for floats too.  The value is a
    ``Fraction`` when every link is exact, else that value rounded once to
    a float.  ``tight_cuts`` are the threshold cuts at the minimum,
    ascending: the exact ties.  They are a nonempty subset of all
    minimizing cuts: a relay that can sit on either side of a minimum cut
    is listed on one side only.  An infinite value reports the single
    cut 0.
    """
    exact = _net_is_exact(net)
    links, scale = _scaled_links(net.uplinks + net.downlinks)
    up, down = links[:net.n], links[net.n:]
    best_up, cut = 0, 0
    cands: list[tuple[int, int]] = []  # (scaled value, cut mask)
    prev = None
    for k in sorted(range(net.n), key=down.__getitem__, reverse=True):
        if down[k] != prev:
            prev = down[k]
            cands.append((best_up + prev, cut))
        best_up = max(best_up, up[k])
        cut |= 1 << k
    cands.append((best_up, cut))
    low = min(v for v, _ in cands)
    if low == UNBOUNDED:
        value, tight = UNBOUNDED, (0,)
    else:
        value = Fraction(low, scale) if exact else low / scale
        tight = tuple(sorted(a for v, a in cands if v == low))
    return CapacityResult(
        value=value,
        optimal_schedule=None,
        tight_cuts=tight,
        arithmetic="rational" if exact else "float",
    )


def fd_capacity_fast(net: DiamondNetwork) -> LinkValue:
    """The value of :func:`fd_capacity`."""
    return fd_capacity(net).value


def single_relay_capacity(l: LinkValue, r: LinkValue) -> LinkValue:
    """HD capacity of a one-relay network in closed form: l*r/(l+r), with 0
    when both links are 0 and the natural limits when a link is unbounded
    (the finite link's value, or unbounded if both are).  It is computed
    once on the links as integers over their common scale, exact for floats
    too: a ``Fraction`` when both links are exact, else rounded once to a
    float."""
    _check_link(l, "uplink")
    _check_link(r, "downlink")
    if is_unbounded(l) and is_unbounded(r):
        return UNBOUNDED
    if is_unbounded(l):
        return r
    if is_unbounded(r):
        return l
    (a, b), scale = _integers((l, r))
    if a + b == 0:
        return 0
    num, den = a * b, scale * (a + b)
    return Fraction(num, den) if _is_exact(l) and _is_exact(r) else num / den


# ---------------------------------------------------------------------------
# The scheduling game
# ---------------------------------------------------------------------------

def _normalized_floor_lp(a_ub: Sequence[Sequence], exact: bool, basis=None, rhs=1):
    """Optimal x of ``max sum(x)  s.t.  A x <= rhs, x >= 0`` for a matrix
    with every entry >= ``rhs > 0``, returned as ``(1/sum(x), x/sum(x),
    w/sum(w), basis)`` where w are the optimal row prices and ``basis`` the
    optimal basis of the same solve.

    This is the shift-normalized matrix-game workhorse and the shape the
    one-phase :func:`solve_lp` is built for: the all-slack basis is feasible
    (the rhs is positive, never the degenerate all-zeros of the
    value-variable formulation), so the float tableau stays well conditioned
    and the final objective row carries the dual solution: ``A^T w >= 1,
    w >= 0`` with ``rhs * sum(w) = sum(x)``.  Entries >= rhs make the LP
    bounded: each constraint row alone caps sum(x) at 1.  ``a_ub`` is a
    sequence of rows (lists or numpy rows), as ``solve_lp`` takes it, and
    ``rhs`` a scalar of the rows' arithmetic; ``basis`` warm-starts the
    solve.  The exact tableau is ``[A | I | rhs]`` for integer rows and rhs,
    and the solve pivots on it as it stands (see :mod:`hddiamond.simplex`).
    """
    rows = len(a_ub)
    cols = len(a_ub[0])
    one = Fraction(1) if exact else 1.0
    res = solve_lp([-one] * cols, a_ub, [rhs] * rows, exact=exact, basis=basis)
    if not res.ok:
        raise SolverFailure(f"game LP came back {res.status}")
    total = sum(res.x)
    if total <= 0:
        raise SolverFailure("game LP returned an empty mixture")
    prices = sum(res.duals)
    return (one / total, [x / total for x in res.x], [w / prices for w in res.duals],
            res.basis)


def _unit_scaled(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Rescale a float payoff table so its largest magnitude falls in
    [1/2, 1), returning ``(scaled, scale)``.

    The simplex tolerances are absolute, so a table mixing tiny entries
    with huge finite stand-ins for unbounded links (1e6 and up) can stall
    the float solver at a non-optimal vertex.  Mixtures are invariant under
    positive scaling of the payoffs and the value scales linearly, so
    dividing everything by a power of two (lossless in binary floating
    point) fixes the conditioning without touching the result.
    """
    top = np.abs(matrix).max()
    if top == 0 or not math.isfinite(top):
        return matrix, 1.0
    scale = math.ldexp(1.0, math.frexp(top)[1])
    return matrix / scale, scale


def _game_primal(matrix: np.ndarray, scale: int, basis=None):
    """Value, maximizing column mixture, minimizing row mixture and optimal
    LP basis of a finite matrix game where the column player picks a
    mixture q over columns to maximize the worst row average
    ``min_i (G q)_i``, for the payoffs ``matrix = scale * G`` on the
    tables' scale (see :func:`_tables`).  The dtype carries the mode: float
    payoffs (scale 1), or an object array of Python ints, whose value comes
    back as a ``Fraction``.

    Derivation: a mixture q guarantees floor V exactly when
    ``(K - G) q <= (K - V) * 1`` for any constant K, so with K large enough
    that K - G has entries >= 1, the normalized LP over ``A = K - G``
    returns ``1/sum(x) = K - V`` and ``q = x/sum(x)`` — and optimality of
    sum(x) is optimality of the floor.  (Solving ``(G + K) x <= 1`` instead
    would yield the *ceiling*-minimizing mixture of the transposed game:
    the guarantee direction lives in the constraint sense, not the
    objective.)  The row mixture comes from the same solve's final prices:
    ``(K - G)^T w >= 1`` with ``sum(w) = 1/(K - V)``, so ``p = w/sum(w)``
    caps every column average ``(p^T G)_j`` at V.

    Float payoffs are first rescaled by :func:`_unit_scaled`, and K is
    ``1 + max G``.  Exact payoffs stay integers: with ``shift = scale +
    max(matrix)``, so that K = shift/scale, the LP is ``(shift - matrix) x
    <= scale``, which is ``(K - G) x <= 1`` times ``scale``, with both sides
    divided by their gcd.  Scaling rows leaves x and the value alone, and
    the simplex pivots on these integers as they stand.

    ``basis`` (columns: one per game column, then one slack per game row)
    warm-starts the LP.  Neither the shift nor the positive scale changes
    which bases are feasible or optimal, so an optimal basis of a smaller
    game, with the slacks of any added rows, is a valid start.
    """
    exact = matrix.dtype == object
    if exact:
        shift = scale + matrix.max()
        a_ub = shift - matrix
        g = math.gcd(scale, *a_ub.flat)
        a_ub, rhs = a_ub // g, scale // g
    else:
        matrix, scale = _unit_scaled(matrix)
        shift = 1.0 + matrix.max()
        a_ub, rhs = shift - matrix, 1
    # The rows go in as numpy rows: no round trip through Python scalars.
    inv, cols, rows, basis = _normalized_floor_lp(list(a_ub), exact, basis, rhs)
    value = Fraction(shift, scale) - inv if exact else scale * (shift - inv)
    return value, cols, rows, basis


def _clean_weights(masks: Sequence[int], weights: Sequence, exact: bool) -> dict[int, LinkValue]:
    floor = 0 if exact else ROUNDOFF
    out: dict[int, LinkValue] = {}
    for m, w in zip(masks, weights):
        if w > floor:
            out[m] = w if exact else float(w)
    return out


def _payoff(maxl: np.ndarray, maxr: np.ndarray, cuts, states) -> np.ndarray:
    """The payoff matrix ``value(cut, state)`` over the given cut rows and
    state columns, gathered from the subset-max tables in one step (on the
    tables' scale)."""
    cuts, states = np.asarray(cuts), np.asarray(states)
    return (maxl[np.bitwise_and.outer(cuts, ~states)]
            + maxr[np.bitwise_and.outer(~cuts, states)])


def hd_capacity(
    net: DiamondNetwork,
    arithmetic: str = "float",
    *,
    seeds: tuple[Iterable[int], Iterable[int]] = ((), ()),
) -> CapacityResult:
    """Half-duplex approximate capacity, optimal schedule, and tight cuts.

    Solves the scheduling game restricted to the cuts with finite FD value
    (see the module docstring): for finite networks that is every cut, and
    the returned schedule satisfies ``fixed_schedule_rate(net, schedule) ==
    value`` with ``tight_cuts`` its minimizing cuts.  For networks with
    unbounded links the value is the exact large-capacity limit; a single
    fixed schedule need not attain it (the limit may be approached, not
    reached), so the reported schedule is the reduced game's maximizer and
    ``tight_cuts`` lists the finite-FD cuts that pin its value.

    Each round solves a restricted game whose LP starts from the previous
    round's optimal basis.  Float mode stops with a certified interval: the
    returned schedule's rate (the floor) and the best state value against
    the final cut mixture (the ceiling).  When the two are further apart
    than :func:`_escalate_gap`, or the float rounds raise
    :class:`SolverFailure` otherwise (wide magnitude spreads can do both),
    or cannot run at all (a link too large for a float), the game is solved
    again in exact arithmetic on the links as given, and that result is
    returned in float.

    Rational mode first solves the game in float on the float values of the
    links, then runs the exact rounds from that solve's final support (its
    states of positive weight and cuts of positive price).  The exact rounds
    stop only on the exact certificate, so the float pass changes how many
    exact rounds are needed, never the value.  With a link too large for a
    float, the float pass runs on the links divided by a common power of two
    that brings them into the float range (see :func:`_scaled_down`).  When
    the float pass fails, the exact rounds start from the default pools.

    ``seeds`` is a pair ``(states, cuts)`` of masks in ``net``'s own relay
    indexing that the float rounds add to their starting pools, typically a
    parent network's solve restricted to ``net`` (see
    :func:`subnetwork_seeds`).  Seeds only add pool entries, so the loop
    stops on the same certificate whatever they are, and rational values do
    not depend on them.  The exact rounds of a float escalation start from
    the default pools, or from the scaled float pass.  A mask outside
    ``[0, 2**n)`` raises ``ValueError``.

    The relay guard caps the relay count of the game (16, or the
    HDDIAMOND_LP_GUARD environment variable).  Past it, a network whose FD
    value is unbounded answers ``UNBOUNDED`` with the same two-state
    certificate as below it.  Otherwise the *pin* may still certify the
    value, in either arithmetic and on any links: on the exact values of the
    links, the rate of :func:`gen_two_phase_schedule` (one s-t min cut) is
    a floor and the FD capacity a ceiling.  When the two are equal, that is
    the value, the two-phase schedule is returned (in float mode, rounded),
    and ``tight_cuts`` are FD's threshold cuts at the minimum.  Each of
    those cuts' scheduled value lies between the rate and its FD value,
    which are equal, so they are a subset of the schedule's minimizing
    cuts.  When the two differ, raise :class:`GuardExceeded` instead of
    grinding.  Seeds are checked past the guard too, then unused.
    """
    return _hd_capacity(net, arithmetic, seeds)[0]


def _hd_capacity(
    net: DiamondNetwork,
    arithmetic: str,
    seeds: tuple[Iterable[int], Iterable[int]],
) -> tuple[CapacityResult, dict[int, LinkValue]]:
    """:func:`hd_capacity` and the adversary's side of the same solve: the
    final LP's cut mixture ``{cut: price}`` of the solve that gave the
    result (exact prices after an escalation or in rational mode).  It is
    empty when no LP ran: an unbounded value, or the pin past the guard."""
    exact = _check_arithmetic(arithmetic)
    n = net.n
    states, cuts = (_checked_masks(masks, n) for masks in seeds)
    g = _effective_guard()
    if n > g:
        links, sched = _exact_links(net), gen_two_phase_schedule(n)
        fd = fd_capacity(links)
        if fd.value == UNBOUNDED:
            return _unbounded(n, arithmetic), {}
        if fixed_schedule_rate(links, sched).value != fd.value:
            raise GuardExceeded(f"hd_capacity on {n} relays exceeds guard {g}")
        res = replace(fd, optimal_schedule=sched)
        return (res if exact else _as_float(res)), {}
    res, mixture = None, {}
    with suppress(OverflowError, SolverFailure):
        try:
            res, mixture = _solve(net, False, states, cuts)
            if not exact:
                return res, mixture
        except OverflowError:  # a link too large for a float
            res, mixture = _solve(_scaled_down(net), False, states, cuts)
    states = res.optimal_schedule.support if res else ()
    res, mixture = _solve(net, True, states, mixture)
    return (res if exact else _as_float(res)), mixture


def _scaled_down(net: DiamondNetwork) -> DiamondNetwork:
    """``net`` with every finite link divided exactly by ``2^s``, ``s =
    max(0, bit_length(top) - 1000)`` for the largest finite link ``top``, so
    that every link fits a float.  The game scales with its links."""
    top = max((v for v in net.uplinks + net.downlinks if not is_unbounded(v)), default=0)
    shift = max(0, int(top).bit_length() - 1000)
    scaled = lambda vals: tuple(v if is_unbounded(v) else Fraction(v) / 2**shift for v in vals)
    return replace(net, uplinks=scaled(net.uplinks), downlinks=scaled(net.downlinks))


def _checked_masks(masks: Iterable[int], n: int) -> tuple[int, ...]:
    out = tuple(int(m) for m in masks)
    bad = [m for m in out if not 0 <= m < 1 << n]
    if bad:
        raise ValueError(f"seed masks {bad} out of range for n={n}")
    return out


def subnetwork_seeds(
    full: CapacityResult, keep: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``hd_capacity`` seeds for the subnetwork of the relays in mask
    ``keep``, from the full network's result: its support states and its
    tight cuts (which include every cut of positive price, by complementary
    slackness), restricted to the kept relays.

    This is the paper's proof idea put to work: the full optimal schedule,
    marginalized onto a good subnetwork, keeps most of its value, so these
    pools start the subnetwork's double oracle near its optimum.
    """
    restrict = lambda masks: tuple(sorted({restrict_mask(m, keep) for m in masks}))
    return restrict(full.optimal_schedule.support), restrict(full.tight_cuts)


def _subnetwork_ceilings(
    net: DiamondNetwork, keeps: Sequence[int], mixture: dict[int, LinkValue], exact: bool
) -> list[LinkValue]:
    """A certified ceiling on the HD capacity of each subnetwork of ``net``
    kept by the masks ``keeps`` (all of one size k): the smaller of K's FD
    value and a bound from ``net``'s cut mixture ``mu`` (see
    :func:`_hd_capacity`).  With T the transmitting relays of a state of K,

        ceiling(K) = min(min over T of maxl[K - T] + maxr[T],
                         max over T of g_L(K - T) + g_R(T)),
        g_L(L) = sum_A mu_A * maxl[A & L],  g_R(T) = sum_A mu_A * maxr[T & ~A].

    The first term is K's FD value, which caps its HD capacity.  For the
    second, each cut A of the mixture restricted to K is a cut of K's own
    game with finite FD value, and a relay that leaves lowers no payoff, so
    it is the best state value against a cut mixture of K's game: at least
    K's capacity too.  Both are evaluated on the ``C(n, k) * 2^k`` (listen,
    transmit) splits of the masks only, never on all ``2^n`` masks, in the
    given arithmetic: ``Fraction``s when exact, else floats from the
    mixture normalized to sum 1.  In float, a link too large for a float
    raises ``OverflowError`` (from the tables).
    """
    maxl, maxr, scale = _tables(net, exact)
    cuts = np.array(list(mixture))[:, None]
    if exact:
        ints, d = _integers(mixture.values())
        weights = np.array(ints, dtype=object)[:, None]
    else:
        weights = np.array([float(p) for p in mixture.values()])
        weights, d = (weights / weights.sum())[:, None], 1
    keeps = np.array(keeps)
    # Every subset T of each mask, one column per mask, built by doubling
    # over the masks' relays (the j-th set bit of every mask at once).
    relays = np.nonzero((keeps[:, None] >> np.arange(net.n)) & 1)[1].reshape(len(keeps), -1)
    transmit = np.zeros((1, len(keeps)), dtype=np.int64)
    for bit in (1 << relays).T:
        transmit = np.concatenate([transmit, transmit | bit])
    listen = keeps ^ transmit

    def mixed(points: np.ndarray, payoff) -> np.ndarray:
        # g at each distinct point once, gathered back onto the splits.
        seen = np.zeros(1 << net.n, dtype=bool)
        seen[points] = True
        where = np.cumsum(seen) - 1
        return (payoff(np.flatnonzero(seen)) * weights).sum(axis=0)[where[points]]

    ceilings = (mixed(listen, lambda ls: maxl[cuts & ls])
                + mixed(transmit, lambda ts: maxr[ts & ~cuts])).max(axis=0)
    fd = (maxl[listen] + maxr[transmit]).min(axis=0) * d  # on the mixture's scale
    return [_unscaled(c, scale * d, exact) for c in np.minimum(ceilings, fd)]


def _as_float(res: CapacityResult) -> CapacityResult:
    """An exact result restated in float.  A weight too small for a float
    (one that rounds to 0.0) stays an exact ``Fraction``, so its state stays
    in the schedule."""
    probs = {s: float(p) or p for s, p in res.optimal_schedule.probs.items()}
    return CapacityResult(
        float(res.value), Schedule(res.optimal_schedule.n, probs), res.tight_cuts, "float"
    )


def _unbounded(n: int, arithmetic: str) -> CapacityResult:
    """The result for a network on which every cut has infinite FD value, so
    that the HD value is infinite too.  Half on all-listen and half on
    all-transmit certifies it: against cut A they score maxl[A] and
    maxr[~A], and one of the two is infinite."""
    return CapacityResult(
        value=UNBOUNDED,
        optimal_schedule=Schedule(n, {0: Fraction(1, 2), (1 << n) - 1: Fraction(1, 2)}),
        tight_cuts=(0,),
        arithmetic=arithmetic,
    )


def _solve(
    net: DiamondNetwork,
    exact: bool,
    states: Iterable[int] = (),
    cuts: Iterable[int] = (),
) -> tuple[CapacityResult, dict[int, LinkValue]]:
    """The double-oracle loop of :func:`hd_capacity` in one arithmetic.

    ``states`` and ``cuts`` seed the pools: they only add entries to the
    default start (seeded cuts with infinite FD value are dropped), and the
    loop stops on the same certificate whatever the seeds.  Returns the
    result and the final cut mixture as ``{cut: price}`` over the cuts of
    positive price (empty when no LP ran); iterating the mixture gives its
    support.

    The loop ends with a certified interval: the schedule's rate over the
    kept cuts (the floor, returned as the value) and the largest value any
    state earns against the final cut mixture (the ceiling).  In exact
    arithmetic they meet.  In float, a gap wider than :func:`_escalate_gap`
    means the restricted LPs stopped at a wrong vertex, and it raises
    :class:`SolverFailure`.
    """
    n = net.n
    size = 1 << n
    arith = "rational" if exact else "float"
    maxl, maxr, scale = _tables(net, exact)
    kept = (maxl + maxr[::-1]) != UNBOUNDED
    if not kept.any():
        return _unbounded(n, arith), {}

    # A best response joins its pool only when it beats the current
    # mixture's value by more than this; the loop's own threshold.
    eps = Fraction(0) if exact else 1e-11

    # Strategy generation: start from the bookend cuts and the natural
    # two-phase states, plus the seeds, then alternate exact best-response
    # scans with small sub-game solves until neither side can improve.  One
    # LP per round gives both mixtures: the schedule from its solution, the
    # cut mixture from its final prices.
    cut_pool = {int(a) for a in np.flatnonzero(kept)[[0, -1]]}
    cut_pool.update(int(a) for a in cuts if kept[a])
    cut_pool = sorted(cut_pool)
    state_pool = {0, size - 1, *(int(s) for s in states)}
    if n >= 2:
        state_pool.update(gen_two_phase_schedule(n).support)
    state_pool = sorted(state_pool)

    # Each round's LP starts from the previous round's optimal basis, kept
    # as keys that survive the pools' growth: (0, state) for a state column,
    # (1, cut) for the slack of a cut row.  A new state column starts
    # nonbasic; a new cut row starts with its slack basic.
    basic: list[tuple[int, int]] | None = None
    probs: dict[int, LinkValue] = {}
    value: LinkValue = 0
    rounds = 0
    while True:
        rounds += 1
        if rounds > 4 * size + 8:
            raise SolverFailure("strategy generation failed to converge")
        matrix = _payoff(maxl, maxr, cut_pool, state_pool)
        columns = [(0, s) for s in state_pool] + [(1, a) for a in cut_pool]
        warm = None
        if basic is not None:
            where = {key: j for j, key in enumerate(columns)}
            warm = [where[key] for key in basic]
        _, lam, mu, lp_basis = _game_primal(matrix, scale, warm)
        basic = [columns[j] for j in lp_basis]
        probs = _clean_weights(state_pool, lam, exact)
        cut_probs = _clean_weights(cut_pool, mu, exact)

        # Scheduler's certificate: minimum over kept cuts of the scheduled
        # cut value (for finite nets this IS the fixed-schedule rate).  The
        # argmin, argmax and tight cuts read the scaled values, whose order
        # and ties are the values' own; the two certificates leave their
        # scales to be compared.
        cut_vals, cut_scale = _cut_values(n, maxl, maxr, scale, sorted(probs.items()))
        cut_vals = np.where(kept, cut_vals, UNBOUNDED)
        best_cut = int(np.argmin(cut_vals))
        value = _unscaled(cut_vals[best_cut], cut_scale, exact)

        # Adversary's certificate: maximum over states of the cut-mixture
        # averaged value.
        state_vals, state_scale = _cut_values(n, maxr, maxl, scale, cut_probs.items())
        best_state = int(np.argmax(state_vals))
        state_val = _unscaled(state_vals[best_state], state_scale, exact)

        grew = False
        if best_cut not in cut_pool and value < state_val - eps:
            cut_pool = sorted(cut_pool + [best_cut])
            basic.append((1, best_cut))
            grew = True
        if best_state not in state_pool and state_val > value + eps:
            state_pool = sorted(state_pool + [best_state])
            grew = True
        if not grew:
            break

    if not exact and state_val - value > _escalate_gap(value):
        raise SolverFailure(
            f"float floor {float(value)!r} and ceiling {float(state_val)!r} do not meet"
        )
    tol = 0 if exact else AGREE * max(1.0, abs(value))
    tight = tuple(int(a) for a in np.flatnonzero(cut_vals <= cut_vals[best_cut] + tol))
    try:
        schedule = Schedule(n, probs)
    except NetworkFormatError as exc:
        # A float LP can end on weights a hair below zero; the positive ones
        # left then sum to more than 1.
        raise SolverFailure(f"float LP returned no valid schedule: {exc}") from None

    result = CapacityResult(
        value=value,
        optimal_schedule=schedule,
        tight_cuts=tight,
        arithmetic=arith,
    )
    return result, cut_probs


def sparsify_schedule(net: DiamondNetwork) -> Schedule | None:
    """An optimal schedule with at most ``n + 1`` active states, or None when
    the capacity is unbounded: :func:`hd_capacity`'s own schedule when it is
    that sparse, else the rational solve's, in float.

    The rational schedule always is.  Its final restricted LP ends on a
    basis, so its positive state columns are independent on the cuts of
    nonbasic slack.  Those cuts are tight, so the exact certificate makes
    each a minimizer of ``f_p(A) = sum_s p_s * value(A, s)`` over the kept
    cuts, an interval lattice.  Each ``value(., s)`` is submodular, so the
    minimizers form a distributive lattice on which the submodular
    inequality is tight for each support state: ``K - value(., s)`` is
    modular there, hence fixed by one maximal chain, of at most n+1 cuts.
    A float solve proves no exact certificate, hence the fallback.
    """
    return _sparse_schedule(net, hd_capacity(net))


def _sparse_schedule(net: DiamondNetwork, res: CapacityResult) -> Schedule | None:
    """:func:`sparsify_schedule` from ``res``, ``net``'s float ``hd_capacity``."""
    if is_unbounded(res.value):
        return None
    if len(res.optimal_schedule.support) <= net.n + 1:
        return res.optimal_schedule
    return _as_float(hd_capacity(net, "rational")).optimal_schedule
