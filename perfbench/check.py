"""Output certificates that do not run the package's simplex.

Every check rebuilds the cut/state payoff from the network's links with its
own code (numpy for floats, ``Fraction`` for exact values) and compares the
package's answer against two bounds on the scheduling game's value:

* a *floor*: the smallest schedule-averaged cut value of a schedule, taken
  over every cut with finite full-duplex value;
* a *ceiling*: the largest cut-mixture-averaged value over all ``2**n``
  states, for a cut mixture found by HiGHS (``scipy.optimize.linprog``) and
  then re-evaluated here, so a loose HiGHS answer can only make the ceiling
  larger, never wrong.

Any schedule's floor is at most the game value and any cut mixture's ceiling
is at least it, so ``floor == value == ceiling`` within ``RTOL`` certifies
the value.  Exact answers must match their exact floor with ``==``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: Relative tolerance of every float comparison, scaled by max(1, |value|).
RTOL = 1e-7
#: Cuts within this relative distance of the floor enter the ceiling LP.
TIGHT_RTOL = 1e-6


def tol(value: float) -> float:
    return RTOL * max(1.0, abs(float(value)))


# ---------------------------------------------------------------------------
# Payoff tables
# ---------------------------------------------------------------------------

def _max_table(vals, dtype=float) -> np.ndarray:
    """``t[m]`` = largest value over the relays of mask m (0 for none)."""
    t = np.zeros(1 << len(vals), dtype=dtype)
    for k, v in enumerate(vals):
        lo = 1 << k
        t[lo : 2 * lo] = np.maximum(t[:lo], v)
    return t


def float_tables(uplinks, downlinks) -> tuple[np.ndarray, np.ndarray]:
    """Subset-max tables of the uplinks and of the downlinks."""
    return (_max_table([float(v) for v in uplinks]),
            _max_table([float(v) for v in downlinks]))


def exact_tables(uplinks, downlinks) -> tuple[list, list]:
    """Same tables in exact arithmetic; unbounded links stay ``math.inf``."""
    def build(vals):
        t: list = [Fraction(0)]
        for v in vals:
            x = math.inf if v == math.inf else Fraction(v)
            t = t + [max(x, y) for y in t]
        return t

    return build(uplinks), build(downlinks)


def payoff(maxl: np.ndarray, maxr: np.ndarray, n: int, cuts, states) -> np.ndarray:
    """Float payoff matrix: rows are cuts, columns are states."""
    full = (1 << n) - 1
    a = np.asarray(cuts, dtype=np.int64)[:, None]
    s = np.asarray(states, dtype=np.int64)[None, :]
    return maxl[a & (full - s)] + maxr[s & (full - a)]


def finite_cuts(maxl: np.ndarray, maxr: np.ndarray) -> np.ndarray:
    """Cut masks whose full-duplex value is finite."""
    return np.nonzero(np.isfinite(maxl + maxr[::-1]))[0]


def scheduled_cut_values(maxl, maxr, n: int, states, weights, dtype=float) -> np.ndarray:
    """Every cut's schedule-weighted value, one state at a time (a dense
    cuts x states matrix would not fit at n = 20)."""
    full = (1 << n) - 1
    cuts = np.arange(1 << n, dtype=np.int64)
    acc = np.zeros(1 << n, dtype=dtype)
    for s, w in zip(states, weights):
        acc += w * (maxl[cuts & (full - s)] + maxr[s & (full - cuts)])
    return acc


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def _linprog():
    from scipy.optimize import linprog  # imported late: not part of the workload

    return linprog


_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def mixture_ceiling(maxl: np.ndarray, maxr: np.ndarray, n: int, cuts) -> float:
    """Ceiling from the best mixture of ``cuts`` against all ``2**n`` states."""
    g = payoff(maxl, maxr, n, cuts, np.arange(1 << n))
    m = g.shape[0]
    # min V  s.t.  g^T mu <= V,  sum(mu) = 1,  mu >= 0
    c = np.zeros(m + 1)
    c[-1] = 1.0
    a_ub = np.hstack([g.T, -np.ones((g.shape[1], 1))])
    a_eq = np.ones((1, m + 1))
    a_eq[0, -1] = 0.0
    res = _linprog()(
        c, A_ub=a_ub, b_ub=np.zeros(g.shape[1]), A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * m + [(None, None)], method="highs", options=_HIGHS,
    )
    if res.status != 0:
        return math.inf
    mu = np.clip(res.x[:m], 0.0, None)
    return float(((mu / mu.sum()) @ g).max())


def game_interval(uplinks, downlinks) -> tuple[float, float]:
    """(floor, ceiling) of the whole game from one HiGHS solve of the dense
    payoff matrix: the floor of its schedule and the ceiling of its cut
    mixture, both re-evaluated here.  Meant for small n (2**n x 2**n)."""
    n = len(uplinks)
    maxl, maxr = float_tables(uplinks, downlinks)
    cuts = finite_cuts(maxl, maxr)
    if cuts.size == 0:
        return math.inf, math.inf
    size = 1 << n
    g = payoff(maxl, maxr, n, cuts, np.arange(size))
    # max V  s.t.  g p >= V,  sum(p) = 1,  p >= 0
    c = np.zeros(size + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-g, np.ones((g.shape[0], 1))])
    a_eq = np.ones((1, size + 1))
    a_eq[0, -1] = 0.0
    res = _linprog()(
        c, A_ub=a_ub, b_ub=np.zeros(g.shape[0]), A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * size + [(None, None)], method="highs", options=_HIGHS,
    )
    if res.status != 0:
        return -math.inf, math.inf
    p = np.clip(res.x[:size], 0.0, None)
    mu = np.clip(-res.ineqlin.marginals, 0.0, None)
    floor = float((g @ (p / p.sum())).min())
    ceiling = float(((mu / mu.sum()) @ g).max()) if mu.sum() > 0 else math.inf
    return floor, ceiling


# ---------------------------------------------------------------------------
# Checks per output kind; each returns None when the output holds, else why
# ---------------------------------------------------------------------------

def _schedule_arrays(sched, n: int):
    if sched is None or sched.n != n:
        return None
    states = np.array(list(sched.probs), dtype=np.int64)
    probs = np.array([float(p) for p in sched.probs.values()])
    if probs.size == 0 or (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-9:
        return None
    return states, probs


def check_capacity_float(net, result) -> str | None:
    """Float ``hd_capacity`` output: value == schedule floor == ceiling."""
    n = net.n
    maxl, maxr = float_tables(net.uplinks, net.downlinks)
    kept = finite_cuts(maxl, maxr)
    value = float(result.value)
    if kept.size == 0:
        return None if value == math.inf else f"value {value} but every cut is infinite"
    arrays = _schedule_arrays(result.optimal_schedule, n)
    if arrays is None:
        return "schedule missing, wrong size or not a distribution"
    states, probs = arrays
    vals = payoff(maxl, maxr, n, kept, states) @ probs
    floor = float(vals.min())
    if abs(value - floor) > tol(floor):
        return f"value {value!r} != schedule floor {floor!r}"
    tight = kept[vals <= floor + TIGHT_RTOL * max(1.0, abs(floor))]
    ceiling = mixture_ceiling(maxl, maxr, n, tight)
    if ceiling - floor > tol(floor):
        return f"floor {floor!r} below ceiling {ceiling!r}"
    return None


def exact_floor(uplinks, downlinks, sched) -> tuple:
    """Exact smallest scheduled value over finite cuts, and those cuts' values."""
    n = len(uplinks)
    size = 1 << n
    full = size - 1
    maxl, maxr = exact_tables(uplinks, downlinks)
    items = list(sched.probs.items())
    vals = {}
    for a in range(size):
        if maxl[a] == math.inf or maxr[full - a] == math.inf:
            continue
        vals[a] = sum(
            (p * (maxl[a & (full - s)] + maxr[s & (full - a)]) for s, p in items),
            Fraction(0),
        )
    return (min(vals.values()) if vals else math.inf), vals


def check_capacity_exact(net, result) -> str | None:
    """Rational ``hd_capacity`` output: value == exact floor, ceiling agrees."""
    n = net.n
    sched = result.optimal_schedule
    if sched is None or sched.n != n:
        return "schedule missing or wrong size"
    if not all(isinstance(p, (int, Fraction)) for p in sched.probs.values()):
        return "schedule is not exact"
    if sum(sched.probs.values()) != 1 or any(p < 0 for p in sched.probs.values()):
        return "schedule is not a distribution"
    floor, vals = exact_floor(net.uplinks, net.downlinks, sched)
    if floor == math.inf:
        return None if result.value == math.inf else "value finite but every cut is infinite"
    if not isinstance(result.value, (int, Fraction)) or result.value != floor:
        return f"value {result.value!r} != exact floor {floor!r}"
    maxl, maxr = float_tables(net.uplinks, net.downlinks)
    tight = [a for a, v in vals.items() if v == floor]
    ceiling = mixture_ceiling(maxl, maxr, n, tight)
    if ceiling - float(floor) > tol(floor):
        return f"exact floor {floor} below ceiling {ceiling!r}"
    return None


def check_rate_float(net, sched, rate) -> str | None:
    """Float ``fixed_schedule_rate``: the minimum over all cuts, attained at
    the reported cut."""
    n = net.n
    maxl, maxr = float_tables(net.uplinks, net.downlinks)
    arrays = _schedule_arrays(sched, n)
    if arrays is None:
        return "schedule does not match the network"
    states, probs = arrays
    size = 1 << n
    acc = scheduled_cut_values(maxl, maxr, n, states.tolist(), probs.tolist())
    low = float(acc.min())
    if abs(float(rate.value) - low) > tol(low):
        return f"rate {rate.value!r} != own minimum {low!r}"
    if not 0 <= rate.min_cut < size or abs(acc[rate.min_cut] - low) > tol(low):
        return f"cut {rate.min_cut} does not attain the minimum"
    return None


def exact_rate_scan(uplinks, downlinks, sched) -> Fraction:
    """Exact minimum over all cuts for finite links, scanned in numpy on
    integers: every link and probability is scaled to a common denominator."""
    den = 1
    for v in list(uplinks) + list(downlinks):
        den = math.lcm(den, Fraction(v).denominator)
    pden = 1
    for p in sched.probs.values():
        pden = math.lcm(pden, Fraction(p).denominator)
    up = [int(Fraction(v) * den) for v in uplinks]
    down = [int(Fraction(v) * den) for v in downlinks]
    weights = [int(Fraction(p) * pden) for p in sched.probs.values()]
    if 2 * max(up + down + [1]) * sum(weights) >= 2**62:
        raise OverflowError("scaled links do not fit in int64")
    maxl, maxr = _max_table(up, np.int64), _max_table(down, np.int64)
    acc = scheduled_cut_values(maxl, maxr, len(up), list(sched.probs), weights, np.int64)
    return Fraction(int(acc.min()), den * pden)


def check_rate_exact(net, sched, rate, fd_value) -> str | None:
    """Exact two-phase rate on the hard family: equals the benchmark's own
    integer scan and closes the sandwich ``rate == FD capacity == 1``."""
    low = exact_rate_scan(net.uplinks, net.downlinks, sched)
    if not isinstance(rate.value, (int, Fraction)) or rate.value != low:
        return f"rate {rate.value!r} != own exact minimum {low}"
    if not rate.value == fd_value == 1:
        return f"sandwich open: rate {rate.value}, FD {fd_value}"
    return None


def guarantee(strategy: str, n: int, k: int) -> Fraction:
    """The proven kept fraction per strategy, restated from the paper."""
    if k == n:
        return Fraction(1)
    if strategy == "worst-drop":
        return Fraction(1, 2 ** (n - k))
    if strategy == "schedule-reuse":
        return Fraction(n - 1, n)
    if strategy == "iterative":
        return Fraction(k, n)
    return max(Fraction(k, n), Fraction(1, 4) if k == 1 else Fraction(1, 2))


def check_selection(net, strategy: str, k: int, report, interval) -> str | None:
    """``select_k`` report against certified game intervals.

    ``interval(uplinks, downlinks)`` returns a certified (floor, ceiling)
    for a network given as two tuples of links.  Capacity-valued reports
    must land inside the interval of the kept subnetwork; rate-valued ones
    may not exceed its ceiling.  Both must keep at least the proven fraction
    of the full network's value.
    """
    n = net.n
    sel = tuple(report.selected)
    if len(sel) != k or list(sel) != sorted(set(sel)) or not all(1 <= x <= n for x in sel):
        return f"bad selection {sel!r} for k={k}"
    full_lo, full_hi = interval(net.uplinks, net.downlinks)
    if full_hi - full_lo > tol(full_hi):
        return f"full interval [{full_lo}, {full_hi}] did not close"
    full = float(report.full_value)
    if not full_lo - tol(full_lo) <= full <= full_hi + tol(full_hi):
        return f"full value {full!r} outside [{full_lo}, {full_hi}]"
    sub_lo, sub_hi = interval(
        tuple(net.uplinks[x - 1] for x in sel), tuple(net.downlinks[x - 1] for x in sel)
    )
    value = float(report.value)
    if value > sub_hi + tol(sub_hi) or value < -tol(0.0):
        return f"value {value!r} above subnetwork ceiling {sub_hi!r}"
    if report.value_kind == "capacity":
        if sub_hi - sub_lo > tol(sub_hi) or value < sub_lo - tol(sub_lo):
            return f"value {value!r} not certified in [{sub_lo}, {sub_hi}]"
    elif report.value_kind != "rate":
        return f"unknown value kind {report.value_kind!r}"
    want = guarantee(strategy, n, k)
    if report.bound != want:
        return f"bound {report.bound} != proven {want}"
    frac = 1.0 if full == 0 else value / full
    if abs(float(report.fraction) - frac) > tol(frac):
        return f"fraction {report.fraction!r} != value/full {frac!r}"
    if frac < float(want) - tol(1.0):
        return f"fraction {frac!r} below guarantee {want}"
    return None
