"""Dense one-phase simplex for small linear programs.

Solves  min c.x  s.t.  A_ub x <= b_ub,  x >= 0  with ``b_ub >= 0`` and no
external solver.  Every program this package poses has that shape (the
restricted matrix games of :func:`hddiamond.hd_capacity`, with one
positive rhs in every row), so the all-slack basis is feasible from the
start and one phase reaches the optimum.  The tableau's dtype carries the
arithmetic: float64, or an object array of Python ints when exact.  The
programs have at most a few thousand rows/columns, so a dense tableau is
the simple and fast-enough choice.  An optimal result also reports the
dual solution, read off the final objective row, so one solve yields both
players' mixtures of a matrix game, and its optimal basis.

Exact arithmetic is fraction-free (Edmonds, J. Res. NBS 1967; Bareiss,
Math. Comp. 1968).  The rows ``A_ub x <= b_ub`` are scaled by the lcm L of
their denominators and the costs by the lcm C of theirs, so the tableau
starts as the integers ``[L A | I | L b]`` over the denominator 1, and its
slacks are L times the LP's.  A pivot keeps every entry an integer over one
common denominator d, which each basic column holds in its own row: the
true tableau is ``T / d``, with no gcd taken inside the solve.  Every pivot
choice reads this tableau as it stands, by the same rules as float, so the
exact solve takes the pivots a ``Fraction`` tableau of the scaled system
``(C c, L A, L b)`` would take, and ``Fraction`` values are built only for
the results.

Warm starts: given a basis, typically the optimal basis of the same LP
before rows or columns were added, the solve rebuilds the tableau on it
from the original system and continues from there (the restricted master
of column generation; Desrosiers & Lübbecke, "A primer in column
generation", 2005).  An added column leaves the basis primal feasible and
is priced in by primal pivots; an added row whose slack starts basic but
negative is repaired first by dual simplex pivots.  A basis that is
singular, or that the repair cannot make feasible (or would cycle on),
falls back to the all-slack start, so a warm start is a shortcut and never
a second solver.

Pivoting: Dantzig's most-negative-reduced-cost entering rule with a
deterministic lowest-index tie-break, and the lexicographic minimum-ratio
leaving rule, the classical anti-cycling guarantee.  The matrix-game
tableaus this package produces are full of identical rows and columns, so
degenerate ties are routine and a plain index tie-break can mill for
thousands of pivots.  Runs are fully deterministic.

Float safeguard: one audit before a float basis is declared optimal (see
:func:`_iterate`).  A basis that fails it raises :class:`SolverFailure`,
and :func:`hddiamond.hd_capacity` answers that by solving exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import SolverFailure

__all__ = ["LPResult", "solve_lp"]
_MAX_PIVOTS = 500_000  # pivots one solve may take before SolverFailure

@dataclass(frozen=True)
class LPResult:
    """An optimal result carries ``x``, its ``objective``, ``duals``: the
    optimal row prices ``w >= 0`` of the ``A_ub`` rows, with
    ``c + A_ub^T w >= 0`` and ``b_ub . w == -objective``, and ``basis``: the
    optimal basic columns, one per row, where column ``j < len(c)`` is
    ``x_j`` and column ``len(c) + i`` is the slack of row ``i``.  Passed back
    to :func:`solve_lp` as ``basis``, it warm-starts a related LP.  An
    unbounded result carries None in all four."""

    status: str  # "optimal" | "unbounded"
    objective: float | Fraction | None
    x: tuple | None
    duals: tuple | None = None
    basis: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


# Tolerances keyed by exactness: (reduced-cost threshold, smallest usable
# pivot, feasibility tolerance, ratio tie width).  Exact arithmetic needs
# none of them.
_TOL = {False: (1e-9, 1e-8, 1e-8, 1e-9), True: (0, 0, 0, 0)}


def _pivot(t: np.ndarray, obj: np.ndarray | None, basis: list[int], row: int, col: int) -> None:
    piv = t[row, col]
    if t.dtype == object:
        # Edmonds' fraction-free step on the integer tableau over the
        # denominator d, which the leaving column holds in this row: every
        # other row becomes (p T_i - T_ic T_row) / d, an exact division
        # (Bareiss), the pivot row stays, and p is the new denominator.
        # Negating everything when p < 0 keeps the denominator positive.
        d = t[row, basis[row]]
        fresh = (piv * t - np.multiply.outer(t[:, col], t[row])) // d
        fresh[row] = t[row]
        t[:] = fresh
        if obj is not None:
            obj[:] = (piv * obj - obj[col] * t[row]) // d
        if piv < 0:
            np.negative(t, out=t)
            if obj is not None:
                np.negative(obj, out=obj)
        basis[row] = col
        return
    t[row] = t[row] / piv
    rows = np.flatnonzero(t[:, col] != 0)
    rows = rows[rows != row]
    # One rank-1 update.  Each entry is still a - b*c, so float results match
    # row-by-row elimination bit for bit.
    t[rows] -= np.multiply.outer(t[rows, col], t[row])
    if obj is not None and obj[col] != 0:
        obj -= obj[col] * t[row]
    basis[row] = col


def _leaving_row(t: np.ndarray, col: int, exact: bool) -> int:
    """The lexicographic minimum-ratio row for entering column ``col``; -1
    when no entry ``a > eps`` can pivot (the LP is unbounded).

    Keep the rows of least ``rhs / a``, then narrow them by ``t[:, k] / a``
    from left to right, each within the tie width.  Exact rows never tie
    throughout, as the initial basis columns are scanned too; a float full
    tie takes the lowest index.
    """
    _, eps_piv, _, tie = _TOL[exact]
    a = t[:, col]
    rows = (a > eps_piv).nonzero()[0]
    if rows.size == 0:
        return -1
    for column in chain([t[:, -1]], t.T[:-1]):
        if exact:
            rows = _least_ratios(column, a, rows)
        else:
            ratio = column[rows] / a[rows]
            rows = rows[ratio <= ratio[ratio.argmin()] + tie]
        if rows.size == 1:
            break
    return int(rows[0])


def _least_ratios(num: np.ndarray, den: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The ``rows`` of least ``num / den``, for exact entries with ``den > 0``
    there, compared by cross-multiplying: a float quotient of two big
    integers could read two different ratios as tied."""
    n, q = num[rows], den[rows]
    best = 0
    for i in range(1, rows.size):
        if n[i] * q[best] < n[best] * q[i]:
            best = i
    return rows[n * q[best] == n[best] * q]


def _refactor(
    t: np.ndarray,
    obj: np.ndarray,
    basis: list[int],
    orig: np.ndarray,
    cost: np.ndarray,
) -> bool:
    """Rebuild the float tableau as B^-1 [A | b] from the *original* system
    and the current basis, wiping out accumulated pivot roundoff, then
    re-price the objective row from the cost row ``cost``.  The
    mathematical tableau is unchanged.  Returns False, leaving the tableau
    as it was, when the basis is singular to working precision."""
    base = orig[:, basis]
    try:
        fresh = np.linalg.solve(base, orig)
    except np.linalg.LinAlgError:
        return False
    if not np.isfinite(fresh).all():
        return False
    t[:] = fresh
    obj[:] = cost
    for i, b in enumerate(basis):
        if obj[b] != 0:
            obj -= obj[b] * t[i]
    return True


def _install(
    t: np.ndarray,
    obj: np.ndarray,
    basis: list[int],
    want: Sequence[int],
    orig: np.ndarray,
    cost: np.ndarray,
) -> bool:
    """Turn the all-slack tableau into ``B^-1 [A | I | b]`` for the basic
    columns ``want``, with the objective row priced out.  Float solves the
    system in one step (:func:`_refactor`); exact arithmetic pivots each
    wanted column into a row whose slack is not wanted.  Returns False when
    ``want`` is singular, and the tableau must then be reset."""
    wanted = set(want)
    if len(wanted) != len(basis):
        return False
    if t.dtype != object:
        basis[:] = want
        return _refactor(t, obj, basis, orig, cost)
    for col in want:
        if col in basis:
            continue
        rows = [i for i, b in enumerate(basis) if b not in wanted and t[i, col] != 0]
        if not rows:
            return False
        _pivot(t, obj, basis, rows[0], col)
    return True


def _dual_repair(
    t: np.ndarray,
    obj: np.ndarray,
    basis: list[int],
    budget: list[int],
) -> bool:
    """Drive negative basic values out of a warm-start basis by dual simplex
    pivots.

    The leaving row is the most negative rhs entry, the entering column the
    dual ratio test over that row's negative entries, taken only among the
    columns whose reduced cost is already nonnegative to tolerance: each
    pivot then keeps those columns priced out while it restores primal
    feasibility, and a column still priced negative (a new state column of
    a warm start) is left for the primal pivots that follow.  This rule has
    no anti-cycling guarantee, so a repair that returns to a set of basic
    columns it has held gives up.  Returns False then, or when some
    infeasible row has no eligible column to pivot on; the solve restarts
    from the all-slack basis.
    """
    exact = t.dtype == object
    eps_rc, eps_piv, eps_feas, tie = _TOL[exact]
    ncols = t.shape[1] - 1
    seen = set()
    while True:
        rhs = t[:, -1]
        row = int(np.argmin(rhs))
        if rhs[row] >= -eps_feas:
            return True
        held = frozenset(basis)
        if held in seen:
            return False
        seen.add(held)
        a = t[row, :ncols]
        cand = np.flatnonzero((a < -eps_piv) & (obj[:ncols] >= -eps_rc))
        if cand.size == 0:
            return False
        # Among the ratios tied with the least, the largest pivot magnitude.
        if exact:
            near = _least_ratios(obj, -a, cand)
        else:
            ratios = obj[cand] / -a[cand]
            near = cand[ratios <= ratios.min() + tie]
        col = int(near[np.argmin(a[near])])
        _pivot(t, obj, basis, row, col)
        budget[0] -= 1
        if budget[0] <= 0:
            raise SolverFailure("pivot budget exhausted")


def _iterate(
    t: np.ndarray,
    obj: np.ndarray,
    basis: list[int],
    budget: list[int],
    cost: np.ndarray,
    orig: np.ndarray | None,
) -> str:
    """Run simplex pivots until optimal/unbounded. obj[-1] is -objective.

    Entering column: Dantzig's most-negative reduced cost (lowest index on
    ties).  Leaving row: minimum ratio with *lexicographic* tie-breaking,
    the classical anti-cycling rule — the game matrices this package feeds
    in are saturated with identical rows/columns, so degenerate ties are
    the norm, not the exception.

    Before a float basis is declared optimal it is audited: the tableau is
    refactorized from the original system, wiping out pivot roundoff, and
    must then be feasible (every rhs >= -eps_feas) and priced out (every
    reduced cost >= -eps_rc).  A basis that is singular or fails either
    test raises :class:`SolverFailure`; :func:`hddiamond.hd_capacity`
    answers that by solving the game exactly.  Exact mode needs no audit.
    """
    exact = t.dtype == object
    eps_rc, _, eps_feas, _ = _TOL[exact]
    ncols = t.shape[1] - 1
    while True:
        col = int(np.argmin(obj[:ncols]))
        if obj[col] >= -eps_rc:
            if exact or (
                _refactor(t, obj, basis, orig, cost)
                and t[:, -1].min() >= -eps_feas
                and obj[:ncols].min() >= -eps_rc
            ):
                return "optimal"
            raise SolverFailure("float basis failed its optimality audit")
        row = _leaving_row(t, col, exact)
        if row < 0:
            return "unbounded"
        _pivot(t, obj, basis, row, col)
        budget[0] -= 1
        if budget[0] <= 0:
            raise SolverFailure("pivot budget exhausted")


def _integers(values: Iterable) -> tuple[list[int], int]:
    """``(ints, scale)``: each value times ``scale`` as a Python int, where
    ``scale`` is the lcm of the values' denominators (1 for no values).
    Ints, ``Fraction``s and numpy integers are read by their numerator and
    denominator, floats exactly by ``as_integer_ratio``, so no ``Fraction``
    is built."""
    ratios = [
        v.as_integer_ratio() if isinstance(v, float) else (int(v.numerator), int(v.denominator))
        for v in values
    ]
    scale = math.lcm(*(d for _, d in ratios))
    return [p * (scale // d) for p, d in ratios], scale


def solve_lp(
    c: Sequence,
    a_ub: Sequence[Sequence],
    b_ub: Sequence,
    *,
    exact: bool = False,
    basis: Sequence[int] | None = None,
) -> LPResult:
    """Minimize ``c.x`` over ``A_ub x <= b_ub``, ``x >= 0``, for ``b_ub >= 0``.

    The solve starts from the all-slack basis, which ``b_ub >= 0`` makes
    feasible, so a ``b_ub`` entry below 0 raises ``ValueError``.  An optimal
    result carries the primal solution ``x``, the dual solution ``duals``
    (the slack columns' reduced costs in the final objective row, one price
    per ``A_ub`` row) and the optimal ``basis``.  With ``exact`` every
    number is a ``Fraction``, though the solve itself runs on integers (see
    the module docstring); otherwise a float.  ``A_ub`` may be a list of
    rows or of 1-d numpy arrays.

    ``basis`` warm-starts the solve: ``len(b_ub)`` distinct column indices
    in the layout of :attr:`LPResult.basis`, typically an optimal basis of
    the same LP before a row or a column was added, with the added rows'
    slacks.  The tableau is rebuilt from the original system on those
    columns; a primal-infeasible start is repaired by dual simplex pivots
    over the columns already priced out, and primal pivots finish.  A
    singular basis, or one the repair cannot make feasible, falls back to
    the all-slack start.

    A float optimum is returned only for a basis that, refactorized from
    the original system, is feasible and priced out to tolerance; any other
    float basis raises :class:`SolverFailure`, and so does a solve past
    ``_MAX_PIVOTS`` pivots in either arithmetic.
    """
    if len(a_ub) != len(b_ub):
        raise ValueError("constraint matrix/rhs length mismatch")
    nv, m = len(c), len(a_ub)
    if m == 0:
        raise ValueError("no constraints")
    if any(len(row) != nv for row in a_ub):
        raise ValueError("A_ub row length mismatch")
    if any(b < 0 for b in b_ub):
        raise ValueError("b_ub must be nonnegative")
    ncols = nv + m
    if basis is not None and (
        len(basis) != m or not all(0 <= b < ncols for b in basis)
    ):
        raise ValueError(f"basis must be {m} column indices below {ncols}")

    # Column layout: structural | slacks (one per row) | rhs.  Exact
    # arithmetic scales the rows by the lcm of their denominators and the
    # costs by the lcm of theirs, to integers (see the module docstring).
    dtype = object if exact else float
    orig = np.zeros((m, ncols + 1), dtype=dtype)
    # The slacks cost nothing, so the cost row is already the objective row
    # priced out against the all-slack basis.
    cost = np.zeros(ncols + 1, dtype=dtype)
    if exact:
        ints, scale = _integers(chain(*a_ub, b_ub))
        orig[:, :nv] = np.array(ints[: m * nv], dtype=object).reshape(m, nv)
        orig[:, -1] = ints[m * nv :]
        ints, cscale = _integers(c)
        cost[:nv] = ints
    else:
        orig[:, :nv] = np.asarray(a_ub, dtype=float).reshape(m, nv)
        orig[:, -1] = b_ub
        cost[:nv] = c
    orig[np.arange(m), nv + np.arange(m)] = 1
    budget = [_MAX_PIVOTS]

    status = None
    if basis is not None:
        t, obj, rows = orig.copy(), cost.copy(), list(range(nv, ncols))
        if _install(t, obj, rows, [int(b) for b in basis], orig, cost) and _dual_repair(
            t, obj, rows, budget
        ):
            status = _iterate(t, obj, rows, budget, cost, orig)
    if status is None:
        t, obj, rows = orig.copy(), cost.copy(), list(range(nv, ncols))
        status = _iterate(t, obj, rows, budget, cost, orig)
    if status != "optimal":
        return LPResult(status, None, None)

    # Every exact basic column holds the common denominator in its own row.
    d = t[0, rows[0]]
    zero = Fraction(0) if exact else 0.0
    x = [zero] * nv
    for i, b in enumerate(rows):
        if b < nv:
            x[b] = Fraction(t[i, -1], d) if exact else t[i, -1]
    if exact:
        duals = tuple(Fraction(scale * w, cscale * d) for w in obj[nv:ncols])
        objective = sum((xi * ci for xi, ci in zip(x, cost[:nv])), zero) / cscale
    else:
        duals = tuple(obj[nv:ncols])
        objective = sum((xi * ci for xi, ci in zip(x, cost[:nv].tolist())), zero)
    return LPResult("optimal", objective, tuple(x), duals, tuple(rows))
