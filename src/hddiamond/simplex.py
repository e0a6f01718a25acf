"""Dense two-phase simplex for small linear programs.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0  with no
external solver.  Two interchangeable arithmetic modes share one code path:
float64 (numpy) and exact rational (``fractions.Fraction`` in object
arrays).  The programs this package generates are matrix-game programs with
at most a few thousand rows/columns, so a dense tableau is the simple and
fast-enough choice.  An optimal all-slack-start LP also reports its dual
solution, read off the final objective row, so one solve yields both
players' mixtures of a matrix game.

Pivoting: Dantzig's most-negative-reduced-cost entering rule with a
deterministic lowest-index tie-break, and the lexicographic minimum-ratio
leaving rule, the classical anti-cycling guarantee.  The matrix-game
tableaus this package produces are full of identical rows and columns, so
degenerate ties are routine and a plain index tie-break can mill for
thousands of pivots.  Runs are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import SolverFailure

__all__ = ["LPResult", "solve_lp"]

@dataclass(frozen=True)
class LPResult:
    """``duals`` are the optimal row prices ``w >= 0`` of the ``A_ub`` rows:
    ``c + A_ub^T w >= 0`` and ``b_ub . w == -objective``.  They are reported
    only for an optimal LP that started from the all-slack basis (``<=`` rows
    with ``b_ub >= 0`` and no equality rows); otherwise they are None."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | Fraction | None
    x: tuple | None
    duals: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


# Basic values closer to zero than this are treated as exactly zero when a
# pivot is taken or a ratio is formed.  A degenerate vertex leaves rhs
# entries that are pure roundoff (~1e-15); dividing one by a near-threshold
# pivot element (~1e-8..1e-6) would otherwise amplify that noise into a
# "step" that walks the basis out of the feasible region.
_EPS_ZERO_RHS = 1e-11


class _Mode:
    """Arithmetic-mode shims so both code paths stay identical."""

    def __init__(self, exact: bool):
        self.exact = exact
        if exact:
            self.zero = Fraction(0)
            self.eps_rc = Fraction(0)      # reduced-cost threshold
            self.eps_piv = Fraction(0)     # smallest usable pivot
            self.eps_feas = Fraction(0)    # feasibility tolerance
            self.tie = Fraction(0)
        else:
            self.zero = 0.0
            self.eps_rc = 1e-9
            self.eps_piv = 1e-8
            self.eps_feas = 1e-8
            self.tie = 1e-9

    def num(self, v) -> float | Fraction:
        if self.exact:
            return v if isinstance(v, Fraction) else Fraction(v)
        return float(v)

    def array(self, rows: int, cols: int) -> np.ndarray:
        if self.exact:
            return np.full((rows, cols), Fraction(0), dtype=object)
        return np.zeros((rows, cols))

    def vector(self, cols: int) -> np.ndarray:
        if self.exact:
            return np.full(cols, Fraction(0), dtype=object)
        return np.zeros(cols)

    def values(self, vals: Sequence) -> np.ndarray:
        if self.exact:
            return np.array([self.num(v) for v in vals], dtype=object)
        return np.array(vals, dtype=float)


def _pivot(t: np.ndarray, obj: np.ndarray | None, basis: list[int], row: int, col: int) -> None:
    piv = t[row, col]
    if t.dtype != object and -_EPS_ZERO_RHS < t[row, -1] < _EPS_ZERO_RHS:
        t[row, -1] = 0.0  # keep a degenerate pivot exactly degenerate
    t[row] = t[row] / piv
    rows = np.flatnonzero(t[:, col] != 0)
    rows = rows[rows != row]
    # One rank-1 update.  Each entry is still a - b*c, so float results match
    # row-by-row elimination bit for bit.
    t[rows] -= np.multiply.outer(t[rows, col], t[row])
    if obj is not None and obj[col] != 0:
        obj -= obj[col] * t[row]
    basis[row] = col


def _priced_objective(t: np.ndarray, basis: list[int], c_full: np.ndarray, mode: _Mode) -> np.ndarray:
    obj = mode.vector(t.shape[1])
    obj[: c_full.shape[0]] = c_full
    for i, b in enumerate(basis):
        if obj[b] != 0:
            obj = obj - obj[b] * t[i]
    return obj


def _lexico_less(t: np.ndarray, i: int, ai, j: int, aj, mode: _Mode) -> bool:
    """Is row i's ratio vector lexicographically below row j's?

    Compares ``t[i] / ai`` against ``t[j] / aj`` entry by entry, rhs first
    then left to right.  The columns of the initial basis are among those
    scanned, so two distinct rows can never tie exactly (that would make
    the basis inverse singular).
    """
    ncols = t.shape[1]
    order = [ncols - 1] + list(range(ncols - 1))
    for k in order:
        d = t[i, k] / ai - t[j, k] / aj
        if d < -mode.tie:
            return True
        if d > mode.tie:
            return False
    return False


def _refactor(
    t: np.ndarray,
    obj: np.ndarray,
    basis: list[int],
    orig: np.ndarray,
    c_full: np.ndarray,
    mode: _Mode,
) -> None:
    """Rebuild the float tableau as B^-1 [A | b] from the *original* system
    and the current basis, wiping out accumulated pivot roundoff, then
    re-price the objective row.  The mathematical tableau is unchanged."""
    base = orig[:, basis]
    try:
        fresh = np.linalg.solve(base, orig)
    except np.linalg.LinAlgError:
        return  # singular to working precision: keep the pivoted tableau
    t[:] = fresh
    obj[:] = _priced_objective(t, basis, c_full, mode)


_REFACTOR_EVERY = 64


def _dual_repair(
    t: np.ndarray,
    obj: np.ndarray,
    basis: list[int],
    mode: _Mode,
    budget: list[int],
) -> bool:
    """Drive negative basic values out of a dual-feasible basis.

    Dual simplex: the leaving row is the most negative rhs entry, the
    entering column the dual ratio test over that row's negative entries.
    Used as the backstop when the refactorized tableau shows the current
    basis is primal-infeasible beyond tolerance (a mis-stepped degenerate
    pivot can cause that); reduced costs are already ~nonnegative here, so
    each pivot keeps dual feasibility while restoring primal feasibility.
    Returns False if some infeasible row has no negative entry to pivot on.
    """
    ncols = t.shape[1] - 1
    while True:
        row = int(np.argmin(t[:, -1]))
        if t[row, -1] >= -mode.eps_feas:
            return True
        col = -1
        best = None
        for j in range(ncols):
            a = t[row, j]
            if a < -mode.eps_piv:
                ratio = obj[j] / -a
                if best is None or ratio < best - mode.tie or (
                    ratio <= best + mode.tie and a < t[row, col]
                ):
                    best, col = ratio, j
        if col < 0:
            return False
        _pivot(t, obj, basis, row, col)
        budget[0] -= 1
        if budget[0] <= 0:
            raise SolverFailure("pivot budget exhausted")


def _iterate(
    t: np.ndarray,
    obj: np.ndarray,
    basis: list[int],
    mode: _Mode,
    budget: list[int],
    c_full: np.ndarray,
    orig: np.ndarray | None,
) -> str:
    """Run simplex pivots until optimal/unbounded. obj[-1] is -objective.

    Entering column: Dantzig's most-negative reduced cost (lowest index on
    ties).  Leaving row: minimum ratio with *lexicographic* tie-breaking,
    the classical anti-cycling rule — the game matrices this package feeds
    in are saturated with identical rows/columns, so degenerate ties are
    the norm, not the exception.

    Float mode refactorizes every ``_REFACTOR_EVERY`` pivots and again
    whenever optimality is about to be declared: long degenerate runs
    otherwise accumulate enough tableau roundoff for phantom optima (and
    mildly infeasible bases) to slip through.  The pre-optimality refactor
    also audits the rhs column and runs a dual-simplex repair if the basis
    drifted infeasible — "optimal" is only ever returned for a basis that
    is feasible and priced out at the same time.  Exact mode needs none of
    this.
    """
    ncols = t.shape[1] - 1
    refreshes = 0
    since_refactor = 0
    while True:
        col = -1
        j = int(np.argmin(obj[:ncols]))
        if obj[j] < -mode.eps_rc:
            col = j
        if col < 0:
            if mode.exact:
                return "optimal"
            _refactor(t, obj, basis, orig, c_full, mode)
            since_refactor = 0
            if t[:, -1].min() < -mode.eps_feas:
                if not _dual_repair(t, obj, basis, mode, budget):
                    raise SolverFailure("basis would not refeasibilize")
                _refactor(t, obj, basis, orig, c_full, mode)
            j = int(np.argmin(obj[:ncols]))
            if obj[j] >= -mode.eps_rc:
                if t[:, -1].min() < -mode.eps_feas:
                    raise SolverFailure("basis would not refeasibilize")
                return "optimal"
            refreshes += 1
            if refreshes > 50:
                raise SolverFailure("reduced costs will not settle")
            col = j

        row = -1
        best = None
        best_a = None
        for i in range(t.shape[0]):
            a = t[i, col]
            if a > mode.eps_piv:
                num = t[i, -1]
                if not mode.exact and -_EPS_ZERO_RHS < num < _EPS_ZERO_RHS:
                    num = 0.0  # degenerate to tolerance: noise must not set the step
                ratio = num / a
                if best is None or ratio < best - mode.tie:
                    best, row, best_a = ratio, i, a
                elif ratio <= best + mode.tie and _lexico_less(t, i, a, row, best_a, mode):
                    best, row, best_a = ratio, i, a
        if row < 0:
            return "unbounded"

        _pivot(t, obj, basis, row, col)
        budget[0] -= 1
        if budget[0] <= 0:
            raise SolverFailure("pivot budget exhausted")
        since_refactor += 1
        if not mode.exact and since_refactor >= _REFACTOR_EVERY:
            _refactor(t, obj, basis, orig, c_full, mode)
            since_refactor = 0


def solve_lp(
    c: Sequence,
    a_ub: Sequence[Sequence] | None = None,
    b_ub: Sequence | None = None,
    a_eq: Sequence[Sequence] | None = None,
    b_eq: Sequence | None = None,
    *,
    exact: bool = False,
    max_pivots: int = 500_000,
) -> LPResult:
    """Minimize ``c.x`` over ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``x >= 0``.

    An optimal result carries the primal solution ``x`` and, when no row
    needed an artificial variable (no equality rows, no ``b_ub`` entry
    below 0), the dual solution ``duals``: the slack columns' reduced costs
    in the final objective row, one price per ``A_ub`` row.  With
    artificials the starting basis is not all-slack and ``duals`` is None.
    """
    mode = _Mode(exact)
    a_ub = [] if a_ub is None else a_ub
    b_ub = [] if b_ub is None else b_ub
    a_eq = [] if a_eq is None else a_eq
    b_eq = [] if b_eq is None else b_eq
    if len(a_ub) != len(b_ub) or len(a_eq) != len(b_eq):
        raise ValueError("constraint matrix/rhs length mismatch")

    nv = len(c)
    m_ub, m_eq = len(a_ub), len(a_eq)
    m = m_ub + m_eq
    if m == 0:
        raise ValueError("no constraints")

    for name, rows in (("A_ub", a_ub), ("A_eq", a_eq)):
        if any(len(row) != nv for row in rows):
            raise ValueError(f"{name} row length mismatch")

    # Column layout: structural | slacks (one per ub row) | artificials | rhs.
    # Rows are sign-normalized to rhs >= 0 first; a flipped ub row's slack
    # gets coefficient -1 and the row needs an artificial, like eq rows.
    coeffs = mode.values([v for row in (*a_ub, *a_eq) for v in row]).reshape(m, nv)
    rhs = mode.values([*b_ub, *b_eq])
    flipped = rhs < 0
    coeffs[flipped] = -coeffs[flipped]
    rhs[flipped] = -rhs[flipped]
    art_rows = np.flatnonzero(flipped | (np.arange(m) >= m_ub))
    n_art = len(art_rows)
    ncols = nv + m_ub + n_art

    one = mode.num(1)
    t = mode.array(m, ncols + 1)
    t[:, :nv] = coeffs
    t[:, -1] = rhs
    slack = np.arange(m_ub)
    t[slack, nv + slack] = one
    flipped_ub = np.flatnonzero(flipped[:m_ub])
    t[flipped_ub, nv + flipped_ub] = -one
    t[art_rows, nv + m_ub + np.arange(n_art)] = one
    basis = [nv + i for i in range(m)]
    for k, i in enumerate(art_rows.tolist()):
        basis[i] = nv + m_ub + k

    budget = [max_pivots]
    # Pristine copy of the initial system for float refactorization.
    orig = None if exact else t.copy()

    if n_art:
        c1 = mode.vector(ncols)
        c1[nv + m_ub :] = mode.num(1)
        obj1 = _priced_objective(t, basis, c1, mode)
        status = _iterate(t, obj1, basis, mode, budget, c1, orig)
        if status != "optimal" or -obj1[-1] > mode.eps_feas:
            return LPResult("infeasible", None, None)
        # Clear leftover degenerate artificials from the basis, then drop
        # the artificial columns entirely.
        drop_rows = []
        for i in range(m):
            if basis[i] >= nv + m_ub:
                col = next(
                    (j for j in range(nv + m_ub) if abs(t[i, j]) > mode.eps_piv),
                    -1,
                )
                if col < 0:
                    drop_rows.append(i)  # redundant constraint
                else:
                    _pivot(t, None, basis, i, col)
                    budget[0] -= 1
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            t = t[keep]
            basis = [basis[i] for i in keep]
            m = len(keep)
            if orig is not None:
                orig = orig[keep]
        t = np.concatenate([t[:, : nv + m_ub], t[:, -1:]], axis=1)
        if orig is not None:
            orig = np.concatenate([orig[:, : nv + m_ub], orig[:, -1:]], axis=1)
        ncols = nv + m_ub

    c2 = mode.vector(ncols)
    c2[:nv] = mode.values(c)
    obj2 = _priced_objective(t, basis, c2, mode)
    status = _iterate(t, obj2, basis, mode, budget, c2, orig)
    if status != "optimal":
        return LPResult(status, None, None)

    x = [mode.zero] * nv
    for i, b in enumerate(basis):
        if b < nv:
            x[b] = t[i, -1]
    objective = sum((xi * mode.num(ci) for xi, ci in zip(x, c)), mode.zero)
    # Without artificials phase 2 starts from the all-slack basis, and the
    # slack columns' reduced costs are the row prices.
    duals = None if n_art else tuple(obj2[nv : nv + m_ub])
    return LPResult("optimal", objective, tuple(x), duals)
