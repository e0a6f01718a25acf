"""Self-contained one-phase simplex solver: exact and float paths, hard cases."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from hddiamond import SolverFailure, simplex, solve_lp


class TestBasics:
    def test_simple_bounded(self):
        res = solve_lp([-1, -1], [[1, 1], [1, 0]], [4, 2])
        assert res.ok
        assert res.objective == pytest.approx(-4.0)
        assert res.x == pytest.approx((2.0, 2.0))

    def test_mixed_rows(self):
        # min x + y  s.t.  x + y >= 1 (as -x - y <= -1), x <= 3: a negative
        # rhs makes the all-slack start infeasible, so it is refused.
        with pytest.raises(ValueError):
            solve_lp([1, 1], [[-1, -1], [1, 0]], [-1, 3])
        with pytest.raises(ValueError):
            solve_lp([F(1), F(1)], [[F(-1), F(-1)], [F(1), F(0)]], [F(-1), F(3)], exact=True)

    def test_unbounded(self):
        res = solve_lp([-1, -1], [[1, -1]], [1])
        assert res.status == "unbounded"
        assert not res.ok

    def test_redundant_duplicate_rows(self):
        res = solve_lp([-1], [[1], [1], [1]], [2, 2, 2])
        assert res.ok and res.objective == pytest.approx(-2.0)

    def test_zero_rhs_degenerate_start(self):
        # x <= y forces the degenerate vertex (0, 0) into the basis path;
        # maximizing x must still escape it and reach (1/2, 1/2).
        res = solve_lp([-1, 0], [[1, -1], [1, 1]], [0, 1])
        assert res.ok
        assert res.objective == pytest.approx(-0.5)
        assert res.x == pytest.approx((0.5, 0.5))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_lp([1], [], [])  # no constraints
        with pytest.raises(ValueError):
            solve_lp([1], [[1, 2]], [1])  # row length mismatch
        with pytest.raises(ValueError):
            solve_lp([1], [[1]], [1, 2])  # rhs length mismatch

    def test_pivot_budget(self, monkeypatch):
        monkeypatch.setattr(simplex, "_MAX_PIVOTS", 1)
        with pytest.raises(SolverFailure):
            solve_lp([-1, -1], [[1, 1], [1, 0], [0, 1]], [4, 2, 3])


class TestDegenerate:
    def test_beale_cycling_example_float(self):
        # The classic cycling instance for naive most-negative pivoting.
        c = [-0.75, 150.0, -0.02, 6.0]
        a = [
            [0.25, -60.0, -1.0 / 25.0, 9.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        b = [0.0, 0.0, 1.0]
        res = solve_lp(c, a, b)
        assert res.ok
        assert res.objective == pytest.approx(-0.05, abs=1e-12)

    def test_beale_cycling_example_exact(self):
        c = [F(-3, 4), F(150), F(-1, 50), F(6)]
        a = [
            [F(1, 4), F(-60), F(-1, 25), F(9)],
            [F(1, 2), F(-90), F(-1, 50), F(3)],
            [F(0), F(0), F(1), F(0)],
        ]
        b = [F(0), F(0), F(1)]
        res = solve_lp(c, a, b, exact=True)
        assert res.ok
        assert res.objective == F(-1, 20)
        assert all(isinstance(v, F) for v in res.x)

    def test_highly_degenerate_identical_rows(self):
        # Many identical rows + zero rhs: the kind of tableau matrix games make.
        n = 6
        a = [[1] * n for _ in range(8)] + [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        b = [1] * 8 + [0] * n
        res = solve_lp([-1] * n, a, b)
        assert res.ok
        assert res.objective == pytest.approx(0.0, abs=1e-12)


class TestExact:
    def test_fraction_exactness(self):
        res = solve_lp([F(-1)], [[F(3)]], [F(1, 3)], exact=True)
        assert res.ok
        assert res.objective == F(-1, 9)
        assert res.x == (F(1, 9),)

    def test_exact_matches_float(self):
        c = [F(-2), F(1), F(-1)]
        a = [[F(1), F(1), F(1)], [F(2), F(-1), F(0)], [F(0), F(1), F(3)]]
        b = [F(4), F(2), F(6)]
        exact = solve_lp(c, a, b, exact=True)
        approx = solve_lp([float(v) for v in c], [[float(v) for v in r] for r in a], [float(v) for v in b])
        assert exact.ok and approx.ok
        assert float(exact.objective) == pytest.approx(approx.objective, abs=1e-9)
        # Ints, numpy integers and floats are read exactly, as Fractions are.
        for cast in (int, np.int64, float):
            res = solve_lp([cast(v) for v in c], [np.array([cast(v) for v in r]) for r in a],
                           [cast(v) for v in b], exact=True)
            assert res == exact
            assert all(type(v) is F for v in (res.objective, *res.x, *res.duals))


class TestAgainstScipy:
    """Randomized cross-check against an independent solver."""

    def test_random_lps_match(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        import numpy as np

        rng = np.random.default_rng(2024)
        checked = 0
        for trial in range(60):
            nv = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            c = rng.uniform(-2, 2, nv)
            a = rng.uniform(-2, 2, (m, nv))
            b = rng.uniform(-1, 3, m)
            if (b < 0).any():
                with pytest.raises(ValueError):
                    solve_lp(list(c), [list(r) for r in a], list(b))
                continue
            mine = solve_lp(list(c), [list(r) for r in a], list(b))
            ref = scipy_opt.linprog(c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
            if mine.ok:
                assert ref.status == 0, f"trial {trial}: we say optimal, scipy says {ref.status}"
                assert mine.objective == pytest.approx(ref.fun, abs=1e-7)
                checked += 1
            else:  # unbounded: HiGHS may report 2, 3 or 4 for these
                assert ref.status in (2, 3, 4)
        assert checked == 15  # the bounded draws among the 22 with b >= 0


def _assert_certified_duals(res, c, a, b, tol):
    """``duals`` certify optimality: w >= 0, c + A^T w >= 0, b.w = -objective."""
    w = res.duals
    assert w is not None and len(w) == len(a)
    assert all(wi >= -tol for wi in w)
    for j in range(len(c)):
        assert c[j] + sum(a[i][j] * w[i] for i in range(len(a))) >= -tol
    bw = sum(bi * wi for bi, wi in zip(b, w))
    if tol:
        assert bw == pytest.approx(-res.objective, abs=tol)
    else:
        assert bw == -res.objective


class TestDuals:
    def test_random_float_lps(self):
        import numpy as np

        rng = np.random.default_rng(2024)  # the draws of TestAgainstScipy
        certified = 0
        for _ in range(60):
            nv = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            c = rng.uniform(-2, 2, nv)
            a = rng.uniform(-2, 2, (m, nv))
            b = rng.uniform(-1, 3, m)
            if (b < 0).any():
                with pytest.raises(ValueError):
                    solve_lp(list(c), [list(r) for r in a], list(b))
                continue
            res = solve_lp(list(c), [list(r) for r in a], list(b))
            if not res.ok:
                assert res.duals is None
            else:
                _assert_certified_duals(res, c, a, b, 1e-9)
                certified += 1
        assert certified >= 10

    def test_random_rational_lps(self):
        import random

        rng = random.Random(11)
        certified = 0
        for _ in range(40):
            nv, m = rng.randint(1, 4), rng.randint(1, 5)
            c = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nv)]
            a = [[F(rng.randint(-4, 6), rng.randint(1, 5)) for _ in range(nv)] for _ in range(m)]
            b = [F(rng.randint(0, 8), rng.randint(1, 3)) for _ in range(m)]
            res = solve_lp(c, a, b, exact=True)
            if res.ok:
                assert all(type(w) is F for w in res.duals)
                _assert_certified_duals(res, c, a, b, 0)
                certified += 1
            else:
                assert res.duals is None
        assert certified >= 20

    def test_none_with_artificials(self):
        # A row that would need an artificial start (x + y >= 1 written as
        # -x - y <= -1) is refused in either arithmetic.
        with pytest.raises(ValueError):
            solve_lp([1, 1], [[-1, -1], [1, 0]], [-1, 3])
        with pytest.raises(ValueError):
            solve_lp([F(1), F(1)], [[F(-1), F(-1)]], [F(-1)], exact=True)

    def test_matrix_game_prices(self):
        # max x1 + x2 s.t. [[2, 1], [1, 3]] x <= 1: both rows bind, and the
        # prices are the row mixture of the game.
        res = solve_lp([F(-1), F(-1)], [[F(2), F(1)], [F(1), F(3)]], [F(1), F(1)], exact=True)
        assert res.objective == F(-3, 5)
        assert res.duals == (F(2, 5), F(1, 5))


class TestPivot:
    """The one-step pivot update against the row-by-row loop it replaced:
    each float entry is a - b*c either way, so the results must be equal bit
    for bit, and the exact integer tableau over its denominator must equal
    the loop's ``Fraction`` tableau as values."""

    @staticmethod
    def loop_pivot(t, row, col):
        t[row] = t[row] / t[row, col]
        for i in range(t.shape[0]):
            if i != row and t[i, col] != 0:
                t[i] = t[i] - t[i, col] * t[row]

    def test_matches_row_loop(self):
        import numpy as np

        from hddiamond.simplex import _pivot

        rng = np.random.default_rng(3)
        for trial in range(40):
            m, ncols = int(rng.integers(1, 7)), int(rng.integers(2, 9))
            nums = rng.integers(-5, 6, (m, ncols))
            nums[rng.random((m, ncols)) < 0.3] = 0  # zeros in the pivot column too
            row, col = int(rng.integers(m)), int(rng.integers(ncols - 1))
            nums[row, col] = int(rng.integers(1, 6))
            dens = rng.integers(1, 7, (m, ncols))
            t = nums / dens
            ref = t.copy()
            self.loop_pivot(ref, row, col)
            basis = [0] * m
            _pivot(t, None, basis, row, col)
            assert basis[row] == col
            assert t.tobytes() == ref.tobytes(), trial

    def test_integer_matches_row_loop(self):
        """Chains of fraction-free pivots from ``[A | I | b]`` over the
        denominator 1, the objective row included; pivots of either sign."""
        import numpy as np

        from hddiamond.simplex import _pivot

        rng = np.random.default_rng(5)
        negative = 0
        for trial in range(40):
            m, nv = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            t = np.zeros((m, nv + m + 1), dtype=object)
            t[:, :nv] = rng.integers(-6, 7, (m, nv)).astype(object)
            t[rng.random((m, nv + m + 1)) < 0.25] = 0
            t[np.arange(m), nv + np.arange(m)] = 1
            t[:, -1] = rng.integers(0, 9, m).astype(object)
            obj = np.zeros(nv + m + 1, dtype=object)
            obj[:nv] = rng.integers(-6, 7, nv).astype(object)
            ref, ref_obj = t * F(1), obj * F(1)
            basis = list(range(nv, nv + m))
            for step in range(int(rng.integers(1, 2 * m + 1))):
                moves = [(i, j) for i in range(m) for j in range(nv + m)
                         if j not in basis and t[i, j] != 0]
                if not moves:
                    break
                row, col = moves[int(rng.integers(len(moves)))]
                negative += t[row, col] < 0
                self.loop_pivot(ref, row, col)
                ref_obj -= ref_obj[col] * ref[row]
                _pivot(t, obj, basis, row, col)
                assert basis[row] == col
                d = t[row, col]
                assert d > 0 and all(t[i, b] == d for i, b in enumerate(basis)), (trial, step)
                assert all(type(v) is int for v in (*t.ravel(), *obj)), (trial, step)
                assert (t * F(1, d) == ref).all() and (obj * F(1, d) == ref_obj).all(), (trial, step)
        assert negative >= 20  # the sign normalisation is exercised


def _scipy_draws(exact):
    """The bounded-or-not draws of TestAgainstScipy with ``b >= 0``, as
    (c, A, b) lists; Fractions of the same floats when ``exact``."""
    import numpy as np

    rng = np.random.default_rng(2024)
    conv = F if exact else float
    draws = []
    for _ in range(60):
        nv = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        c = rng.uniform(-2, 2, nv)
        a = rng.uniform(-2, 2, (m, nv))
        b = rng.uniform(-1, 3, m)
        if (b >= 0).all():
            draws.append(([conv(v) for v in c], [[conv(v) for v in r] for r in a], [conv(v) for v in b]))
    return draws


class TestWarmStart:
    """``solve_lp(..., basis=...)`` starts from a given basis: an optimal
    basis of the LP before a row and/or a column was added."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from hddiamond import simplex

        seen = {"pivots": 0, "repairs": 0}
        pivot, repair = simplex._pivot, simplex._dual_repair

        def counting_pivot(*args):
            seen["pivots"] += 1
            return pivot(*args)

        def counting_repair(*args):
            seen["repairs"] += 1
            return repair(*args)

        monkeypatch.setattr(simplex, "_pivot", counting_pivot)
        monkeypatch.setattr(simplex, "_dual_repair", counting_repair)
        return seen

    @pytest.mark.parametrize("exact", [False, True])
    def test_optimal_basis_takes_no_pivots(self, exact, counts):
        solved = 0
        for c, a, b in _scipy_draws(exact):
            cold = solve_lp(c, a, b, exact=exact)
            if not cold.ok:
                continue
            # Exact arithmetic installs the basis by pivoting each of its
            # structural columns into the all-slack tableau; float solves for
            # it.  No simplex pivot follows either way.
            installs = sum(j < len(c) for j in cold.basis) if exact else 0
            before = counts["pivots"]
            warm = solve_lp(c, a, b, exact=exact, basis=cold.basis)
            assert counts["pivots"] - before == installs
            assert warm == cold
            solved += 1
        assert solved == 15

    @pytest.mark.parametrize("exact", [False, True])
    def test_grown_lp_matches_cold_and_highs(self, exact, counts):
        scipy_opt = pytest.importorskip("scipy.optimize")
        checked = 0
        for c, a, b in _scipy_draws(exact):
            nv, m = len(c), len(a)
            # Drop the last column, the last row, or both, solve the smaller
            # LP, and warm-start the full one from its optimal basis.
            for drop_col, drop_row in ((1, 0), (0, 1), (1, 1)):
                if nv - drop_col < 1 or m - drop_row < 1:
                    continue
                sv, sm = nv - drop_col, m - drop_row
                small = solve_lp(c[:sv], [r[:sv] for r in a[:sm]], b[:sm], exact=exact)
                if not small.ok:
                    continue
                basis = [j if j < sv else nv + j - sv for j in small.basis]
                basis += [nv + i for i in range(sm, m)]
                warm = solve_lp(c, a, b, exact=exact, basis=basis)
                cold = solve_lp(c, a, b, exact=exact)
                assert warm.status == cold.status
                ref = scipy_opt.linprog(
                    [float(v) for v in c], A_ub=[[float(v) for v in r] for r in a],
                    b_ub=[float(v) for v in b], bounds=(0, None), method="highs",
                )
                if not cold.ok:
                    assert ref.status in (2, 3, 4)
                    continue
                assert ref.status == 0
                if exact:
                    assert warm.objective == cold.objective
                else:
                    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
                assert float(warm.objective) == pytest.approx(ref.fun, abs=1e-7)
                _assert_certified_duals(warm, c, a, b, 0 if exact else 1e-9)
                checked += 1
        assert checked >= 20
        assert counts["repairs"] > 0  # some added rows cut the old optimum off

    @pytest.mark.parametrize("exact", [False, True])
    def test_singular_basis_falls_back_to_cold(self, exact):
        one = F(1) if exact else 1.0
        # Columns 0 and 1 are equal, so {0, 1} is no basis.
        c, a, b = [-one, -one, -2 * one], [[one, one, one], [2 * one, 2 * one, one]], [one, one]
        cold = solve_lp(c, a, b, exact=exact)
        assert cold.ok
        for basis in ((0, 1), (2, 2)):
            assert solve_lp(c, a, b, exact=exact, basis=basis) == cold

    def test_malformed_basis_raises(self):
        for basis in ((0,), (0, 1, 2), (0, 5)):
            with pytest.raises(ValueError):
                solve_lp([-1, -1], [[1, 1], [1, 0]], [4, 2], basis=basis)



class TestOptimalityAudit:
    """A float basis is returned as optimal only when the tableau,
    refactorized from the original system, is feasible and priced out;
    otherwise ``solve_lp`` raises ``SolverFailure``, and ``hd_capacity``
    answers that by solving the game exactly."""

    LP = ([-1.0, -1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 5.0])

    @pytest.mark.parametrize("spoil", ["singular", "infeasible", "priced negative"])
    def test_failed_audit_raises(self, monkeypatch, spoil):
        assert solve_lp(*self.LP).ok
        real = simplex._refactor

        def refactor(t, obj, basis, orig, cost):
            if spoil == "singular" or not real(t, obj, basis, orig, cost):
                return False
            if spoil == "infeasible":
                t[0, -1] = -1e-6
            else:
                obj[0] = -1e-6
            return True

        monkeypatch.setattr(simplex, "_refactor", refactor)
        with pytest.raises(SolverFailure):
            solve_lp(*self.LP)
        exact = solve_lp(*self.LP, exact=True)
        assert exact.ok and exact.objective == F(-13, 5)

    def test_hd_capacity_escalates(self, monkeypatch):
        from hddiamond import gen_random, hd_capacity

        net = gen_random(5, 0)
        want = hd_capacity(net, "rational").value
        monkeypatch.setattr(simplex, "_refactor", lambda *args: False)
        res = hd_capacity(net)
        assert res.value == float(want)
        assert res.arithmetic == "float"


def _degenerate_tableau(rng):
    """A small tableau (last column the rhs >= 0) full of ratio ties, as
    integer entries: rows repeated at power-of-two scales, some changed in
    one entry at a random depth of the lexicographic order, zero rhs
    entries, and an entering column with some entries not positive.
    Returns the integer array and the entering column."""
    import numpy as np

    m, ncols = int(rng.integers(2, 9)), int(rng.integers(2, 7))
    t = rng.integers(-3, 4, (m, ncols + 1))
    t[:, -1] = np.abs(t[:, -1])
    t[rng.random(m) < 0.4, -1] = 0
    col = int(rng.integers(ncols))
    t[:, col] = rng.choice([-1, 0, 1, 2, 4], m, p=[0.15, 0.15, 0.3, 0.2, 0.2])
    for _ in range(int(rng.integers(1, m + 1))):
        i, j = (int(v) for v in rng.choice(m, 2, replace=False))
        t[j] = t[i] * int(rng.choice([1, 2, 4]))
        k = int(rng.integers(-1, ncols + 1))  # ncols: leave the copy whole
        if k < ncols and k != col:
            t[j, k] += int(rng.choice([-1, 1]))
            t[j, -1] = abs(t[j, -1])
    return t, col


class TestLeavingRow:
    """The one-step leaving-row rule against the pairwise row scan it
    replaced (``oracles.pairwise_leaving_row``) and, in exact arithmetic,
    against the brute-force lexicographic minimum of the ratio vectors."""

    def test_matches_pairwise_scan_and_brute_force(self):
        from math import inf

        import numpy as np

        from hddiamond.simplex import _leaving_row
        from oracles import pairwise_leaving_row

        rng = np.random.default_rng(7)
        depths = []
        for trial in range(400):
            nums, col = _degenerate_tableau(rng)
            exact = np.vectorize(F, otypes=[object])(nums)
            a = exact[:, col]
            eligible = [i for i in range(len(a)) if a[i] > 0]
            key = lambda i: (exact[i, -1] / a[i], *(exact[i, k] / a[i] for k in range(nums.shape[1] - 1)))
            want = min(eligible, key=key) if eligible else -1
            assert _leaving_row(exact, col, True) == want, trial
            assert _leaving_row(nums.astype(object), col, True) == want, trial
            assert pairwise_leaving_row(exact, col, True) == want, trial
            # Powers of two as pivots keep every float ratio exact, so the
            # float rule sees the same ties and must pick the same row.
            floats = nums.astype(float)
            assert _leaving_row(floats, col, False) == want, trial
            assert pairwise_leaving_row(floats, col, False) == want, trial
            # How many leading entries of its ratio vector the winner shares
            # with the closest other eligible row (-1: none eligible, inf:
            # all of them, a full tie that the lowest index breaks).
            shared = lambda i: next((d for d, (x, y) in enumerate(zip(key(want), key(i))) if x != y), inf)
            depths.append(max((shared(i) for i in eligible if i != want), default=0) if eligible else -1)
        assert depths.count(-1) >= 10  # unbounded columns
        assert sum(d >= 1 for d in depths) >= 100  # ratio ties
        assert sum(d >= 3 for d in depths) >= 50  # ties running several columns deep
        assert depths.count(inf) >= 20  # full ties

    def test_big_integer_ratios(self):
        """Integer tableaus whose ratios all agree in float and differ only
        past 2^53: entry ``a_i * base_k + delta`` over a pivot entry
        ``a_i`` near 2^64.  The brute-force ``Fraction`` key is the oracle;
        quotients ``int / int`` read the rows as tied, so taking the lowest
        index on such ties picks another row on most of these tableaus."""
        import numpy as np

        from hddiamond.simplex import _leaving_row

        rng = np.random.default_rng(11)
        misread = 0
        for trial in range(200):
            m, ncols = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            col = int(rng.integers(ncols))
            a = [(1 << 64) + int(rng.integers(1000)) for _ in range(m)]
            for i in rng.choice(m, int(rng.integers(m)), replace=False):
                a[i] = int(rng.choice([-1, 0]))  # not eligible
            base = [int(v) for v in rng.integers(1, 4, ncols + 1)]
            t = np.array([[a[i] * base[k] + int(rng.integers(-2, 3)) for k in range(ncols + 1)]
                          for i in range(m)], dtype=object)
            t[:, col] = a
            t[:, -1] = np.abs(t[:, -1])
            eligible = [i for i in range(m) if a[i] > 0]
            key = lambda i: (F(t[i, -1], a[i]), *(F(t[i, k], a[i]) for k in range(ncols)))
            want = min(eligible, key=key)
            assert _leaving_row(t, col, True) == want, trial
            floats = lambda i: (t[i, -1] / a[i], *(t[i, k] / a[i] for k in range(ncols)))
            misread += min(eligible, key=floats) != want
        assert misread >= 50


class TestFractionFree:
    """The exact solve runs on integers over one denominator, the system
    scaled to ``(C c, L A, L b)`` (C and L the lcms of the cost and of the
    row denominators), and reads every choice off that tableau as it stands:
    it takes the very pivots of ``oracles.fraction_simplex_pivots`` on the
    ``Fraction`` tableau of the scaled system, cold and warm-started.  The
    random LPs mix denominators from row to row and column to column, and
    their small entries make ties between rows and columns, so a wrong
    Bareiss division or a wrong lexicographic leaving row shows."""

    def test_same_pivots_as_fraction_tableau(self, monkeypatch):
        import random

        from oracles import fraction_simplex_pivots

        taken, negative = [], [0]
        pivot = simplex._pivot

        def recording_pivot(t, obj, basis, row, col):
            taken.append((row, col))
            negative[0] += t[row, col] < 0
            return pivot(t, obj, basis, row, col)

        monkeypatch.setattr(simplex, "_pivot", recording_pivot)
        rng = random.Random(1)
        warm = 0
        for _ in range(300):
            nv, m = rng.randint(1, 5), rng.randint(2, 6)
            c = [F(-rng.randint(0, 2), rng.choice([1, 2, 3])) for _ in range(nv)]
            a = [[F(rng.randint(0, 3), rng.choice([1, 2, 3, 5])) for _ in range(nv)] for _ in range(m)]
            b = [F(rng.randint(0, 3), rng.choice([1, 2, 3])) for _ in range(m)]
            # Optimal bases of the LP without its last one or two rows, their
            # slacks added (the rows may cut the old optimum off), and
            # without its last column (which starts nonbasic).
            starts = [None]
            for drop in (1, 2)[: m - 1]:
                small = solve_lp(c, a[:-drop], b[:-drop], exact=True)
                if small.ok:
                    starts.append([*small.basis, *range(nv + m - drop, nv + m)])
            if nv > 1:
                narrow = solve_lp(c[:-1], [r[:-1] for r in a], b, exact=True)
                if narrow.ok:
                    starts.append([j if j < nv - 1 else j + 1 for j in narrow.basis])
            big_c = math.lcm(*(v.denominator for v in c))
            big_l = math.lcm(*(v.denominator for row in a for v in row), *(v.denominator for v in b))
            scaled = ([big_c * v for v in c], [[big_l * v for v in row] for row in a],
                      [big_l * v for v in b])
            for start in starts:
                del taken[:]
                res = solve_lp(c, a, b, exact=True, basis=start)
                assert (res.status, taken) == fraction_simplex_pivots(*scaled, start), (c, a, b, start)
                warm += start is not None
        assert warm >= 650 and negative[0] >= 200  # dual repairs pivot on a < 0
