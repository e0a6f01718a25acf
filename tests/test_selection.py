"""Relay-subset selection strategies and their proven fraction floors."""

import math
import random
from dataclasses import fields
from fractions import Fraction as F
from itertools import combinations

import pytest

from hddiamond import capacity, selection
from hddiamond import (
    STRATEGIES,
    UNBOUNDED,
    BoundViolation,
    DiamondNetwork,
    GuardExceeded,
    Schedule,
    drop_worst,
    gen_half_tight,
    gen_random,
    gen_two_phase_schedule,
    gen_worst_case,
    guarantee_bound,
    hd_capacity,
    select_drop_one_schedule_reuse,
    select_k,
    select_k_exhaustive,
    select_k_iterative,
    worst_relay_index,
)
from hddiamond._tolerance import AGREE, SETTLED
from hddiamond.network import mask_from_relays
from oracles import cold_exhaustive, round_by_round_kept


def count_solves(monkeypatch) -> list[int]:
    """Record the relay count of every solve selection makes: the full
    solve (``_hd_capacity``) and the subnetwork solves (``hd_capacity``)."""
    calls = []
    for name in ("hd_capacity", "_hd_capacity"):
        real = getattr(selection, name)

        def counting(net, *args, real=real, **kwargs):
            calls.append(net.n)
            return real(net, *args, **kwargs)

        monkeypatch.setattr(selection, name, counting)
    return calls


class TestGuaranteeBound:
    def test_table(self):
        assert guarantee_bound("worst-drop", 5, 4) == F(1, 2)
        assert guarantee_bound("worst-drop", 5, 3) == F(1, 4)
        assert guarantee_bound("worst-drop", 10, 1) == F(1, 512)
        assert guarantee_bound("schedule-reuse", 5, 4) == F(4, 5)
        assert guarantee_bound("iterative", 8, 3) == F(3, 8)
        assert guarantee_bound("exhaustive", 10, 1) == F(1, 4)
        assert guarantee_bound("exhaustive", 10, 7) == F(7, 10)
        assert guarantee_bound("exhaustive", 10, 3) == F(1, 2)
        for strategy in STRATEGIES:
            if strategy != "schedule-reuse":
                assert guarantee_bound(strategy, 6, 6) == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            guarantee_bound("nope", 3, 1)
        with pytest.raises(ValueError):
            guarantee_bound("iterative", 3, 0)
        with pytest.raises(ValueError):
            guarantee_bound("schedule-reuse", 5, 3)
        with pytest.raises(ValueError):
            guarantee_bound("schedule-reuse", 5, 5)  # it always drops one relay


class TestWorstRelayIndex:
    def test_picks_smallest_single_capacity(self):
        net = DiamondNetwork((1, 3, 2), (1, 3, 2))
        assert worst_relay_index(net) == 1

    def test_ties_break_low(self):
        net = DiamondNetwork((2, 1), (1, 2))  # both singles are 2/3
        assert worst_relay_index(net) == 1
        assert worst_relay_index(DiamondNetwork((1, 1), (1, 1))) == 1


class TestDropWorst:
    def test_half_tight_default_keeps_the_pair(self):
        net = gen_half_tight(4)
        rep = drop_worst(net, 3, arithmetic="rational")
        assert rep.strategy == "worst-drop"
        assert rep.value_kind == "capacity"
        assert rep.k == 3 and len(rep.selected) == 3
        assert 4 in rep.selected  # the mirrored relay survives a tie-break drop
        assert rep.value == 1 and rep.full_value == 1
        assert rep.fraction == 1
        assert rep.bound == F(1, 2)
        assert rep.notes == ()

    def test_forced_removal_voids_bound(self):
        net = gen_half_tight(4)
        rep = drop_worst(net, 3, force_remove=[4], arithmetic="rational")
        assert rep.selected == (1, 2, 3)
        assert rep.fraction == F(1, 2)
        assert rep.bound is None
        assert rep.notes and "forced" in rep.notes[0]

    def test_forced_removal_validation(self):
        net = gen_random(4, seed=0)
        with pytest.raises(ValueError):
            drop_worst(net, 3, force_remove=[9])
        with pytest.raises(ValueError):
            drop_worst(net, 3, force_remove=[1, 1])
        with pytest.raises(ValueError):
            drop_worst(net, 3, force_remove=[1, 2])  # two removals, one slot

    def test_floor_holds_on_random_nets(self):
        for seed in range(20):
            net = gen_random(seed % 4 + 2, seed=seed + 50)
            for k in range(1, net.n + 1):
                rep = drop_worst(net, k)
                assert float(rep.fraction) >= float(rep.bound) - 1e-9

    def test_matches_round_by_round_drops(self):
        # Ties, zero and unbounded links, and forced removals in any order.
        rng = random.Random(7)
        links = (0, 1, 2, F(1, 2), 3, UNBOUNDED)
        for _ in range(60):
            n = rng.randint(2, 6)
            net = DiamondNetwork(
                tuple(rng.choice(links) for _ in range(n)),
                tuple(rng.choice(links) for _ in range(n)),
            )
            for k in range(1, n + 1):
                forced = rng.sample(range(1, n + 1), rng.randint(0, n - k))
                rep = drop_worst(net, k, force_remove=forced, arithmetic="rational")
                assert rep.selected == round_by_round_kept(net, k, forced), (net, k, forced)

    def test_k_bounds(self):
        net = gen_random(3, seed=1)
        with pytest.raises(ValueError):
            drop_worst(net, 0)
        with pytest.raises(ValueError):
            drop_worst(net, 4)


class TestScheduleReuse:
    def test_worst_case_family_exact(self):
        # The derived two-phase schedule attains the capacity 1 on even
        # sizes; on odd sizes its rate is (n-1)/n because the appended
        # relay never gets a listening phase.  Either way the reuse
        # fraction honors the (n-1)/n floor relative to that rate.
        for n in (2, 3, 4, 5):
            rep = select_drop_one_schedule_reuse(gen_worst_case(n), arithmetic="rational")
            assert rep.value_kind == "rate"
            expected_full = 1 if n % 2 == 0 else F(n - 1, n)
            assert rep.full_value == expected_full
            assert rep.fraction >= F(n - 1, n)
            assert rep.bound == F(n - 1, n)

    def test_floor_on_random_nets(self):
        for seed in range(25):
            net = gen_random(seed % 4 + 2, seed=seed + 200)
            rep = select_drop_one_schedule_reuse(net)
            assert float(rep.fraction) >= float(rep.bound) - 1e-8

    def test_caller_supplied_schedule_is_the_yardstick(self):
        net = gen_worst_case(2)
        sched = Schedule(2, {0b01: F(1, 2), 0b10: F(1, 2)})
        rep = select_drop_one_schedule_reuse(net, sched, arithmetic="rational")
        assert rep.full_value == 1  # this schedule attains the capacity
        assert rep.value >= F(1, 2) * rep.full_value

    def test_needs_two_relays(self):
        net = DiamondNetwork((1,), (1,))
        with pytest.raises(ValueError):
            select_drop_one_schedule_reuse(net)
        with pytest.raises(ValueError):
            select_k(net, 0, "schedule-reuse")

    def test_select_k_refuses_every_k_but_n_minus_one(self):
        # guarantee_bound refuses every k but n - 1 for schedule-reuse.
        net = gen_worst_case(3)
        assert select_k(net, 2, "schedule-reuse").k == 2
        for k in (0, 1, 3, 4):
            with pytest.raises(ValueError):
                select_k(net, k, "schedule-reuse")
        with pytest.raises(ValueError):
            select_k(net, 2, "nope")


class TestScheduleReuseIsOneIterativeRound:
    """Schedule-reuse reports what iterative reports at k = n-1, down to the
    value types; only the strategy name differs."""

    @staticmethod
    def assert_same_but_strategy(reuse, it):
        assert (reuse.strategy, it.strategy) == ("schedule-reuse", "iterative")
        for f in fields(reuse):
            if f.name != "strategy":
                a, b = getattr(reuse, f.name), getattr(it, f.name)
                assert (a, type(a)) == (b, type(b)), f.name

    def test_float_random_nets(self):
        for n in range(2, 9):
            for seed in range(3):
                net = gen_random(n, seed)
                self.assert_same_but_strategy(
                    select_drop_one_schedule_reuse(net), select_k_iterative(net, n - 1)
                )

    def test_rational_families(self):
        for n in range(2, 6):
            net = gen_worst_case(n)
            self.assert_same_but_strategy(
                select_drop_one_schedule_reuse(net, arithmetic="rational"),
                select_k_iterative(net, n - 1, arithmetic="rational"),
            )
            net, sched = gen_half_tight(n), gen_two_phase_schedule(n)
            self.assert_same_but_strategy(
                select_drop_one_schedule_reuse(net, sched, arithmetic="rational"),
                select_k_iterative(net, n - 1, sched, arithmetic="rational"),
            )


class TestIterative:
    def test_floor_all_k(self):
        for seed in range(15):
            net = gen_random(seed % 3 + 3, seed=seed + 300)
            for k in range(1, net.n + 1):
                rep = select_k_iterative(net, k)
                assert rep.value_kind == "rate"
                assert rep.bound == F(k, net.n)
                assert float(rep.fraction) >= float(rep.bound) - 1e-8

    def test_k_equals_n_is_identity(self):
        net = gen_random(4, seed=9)
        rep = select_k_iterative(net, 4)
        assert rep.selected == (1, 2, 3, 4)
        assert rep.fraction == pytest.approx(1.0)

    def test_rational_refuses_float_schedule(self):
        # A float schedule cannot be rated exactly: its probabilities need
        # not sum to exactly 1.  Both iterative strategies refuse it.
        net = gen_worst_case(4)
        sched = hd_capacity(net).optimal_schedule
        assert not sched.is_exact
        with pytest.raises(ValueError, match="exact schedule"):
            select_k_iterative(net, 3, sched, arithmetic="rational")
        with pytest.raises(ValueError, match="exact schedule"):
            select_drop_one_schedule_reuse(net, sched, arithmetic="rational")
        # The same schedule is rated in float, and an exact one exactly.
        assert type(select_k_iterative(net, 3, sched).value) is float
        exact = hd_capacity(net, "rational").optimal_schedule
        assert select_k_iterative(net, 3, exact, arithmetic="rational").value == F(3, 4)

    @staticmethod
    def fall_short(monkeypatch, shortfall):
        """Make each round's rate ``shortfall`` below its (m-1)/m floor."""
        real = selection._reuse_round

        def short(net, sched):
            pos, sub, sub_sched, _ = real(net, sched)
            rate = selection.fixed_schedule_rate(net, sched).value
            return pos, sub, sub_sched, F(net.n - 1, net.n) * rate - shortfall

        monkeypatch.setattr(selection, "_reuse_round", short)

    def test_exact_round_floor_is_exact(self, monkeypatch):
        self.fall_short(monkeypatch, F(1, 10**12))
        with pytest.raises(BoundViolation):
            select_k_iterative(gen_worst_case(4), 3, arithmetic="rational")

    def test_rational_rates_float_links_exactly(self):
        # Rational mode rates the exact values of float links: Fraction
        # values, the float ones within roundoff, the same relays.
        nets = [gen_random(4, 0), gen_random(5, 3)]
        nets.append(DiamondNetwork((0.3, 1.7, 2.2), (1.1, 0.4, 2.9)))
        for net in nets:
            for k in range(1, net.n):
                exact = select_k_iterative(net, k, arithmetic="rational")
                approx = select_k_iterative(net, k)
                assert exact.selected == approx.selected
                for name in ("value", "full_value", "fraction"):
                    a, b = getattr(exact, name), getattr(approx, name)
                    assert isinstance(a, F), name
                    assert float(a) == pytest.approx(b, rel=1e-9), name
            reuse = select_drop_one_schedule_reuse(net, arithmetic="rational")
            assert isinstance(reuse.value, F)

    def test_float_round_floor_allows_the_settled_slack(self, monkeypatch):
        net = gen_random(4, seed=0)
        self.fall_short(monkeypatch, SETTLED / 2)
        rep = select_k_iterative(net, 3)
        assert rep.value == 0.75 * rep.full_value - SETTLED / 2
        self.fall_short(monkeypatch, 2 * SETTLED)
        with pytest.raises(BoundViolation):
            select_k_iterative(net, 3)


class TestExhaustive:
    def test_dominates_other_strategies(self):
        for seed in range(12):
            net = gen_random(seed % 3 + 3, seed=seed + 700)
            for k in range(1, net.n):
                ex = select_k_exhaustive(net, k)
                it = select_k_iterative(net, k)
                dw = drop_worst(net, k)
                assert float(ex.value) >= float(it.value) - 1e-8
                assert float(ex.value) >= float(dw.value) - 1e-8

    def test_worst_case_family_keeps_fraction(self):
        net = gen_worst_case(4)
        rep = select_k_exhaustive(net, 3, arithmetic="rational")
        assert rep.full_value == 1
        assert rep.fraction == F(3, 4)

    def test_guard_allows_small_k(self):
        # C(12, 7) * 2^7 = 101376 subnetwork cells, past one 2^16 scan.
        with pytest.raises(GuardExceeded):
            select_k_exhaustive(gen_random(12, seed=2), 7)
        # C(11, 2) * 2^2 = 220 cells, far below it.
        rep = select_k_exhaustive(gen_random(11, seed=2), 2)
        assert rep.k == 2

    def test_guard_boundary_under_a_lowered_guard(self, monkeypatch):
        # A guard of 6 allows 2^6 = 64 subnetwork cells: k=2 of 6 relays
        # scans C(6, 2) * 2^2 = 60 of them and runs; k=3 scans 160 and is
        # refused before anything is solved.
        monkeypatch.setenv("HDDIAMOND_LP_GUARD", "6")
        net = gen_random(6, seed=0)
        assert select_k_exhaustive(net, 2).k == 2

        def refuse(*args, **kwargs):
            raise AssertionError("hd_capacity ran before the size guard")

        with monkeypatch.context() as m:
            m.setattr(selection, "hd_capacity", refuse)
            m.setattr(selection, "_hd_capacity", refuse)
            with pytest.raises(
                GuardExceeded, match=r"^select_k_exhaustive on 6 relays with k=3 "
            ):
                select_k_exhaustive(net, 3)
        # Raising the guard raises exhaustive's limit with it: 160 <= 2^8.
        monkeypatch.setenv("HDDIAMOND_LP_GUARD", "8")
        assert select_k_exhaustive(net, 3).k == 3

    def test_guard_allows_everything_the_relay_count_rule_did(self, monkeypatch):
        # The earlier rule refused n > 10 with k > 2.  The work rule allows
        # every such pair with n <= 16, and 30 more.  Only the guard runs
        # here: the first solve after it is replaced by a marker.
        class Passed(Exception):
            pass

        def passed(*args):
            raise Passed

        monkeypatch.setattr(selection, "_hd_capacity", passed)

        def allowed(n, k):
            try:
                select_k_exhaustive(DiamondNetwork((1,) * n, (1,) * n), k)
            except Passed:
                return True
            except GuardExceeded:
                return False

        pairs = [(n, k) for n in range(1, 17) for k in range(1, n + 1)]
        assert all(allowed(n, k) for n, k in pairs if n <= 10 or k <= 2)
        newly = [(n, k) for n, k in pairs if n > 10 and k > 2 and allowed(n, k)]
        assert len(newly) == 30
        assert {(11, k) for k in range(3, 12)} <= set(newly)
        assert {(12, 11), (13, 12), (16, 16)} <= set(newly)
        assert (14, 13) not in newly  # 14 * 2^13 = 114688 cells
        # Past the LP guard the pin answers k <= 2, up to the work rule.
        assert allowed(181, 2) and not allowed(182, 2)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_pin_past_the_lp_guard(self, monkeypatch, strategy):
        # Past the hd_capacity guard the full value comes from the pin when
        # the two-phase rate meets the FD value, in either arithmetic and on
        # float links too.  Every strategy gets its full solve there.
        monkeypatch.setenv("HDDIAMOND_LP_GUARD", "4")
        value = {"worst-drop": F(3, 10), "schedule-reuse": F(7, 8), "iterative": F(1, 4),
                 "exhaustive": F(3, 10)}[strategy]
        select = lambda net, arithmetic: select_k(
            net, net.n - 1 if strategy == "schedule-reuse" else 1, strategy,
            arithmetic=arithmetic,
        )
        net = gen_worst_case(8)
        rep = select(net, "rational")
        assert (rep.full_value, rep.value, rep.fraction) == (1, value, value)
        assert isinstance(rep.full_value, F)
        # The family's links are dyadic, so float links hold the same exact
        # values and rational mode gives the same report.  Float mode gives
        # the rational values rounded.  Only values are compared there: a
        # float near-tie can keep another relay of equal exact capacity.
        floats = DiamondNetwork(
            tuple(map(float, net.uplinks)), tuple(map(float, net.downlinks))
        )
        assert select(floats, "rational") == rep
        for links in (net, floats):
            got = select(links, "float")
            assert (got.full_value, got.value, got.fraction) == (1.0, float(value), float(value))
            assert isinstance(got.full_value, float)
        # The pin stays open on odd sizes in both arithmetics.
        for arithmetic in ("rational", "float"):
            with pytest.raises(GuardExceeded):
                select(gen_worst_case(7), arithmetic)

    def test_pin_at_thirty_relays(self):
        # The pin's two-phase rate is one s-t min cut, not a scan over 2^30
        # cuts, so the full value is certified far past the LP guard.
        rep = select_k_exhaustive(gen_worst_case(30), 1, arithmetic="rational")
        assert rep.full_value == 1
        assert isinstance(rep.full_value, F)
        assert rep.fraction == F(4, 15)

    def test_ties_keep_smallest_set(self):
        net = DiamondNetwork((1, 1), (1, 1))
        rep = select_k_exhaustive(net, 1, arithmetic="rational")
        assert rep.selected == (1,)

    #: The pruned loop against the cold one: random nets and both families.
    COLD_NETS = (
        [gen_random(n, seed) for n in range(2, 10) for seed in range(3)]
        + [gen(n) for gen in (gen_worst_case, gen_half_tight) for n in range(2, 9)]
    )

    def test_rational_matches_cold_unpruned_loop(self):
        for net in self.COLD_NETS:
            for k in range(1, net.n + 1):
                rep = select_k_exhaustive(net, k, arithmetic="rational")
                assert rep == cold_exhaustive(net, k, "rational"), (net, k)

    def test_float_matches_cold_unpruned_loop(self, monkeypatch):
        # Seeded float solves may differ from cold ones in the last bits, so
        # two subnetworks of exactly equal capacity can swap places; the
        # seeded loop on FD ceilings alone must agree to the bit.
        real = selection._hd_capacity
        without_ceilings = lambda net, a, seeds: (real(net, a, seeds)[0], {})
        exact = lambda net, relays: hd_capacity(net.subnetwork(relays), "rational").value
        for net in self.COLD_NETS:
            n = net.n
            for k in range(1, n + 1):
                rep = select_k_exhaustive(net, k)
                with monkeypatch.context() as m:
                    m.setattr(selection, "_hd_capacity", without_ceilings)
                    assert rep == select_k_exhaustive(net, k), (net, k)
                cold = cold_exhaustive(net, k)
                if rep.selected != cold.selected:
                    assert exact(net, rep.selected) == exact(net, cold.selected), (net, k)
                assert rep.full_value == cold.full_value
                assert rep.value == pytest.approx(cold.value, rel=1e-12)
                assert rep.fraction == pytest.approx(cold.fraction, rel=1e-12)
                assert rep.bound == cold.bound

    def test_fd_bound_skips_solves(self, monkeypatch):
        calls = count_solves(monkeypatch)
        net = gen_random(8, 0)
        for k in range(1, 8):
            calls.clear()
            select_k_exhaustive(net, k)
            assert calls[0] == 8 and len(calls) < 1 + math.comb(8, k), k
        # Every single relay of the half-tight family has capacity and FD
        # value 1/2: a ceiling that ties the incumbent never stops the visit.
        calls.clear()
        select_k_exhaustive(gen_half_tight(4), 1, arithmetic="rational")
        assert len(calls) == 1 + 4

    def test_ceilings_halve_the_solves(self, monkeypatch):
        # Summed over every k, the mixture bound in the ceilings halves the
        # subnetwork solves that best-first pruning by FD ceilings alone
        # leaves, counting those after each visit's first, which no ceiling
        # can skip.
        calls = count_solves(monkeypatch)
        nets = [gen_random(9, seed) for seed in range(3)]

        def solves():
            calls.clear()
            for net in nets:
                for k in range(1, 9):
                    select_k_exhaustive(net, k)
            return len(calls) - 2 * 8 * len(nets)  # less the full and first solves

        pruned = solves()
        real = selection._hd_capacity
        monkeypatch.setattr(
            selection, "_hd_capacity", lambda net, a, seeds: (real(net, a, seeds)[0], {})
        )
        assert 0 < pruned <= solves() / 2

    def test_fd_ceilings_without_a_mixture_unbounded_full_value(self, monkeypatch):
        # Relay 1 makes every subset holding it unbounded, and no LP runs on
        # the full network.  The FD ceilings alone stop the visit after the
        # subsets holding relay 1: at k = 2, 3 of the 6.
        calls = count_solves(monkeypatch)
        net = DiamondNetwork((UNBOUNDED, 1, 2, F(1, 2)), (UNBOUNDED, 2, 1, 3))
        for arithmetic in ("float", "rational"):
            assert not capacity._hd_capacity(net, arithmetic, ((), ()))[1]
            for k in range(1, 5):
                calls.clear()
                rep = select_k_exhaustive(net, k, arithmetic=arithmetic)
                assert rep == cold_exhaustive(net, k, arithmetic), (arithmetic, k)
                assert rep.selected[0] == 1 and rep.value == UNBOUNDED
                assert len(calls) == 1 + (math.comb(3, k - 1) if k < 4 else 0)

    def test_unbounded_incumbent_against_a_ceiling_past_the_float_range(self):
        # Relay 1 is unbounded both ways.  Every subset without it has a
        # finite ceiling, 10**400 for relay 2, and loses to the unbounded
        # incumbent with no float slack: a slack scaled by a ceiling past
        # the float range would overflow.
        big = 10**400
        for links in (((UNBOUNDED, big), (UNBOUNDED, big)),
                      ((UNBOUNDED, big, 3), (UNBOUNDED, big, 2))):
            net = DiamondNetwork(*links)
            for arithmetic in ("float", "rational"):
                for k in range(1, net.n):
                    rep = select_k_exhaustive(net, k, arithmetic=arithmetic)
                    assert rep.selected == tuple(range(1, k + 1)), (net, arithmetic, k)
                    assert rep.value == rep.full_value == UNBOUNDED

    def test_fd_ceilings_without_a_mixture_on_the_pin(self, monkeypatch):
        # Past a guard of 7 the full value of gen_worst_case(8) comes from the
        # pin, with no mixture; k <= 2 keeps within the C(n, k) * 2^k rule.
        monkeypatch.setenv("HDDIAMOND_LP_GUARD", "7")
        net = gen_worst_case(8)
        calls = count_solves(monkeypatch)
        for k, selected, value in ((1, (2,), F(3, 10)), (2, (2, 3), F(3, 5))):
            calls.clear()
            rep = select_k_exhaustive(net, k, arithmetic="rational")
            assert (rep.selected, rep.value, rep.full_value) == (selected, value, 1)
            assert 1 < len(calls) < 1 + math.comb(8, k)
            capacities = {
                relays: hd_capacity(net.subnetwork(relays), "rational").value
                for relays in combinations(range(1, 9), k)
            }
            best = max(capacities.values())
            assert value == best and selected == min(c for c in capacities if capacities[c] == best)

    def test_fd_ceilings_without_a_mixture_past_the_float_tables(self, monkeypatch):
        # 10**400 does not fit the float tables, so float selection prunes
        # by the FD ceilings alone.
        net = DiamondNetwork((10**400, 0.5, 1), (1, 10**400, 0.5))
        calls = count_solves(monkeypatch)
        for k in range(1, 4):
            calls.clear()
            rep = select_k_exhaustive(net, k)
            assert rep == cold_exhaustive(net, k), k
            assert len(calls) < 1 + math.comb(3, k) or k == 3
        with pytest.raises(OverflowError):
            capacity._tables(net, False)

    def test_fd_skip_on_links_past_the_float_range(self):
        # Both sides of the FD skip are exact, so it reads no float slack,
        # which would overflow at 10**400.
        net = DiamondNetwork((UNBOUNDED, 10**400, 1), (1, 10**400, 2))
        rep = select_k(net, 2, "exhaustive", arithmetic="rational")
        assert rep.selected == (1, 2)
        assert rep.below_bound is False
        assert rep.value == hd_capacity(net.subnetwork((1, 2)), "rational").value

    def test_k_equals_n_reuses_the_full_solve(self, monkeypatch):
        calls = count_solves(monkeypatch)
        for arithmetic, one in (("float", 1.0), ("rational", 1)):
            for strategy in (select_k_exhaustive, drop_worst):
                calls.clear()
                rep = strategy(gen_random(5, 1), 5, arithmetic=arithmetic)
                assert calls == [5]
                assert rep.fraction == one and rep.selected == (1, 2, 3, 4, 5)


class TestCeilings:
    """The full solve's cut mixture caps every subnetwork's capacity."""

    LINKS = (0, 1, 2, F(1, 2), 3, UNBOUNDED)

    def test_property_ceilings_cap_every_subnetwork(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        links = st.sampled_from(self.LINKS)

        @hyp.settings(max_examples=25, deadline=None)
        @hyp.given(data=st.data(), n=st.integers(1, 7))
        def check(data, n):
            net = DiamondNetwork(
                tuple(data.draw(st.lists(links, min_size=n, max_size=n))),
                tuple(data.draw(st.lists(links, min_size=n, max_size=n))),
            )
            full, mixture = capacity._hd_capacity(net, "rational", ((), ()))
            float_mixture = capacity._hd_capacity(net, "float", ((), ()))[1]
            # No LP runs exactly when the value is unbounded.
            assert (not mixture) == (not float_mixture) == (full.value == UNBOUNDED)
            hyp.assume(mixture)
            for k in range(1, n + 1):
                masks = [mask_from_relays(c, n) for c in combinations(range(1, n + 1), k)]
                exact = capacity._subnetwork_ceilings(net, masks, mixture, True)
                approx = capacity._subnetwork_ceilings(net, masks, float_mixture, False)
                for keep, ceiling, float_ceiling in zip(masks, exact, approx):
                    value = hd_capacity(net.subnetwork(keep), "rational").value
                    assert type(ceiling) is F and ceiling >= value, (net, keep)
                    assert type(float_ceiling) is float
                    assert float_ceiling >= value - AGREE * max(1, value), (net, keep)

        check()

    def test_whole_network_ceiling_is_the_value(self):
        # The mixture is the adversary's optimal one, so the full network's
        # own ceiling is its value.
        for net in (gen_random(6, 0), gen_worst_case(5), gen_half_tight(4)):
            full, mixture = capacity._hd_capacity(net, "rational", ((), ()))
            whole = (1 << net.n) - 1
            assert capacity._subnetwork_ceilings(net, [whole], mixture, True) == [full.value]


class TestBelowBound:
    def report(self, fraction, bound=F(1, 2)):
        return selection.SelectionReport(
            "exhaustive", (1,), 1, "capacity", fraction, 1, fraction, bound
        )

    def test_exact_compares_exactly(self):
        assert self.report(F(1, 2) - F(1, 10**15)).below_bound
        assert not self.report(F(1, 2)).below_bound
        assert not self.report(F(1)).below_bound

    def test_float_allows_the_agree_slack(self):
        assert not self.report(0.5 - 1e-10).below_bound
        assert self.report(0.5 - 1e-8).below_bound
        assert not self.report(0.5).below_bound

    def test_no_bound_is_never_below(self):
        assert not self.report(0.0, bound=None).below_bound

    def test_strategies_meet_their_bounds(self):
        net = gen_random(5, seed=2)
        for strategy in STRATEGIES:
            for k in ([4] if strategy == "schedule-reuse" else range(1, 6)):
                for arithmetic in ("float", "rational"):
                    rep = select_k(net, k, strategy, arithmetic=arithmetic)
                    assert not rep.below_bound, rep


class TestSelectKDispatch:
    def test_routes_by_name(self):
        net = gen_random(3, seed=4)
        for strategy in STRATEGIES:
            k = 2 if strategy == "schedule-reuse" else 1
            rep = select_k(net, k, strategy)
            assert rep.strategy == strategy

    def test_force_remove_only_for_worst_drop(self):
        net = gen_random(3, seed=4)
        with pytest.raises(ValueError):
            select_k(net, 2, "iterative", force_remove=[1])
        rep = select_k(net, 2, "worst-drop", force_remove=[1])
        assert rep.bound is None

    def test_schedule_only_for_schedule_strategies(self):
        net = gen_random(3, seed=4)
        sched = hd_capacity(net).optimal_schedule
        for strategy in ("worst-drop", "exhaustive"):
            with pytest.raises(ValueError):
                select_k(net, 2, strategy, schedule=sched)
        assert select_k(net, 2, "iterative", schedule=sched).strategy == "iterative"
        assert select_k(net, 2, "schedule-reuse", schedule=sched).strategy == "schedule-reuse"

    def test_schedule_reuse_needs_k_n_minus_1(self):
        net = gen_random(3, seed=4)
        with pytest.raises(ValueError):
            select_k(net, 1, "schedule-reuse")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            select_k(gen_random(2, seed=0), 1, "magic")


class TestLabels:
    def test_original_labels_survive_nesting(self):
        net = gen_random(6, seed=11)
        sub = net.subnetwork((2, 4, 6))
        rep = drop_worst(sub, 2)
        assert set(rep.selected) <= {2, 4, 6}
        rep2 = select_k_exhaustive(sub, 1)
        assert set(rep2.selected) <= {2, 4, 6}

    def test_exact_fraction_types(self):
        rep = drop_worst(gen_worst_case(4), 2, arithmetic="rational")
        assert isinstance(rep.fraction, F)
        assert isinstance(rep.bound, F)
