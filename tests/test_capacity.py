"""Capacity oracles: closed forms, game LP, duality, unbounded links."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from hddiamond import capacity
from hddiamond import (
    UNBOUNDED,
    DiamondNetwork,
    GuardExceeded,
    RateValue,
    Schedule,
    SolverFailure,
    cut_state_value,
    fd_capacity,
    fd_capacity_fast,
    fixed_schedule_rate,
    gen_half_tight,
    gen_random,
    gen_two_phase_schedule,
    gen_worst_case,
    hd_capacity,
    restrict_mask,
    single_relay_capacity,
    sparsify_schedule,
    subnetwork_seeds,
)
from hddiamond.flow import FlowGraph, max_flow
from oracles import (
    chain_min_cut,
    dense_fd_capacity,
    dual_capacity,
    fd_mismatch,
    reference_scan,
    reference_tables,
)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

class TestSingleRelay:
    def test_harmonic_form(self):
        assert single_relay_capacity(F(1), F(1, 2)) == F(1, 3)
        assert single_relay_capacity(F(2, 5), F(14, 5)) == F(7, 20)
        assert single_relay_capacity(1.0, 1.0) == pytest.approx(0.5)

    def test_edge_cases(self):
        assert single_relay_capacity(0, 5) == 0
        assert single_relay_capacity(0, 0) == 0
        assert single_relay_capacity(UNBOUNDED, F(1, 2)) == F(1, 2)
        assert single_relay_capacity(3, UNBOUNDED) == 3
        assert single_relay_capacity(UNBOUNDED, UNBOUNDED) == UNBOUNDED

    def test_matches_game_solution(self):
        for l, r in [(F(1), F(1, 2)), (F(2, 5), F(14, 5)), (F(3), F(3))]:
            net = DiamondNetwork((l,), (r,))
            res = hd_capacity(net, "rational")
            assert res.value == single_relay_capacity(l, r)

    def test_property_float_is_the_exact_value_rounded_once(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        floats = st.floats(0, 1e300, allow_nan=False, allow_infinity=False)
        links = st.one_of(floats, st.integers(0, 10**6), st.just(10**400))

        @hyp.settings(max_examples=200, deadline=None, derandomize=True)
        @hyp.given(x=floats, y=links, swap=st.booleans())
        @hyp.example(x=0.5, y=10**400, swap=False)
        @hyp.example(x=0.5, y=10**400, swap=True)
        def check(x, y, swap):
            l, r = (y, x) if swap else (x, y)
            got = single_relay_capacity(l, r)
            exact = F(l) * F(r) / (F(l) + F(r)) if l or r else F(0)
            assert got == float(exact)
            assert type(got) is float or got == 0

        check()
        assert single_relay_capacity(0.5, 10**400) == 0.5
        assert single_relay_capacity(10**400, 1) == F(10**400, 10**400 + 1)


class TestCutStateValue:
    def test_components(self):
        net = DiamondNetwork((1, 2), (4, 8))
        # cut {1,2}, all listening: best uplink among {1,2}
        assert cut_state_value(net, "11", "00") == 2
        # empty cut, all transmitting: best downlink among {1,2}
        assert cut_state_value(net, "00", "11") == 8
        # cut {1}: relay 1 listens (uplink 1), relay 2 transmits (downlink 8)
        assert cut_state_value(net, "10", "01") == 9
        # mismatched roles contribute nothing
        assert cut_state_value(net, "10", "10") == 0

    def test_unbounded_participation(self):
        net = DiamondNetwork((UNBOUNDED, 1), (1, 1))
        assert cut_state_value(net, "10", "00") == UNBOUNDED
        # relay 1 transmits outside the cut: only its finite downlink counts
        assert cut_state_value(net, "00", "10") == 1

    def test_unbounded_beside_a_link_past_the_float_range(self):
        # inf + 10**400 would convert the int to a float and overflow.
        net = DiamondNetwork((UNBOUNDED, 1), (1, 10**400))
        assert cut_state_value(net, 0b01, 0b10) == UNBOUNDED
        assert cut_state_value(net, 0b00, 0b10) == 10**400


# ---------------------------------------------------------------------------
# Scheduled rates
# ---------------------------------------------------------------------------

class TestFixedScheduleRate:
    def test_one_relay_split(self):
        net = DiamondNetwork((F(1),), (F(1, 2),))
        rv = fixed_schedule_rate(net, Schedule(1, {0: F(1, 3), 1: F(2, 3)}))
        assert rv.value == F(1, 3)
        rv_bad = fixed_schedule_rate(net, Schedule(1, {0: F(1, 2), 1: F(1, 2)}))
        assert rv_bad.value == F(1, 4)  # downlink starves: min(1/2*1, 1/2*1/2)

    def test_always_listen_carries_nothing(self):
        net = DiamondNetwork((F(1, 2),), (UNBOUNDED,))
        rv = fixed_schedule_rate(net, Schedule(1, {0: F(1)}))
        assert rv.value == 0  # nothing ever transmits toward the destination
        assert rv.min_cut == 0

    def test_two_phase_on_worst_case_even_is_full_rate(self):
        for n in (2, 4, 6, 8):
            net = gen_worst_case(n)
            rv = fixed_schedule_rate(net, gen_two_phase_schedule(n))
            assert rv.value == 1

    def test_two_phase_on_worst_case_odd_loses_one_nth(self):
        # The extra relay appended for odd sizes never gets a listening
        # phase of its own, so two alternating phases leave exactly the
        # capacity share of one relay on the table.
        for n in (3, 5, 7):
            net = gen_worst_case(n)
            rv = fixed_schedule_rate(net, gen_two_phase_schedule(n))
            assert rv.value == F(n - 1, n)

    def test_mismatched_size_raises(self):
        with pytest.raises(ValueError):
            fixed_schedule_rate(DiamondNetwork((1,), (1,)), Schedule(2, {0: 1}))

    def test_float_path_matches_exact(self):
        net = DiamondNetwork((1.0, 2.0), (2.0, 1.0))
        sched = Schedule(2, {0b01: 0.5, 0b10: 0.5})
        exact = fixed_schedule_rate(
            DiamondNetwork((F(1), F(2)), (F(2), F(1))),
            Schedule(2, {0b01: F(1, 2), 0b10: F(1, 2)}),
        )
        approx = fixed_schedule_rate(net, sched)
        assert approx.value == pytest.approx(float(exact.value), abs=1e-12)
        assert approx.min_cut == exact.min_cut

    def test_link_past_the_float_range_rates_on_either_route(self):
        # At n = 3 the float scan is the cheaper route, at n = 14 the min
        # cut; the scan cannot build float tables for 10**400, so it gives
        # way to the min cut and both sizes rate alike.
        for n in (3, 14):
            assert capacity._scan_is_cheaper(n, 2) == (n == 3)
            net = DiamondNetwork((10**400,) + (0.5,) * (n - 1), (1,) + (0.5,) * (n - 1))
            rate = fixed_schedule_rate(net, Schedule(n, {0: 0.5, (1 << n) - 1: 0.5}))
            assert rate == RateValue(0.5, 0)
            assert type(rate.value) is float


class TestFlowRateMatchesScan:
    """Both routes of fixed_schedule_rate, the s-t min cut and the library's
    2^n cut scan, against the reference scan of the oracles, which shares no
    code with either.  The routes are called directly, so every size from 1
    to 12 relays runs through both, whichever one fixed_schedule_rate would
    pick."""

    EXACT_LINKS = (F(0), F(1, 2), F(1), F(1), F(3, 2), F(2), UNBOUNDED)
    FLOAT_LINKS = (0.0, 0.5, 1.0, 1.0, 2.5, math.pi, UNBOUNDED)
    WIDE_LINKS = (0.0,) + tuple(10.0**e for e in range(-7, 8)) + (UNBOUNDED,)

    @staticmethod
    def scan(net, sched):
        exact = capacity._net_is_exact(net) and sched.is_exact
        maxl, maxr = reference_tables(net, exact)
        vals = reference_scan(net.n, maxl, maxr, sched.items())
        cut = int(np.argmin(vals))
        return RateValue(vals[cut] if exact else float(vals[cut]), cut), vals

    @staticmethod
    def library_scan(net, sched):
        exact = capacity._net_is_exact(net) and sched.is_exact
        maxl, maxr, scale = capacity._tables(net, exact)
        vals, scale = capacity._cut_values(net.n, maxl, maxr, scale, sched.items())
        cut = int(np.argmin(vals))
        return RateValue(capacity._unscaled(vals[cut], scale, exact), cut)

    @staticmethod
    def flow(net, sched):
        exact = capacity._net_is_exact(net) and sched.is_exact
        return capacity._flow_rate(net, sched, exact)

    @staticmethod
    def draw(rng, n, links, exact, max_states=None):
        net = DiamondNetwork(
            tuple(rng.choice(links) for _ in range(n)),
            tuple(rng.choice(links) for _ in range(n)),
        )
        states = rng.sample(range(1 << n), rng.randint(1, max_states or min(1 << n, n + 1)))
        weights = [rng.randint(1, 4) for _ in states]
        if exact:
            probs = [F(w, sum(weights)) for w in weights]
        else:
            probs = [w / sum(weights) for w in weights]
        return net, Schedule(n, dict(zip(states, probs)))

    def assert_exact_match(self, net, sched):
        want, _ = self.scan(net, sched)
        for got in (self.flow(net, sched), self.library_scan(net, sched)):
            assert got == want
            assert type(got.value) is type(want.value)

    def assert_float_match(self, net, sched):
        want, _ = self.scan(net, sched)
        assert self.library_scan(net, sched) == want  # the same float operations
        got = self.flow(net, sched)
        assert type(got.value) is float
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=0)
        # The flow runs on the exact values of the float inputs: its cut is
        # their lowest minimizer, and its value that cut's exact rate
        # rounded once.
        exact_vals = reference_scan(net.n, *reference_tables(net, True), sched.items())
        assert got.min_cut == int(np.argmin(exact_vals))
        assert got.value == float(exact_vals[got.min_cut])

    def test_exact_random_links(self):
        rng = random.Random(5)
        for n in range(1, 13):
            for _ in range(8 if n <= 8 else 2):
                self.assert_exact_match(*self.draw(rng, n, self.EXACT_LINKS, True))

    def test_exact_hard_families(self):
        for n in range(2, 13):
            for net in (gen_worst_case(n), gen_half_tight(n)):
                self.assert_exact_match(net, gen_two_phase_schedule(n))

    def test_dense_schedules(self):
        # Up to 2^n states, and the uniform schedule over all of them: many
        # states share a threshold term, which the min cut sums into one node.
        rng = random.Random(12)
        alphabets = ((self.EXACT_LINKS, True, self.assert_exact_match),
                     (self.FLOAT_LINKS, False, self.assert_float_match),
                     (self.WIDE_LINKS, False, self.assert_float_match))
        for n in range(1, 8):
            for links, exact, assert_match in alphabets:
                for _ in range(3):
                    assert_match(*self.draw(rng, n, links, exact, max_states=1 << n))
                net, _ = self.draw(rng, n, links, exact)
                assert_match(net, Schedule.uniform(n))

    def test_property_matches_chain_graph(self):
        # The term graph against the chain graph of the oracles, the same
        # cut function on other nodes, on the scaled integer inputs and at
        # sizes the 2^n reference scan cannot reach.
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=200, deadline=None, derandomize=True)
        @hyp.given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 20),
                   alphabet=st.sampled_from((self.EXACT_LINKS, self.WIDE_LINKS)))
        def check(seed, n, alphabet):
            rng = random.Random(seed)
            links, _ = capacity._scaled_links([rng.choice(alphabet) for _ in range(2 * n)])
            states = rng.sample(range(1 << n), rng.randint(1, n + 1))
            items = [(s, rng.randint(1, 4)) for s in states]
            want = chain_min_cut(n, links[:n], links[n:], items)
            assert capacity._min_cut(n, links[:n], links[n:], items) == want

        check()

    def test_all_unbounded(self):
        for n in (1, 3, 6):
            links = (UNBOUNDED,) * n
            net = DiamondNetwork(links, links)
            for sched in (Schedule.uniform(n), Schedule(n, {0: 0.25, (1 << n) - 1: 0.75})):
                assert self.flow(net, sched) == RateValue(UNBOUNDED, 0)
                assert self.scan(net, sched)[0] == RateValue(UNBOUNDED, 0)
                assert self.library_scan(net, sched) == RateValue(UNBOUNDED, 0)

    def test_float_random_links(self):
        rng = random.Random(6)
        for n in range(1, 13):
            for links in (self.FLOAT_LINKS, self.WIDE_LINKS):
                for _ in range(6 if n <= 8 else 2):
                    self.assert_float_match(*self.draw(rng, n, links, False))

    def test_property_matches_scan(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hyp.settings(max_examples=200, deadline=None, derandomize=True)
        @hyp.given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
                   alphabet=st.sampled_from(("exact", "float", "wide")))
        def check(seed, n, alphabet):
            rng = random.Random(seed)
            if alphabet == "exact":
                self.assert_exact_match(*self.draw(rng, n, self.EXACT_LINKS, True))
            else:
                links = self.FLOAT_LINKS if alphabet == "float" else self.WIDE_LINKS
                self.assert_float_match(*self.draw(rng, n, links, False))

        check()

    def test_float_cut_is_the_lowest_exact_minimizer(self):
        # A benchmark rate item (gen_random(19, 0) under the float schedule
        # drawn with seed 38): cuts 256 and 33024 tie exactly.  A float flow
        # reported 33024; the flow on exact values reports the lower one.
        n = 19
        net = gen_random(n, 0)
        rng = np.random.default_rng(38)
        k = int(rng.integers(1, n + 2))
        states = rng.choice(1 << n, size=k, replace=False)
        probs = rng.dirichlet(np.ones(k))
        sched = Schedule(n, {int(s): float(p) for s, p in zip(states, probs)})
        exact_net = capacity._exact_links(net)
        value = lambda cut: sum(F(p) * cut_state_value(exact_net, cut, s) for s, p in sched.items())
        assert value(256) == value(33024)
        got = fixed_schedule_rate(net, sched)
        assert got == self.flow(net, sched)
        assert got == RateValue(float(value(256)), 256)

    def test_exact_rates_build_no_table(self, monkeypatch):
        # Exact rates always take the min cut, at every size and state count.
        def refuse(*args, **kwargs):
            raise AssertionError("a 2^n table was built")

        rng = random.Random(9)
        cases = []
        for n in range(1, 9):
            for k in range(1, n + 2):
                net, _ = self.draw(rng, n, self.EXACT_LINKS, True)
                weights = [rng.randint(1, 4) for _ in range(k)]
                states = rng.sample(range(1 << n), k)
                sched = Schedule(n, {s: F(w, sum(weights)) for s, w in zip(states, weights)})
                cases.append((net, sched, self.scan(net, sched)[0]))
        monkeypatch.setattr(capacity, "_tables", refuse)
        for net, sched, want in cases:
            got = fixed_schedule_rate(net, sched)
            assert got == want
            assert type(got.value) is type(want.value)

    def test_max_flow_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(8)
        for _ in range(40):
            nodes = rng.randint(2, 12)
            g, ref = FlowGraph(nodes), nx.DiGraph()
            ref.add_nodes_from(range(nodes))
            for _ in range(rng.randint(0, 40)):
                u, v = rng.sample(range(nodes), 2)
                c = F(rng.randint(0, 9), rng.randint(1, 3))
                g.add_edge(u, v, c)
                old = ref.get_edge_data(u, v, {"capacity": 0})["capacity"]
                ref.add_edge(u, v, capacity=old + c)
            value, sink_side = max_flow(g, 0, 1)
            want, (_, sink_ref) = nx.minimum_cut(ref, 0, 1)
            assert value == want
            # The minimal sink side lies inside every minimum cut's sink side,
            # and its own cut has the minimum capacity.
            sink = {v for v in range(nodes) if sink_side[v]}
            assert sink <= set(sink_ref)
            assert sum(c for u, v, c in ref.edges(data="capacity")
                       if u not in sink and v in sink) == want


class TestIntegerScale:
    """Exact scans run on Python ints scaled by the lcm of the links'
    denominators and of the weights' denominators: checked against the
    oracles' plain ``Fraction`` scan, on scales far past int64."""

    # Pairwise coprime denominators; the first two alone multiply past 2^64.
    PRIMES = (2**61 - 1, 2**31 - 1, 2**89 - 1, 1_000_003, 998_244_353, 7, 11)

    def test_property_matches_fraction_scan(self):
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        finite = st.builds(F, st.integers(1, 10**6), st.sampled_from(self.PRIMES))
        link = st.one_of(finite, st.just(F(0)), st.just(UNBOUNDED))
        weight = st.builds(F, st.integers(1, 50), st.sampled_from((1, 2, 3, 5, 2**31 - 1)))

        @hyp.settings(max_examples=150, deadline=None, derandomize=True)
        @hyp.given(data=st.data(), n=st.integers(1, 8))
        def check(data, n):
            up = data.draw(st.lists(link, min_size=n, max_size=n))
            down = data.draw(st.lists(link, min_size=n, max_size=n))
            up[0] = F(data.draw(st.integers(1, 10**6)), self.PRIMES[0])
            down[0] = F(data.draw(st.integers(1, 10**6)), self.PRIMES[1])
            net = DiamondNetwork(tuple(up), tuple(down))
            assert math.lcm(*(v.denominator for v in up + down if v != UNBOUNDED)) > 2**64

            masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                                       max_size=n + 1, unique=True))
            raw = data.draw(st.lists(weight, min_size=len(masks), max_size=len(masks)))
            items = [(m, w / sum(raw)) for m, w in zip(masks, raw)]
            assert sum(p for _, p in items) == 1

            maxl, maxr, scale = capacity._tables(net, True)
            refl, refr = reference_tables(net, True)
            # Cut values under a schedule, and state values under a cut
            # mixture (the same scan with the tables swapped).
            for tables, ref_tables, best in (((maxl, maxr), (refl, refr), np.argmin),
                                             ((maxr, maxl), (refr, refl), np.argmax)):
                vals, out_scale = capacity._cut_values(n, *tables, scale, items)
                want = reference_scan(n, *ref_tables, items)
                got = [capacity._unscaled(v, out_scale, True) for v in vals]
                assert got == want.tolist()
                assert best(vals) == best(want)

        check()

    def test_homogeneity_past_int64(self):
        # Dividing every link by P scales the capacity by 1/P, exactly.
        p = 2**89 - 1
        net = gen_worst_case(8)
        scaled = DiamondNetwork(
            tuple(F(v) / p for v in net.uplinks), tuple(F(v) / p for v in net.downlinks)
        )
        assert capacity._tables(scaled, True)[2] > 2**64
        res = hd_capacity(scaled, "rational")
        assert res.value == F(1, p)

    def test_scale_past_float_range_with_unbounded_link(self):
        # The scaled ints pass 1.8e308, where adding a plain float inf to
        # them overflows; the unbounded link must still read as unbounded.
        dens = (2**127 - 1, 2**521 - 1, 2**607 - 1)
        net = DiamondNetwork((F(1, dens[0]), F(1, dens[1]), UNBOUNDED), (F(1, dens[2]), F(1), F(2)))
        assert capacity._tables(net, True)[2] > 2**1100
        sched = Schedule(3, {0: F(1, 3), 5: F(1, 3), 7: F(1, 3)})
        want, vals = TestFlowRateMatchesScan.scan(net, sched)
        assert UNBOUNDED in vals.tolist()
        assert fixed_schedule_rate(net, sched) == capacity._flow_rate(net, sched, True) == want
        fd = fd_capacity(net)
        assert (fd.value, fd.tight_cuts) == (2, (0,))
        assert hd_capacity(net, "rational").value == dual_capacity(net, "rational").value == 2


# ---------------------------------------------------------------------------
# Full-duplex capacity
# ---------------------------------------------------------------------------

class TestFullDuplex:
    def test_symmetric_two_relay(self):
        net = DiamondNetwork((F(1), F(1)), (F(1), F(1)))
        res = fd_capacity(net)
        assert res.value == 1
        assert res.optimal_schedule is None
        assert res.tight_cuts == (0, 3)
        assert res.arithmetic == "rational"

    def test_fast_matches_dense_random(self):
        for seed in range(120):
            net = gen_random(seed % 11 + 1, seed=seed)
            assert fd_mismatch(net) is None
            assert fd_capacity_fast(net) == fd_capacity(net).value

    def test_fast_matches_dense_exact_and_unbounded(self):
        nets = [
            gen_worst_case(6),
            gen_half_tight(4),
            DiamondNetwork((UNBOUNDED, 1), (2, UNBOUNDED)),
            DiamondNetwork((UNBOUNDED,), (UNBOUNDED,)),
            DiamondNetwork((F(1, 3), F(1, 7)), (F(1, 7), F(1, 3))),
            # zero links
            DiamondNetwork((0, 0, 1), (0, 0, 0)),
            DiamondNetwork((0.0, 2.0, 0.0), (1.5, 0.0, 0.0)),
            DiamondNetwork((0,), (0,)),
            # tied links, on both sides and across them
            DiamondNetwork((1, 1, 1), (1, 1, 1)),
            DiamondNetwork((F(1, 2), 2, F(1, 2)), (2, F(1, 2), 2)),
            DiamondNetwork((0.25, 0.5, 0.25, 0.5), (0.5, 0.5, 0.25, 0.25)),
            # unbounded links beside finite ones, on either side
            DiamondNetwork((UNBOUNDED, UNBOUNDED, 3), (1, 2, UNBOUNDED)),
            DiamondNetwork((1.0, UNBOUNDED), (UNBOUNDED, 0.5)),
            DiamondNetwork((UNBOUNDED, 0, 1), (0, UNBOUNDED, 1)),
        ]
        for net in nets:
            assert fd_mismatch(net) is None, net
            assert fd_capacity_fast(net) == fd_capacity(net).value

    def test_threshold_cuts_are_a_subset_of_the_tight_cuts(self):
        # Relay 2 can sit on either side of a minimum cut: {2} ties the
        # empty cut but is no threshold cut, so only the empty one is listed.
        net = DiamondNetwork((F(1), F(0)), (F(1), F(1, 2)))
        assert dense_fd_capacity(net).tight_cuts == (0, 2, 3)
        res = fd_capacity(net)
        assert (res.value, res.tight_cuts) == (1, (0, 3))

    def test_float_tight_cuts_are_the_exact_ties(self):
        # 0.5 + 0.2 rounds to the float 0.7, but the exact values of those
        # floats sum past it: cut 2 ties the minimum only in float sums.
        net = DiamondNetwork((0.7, 0.5), (0.2, 0.7))
        assert 0.5 + 0.2 == 0.7 and F(0.5) + F(0.2) > F(0.7)
        res = fd_capacity(net)
        assert (res.value, res.tight_cuts, res.arithmetic) == (0.7, (0, 3), "float")
        assert fd_mismatch(net) is None

    def test_unbounded_beside_a_link_past_the_float_range(self):
        # The cut of relay 1 pairs an unbounded uplink with a downlink of
        # 10**400: its value is unbounded, never inf + 10**400.
        net = DiamondNetwork((UNBOUNDED, 1), (10**401, 10**400))
        res = fd_capacity(net)
        assert (res.value, res.tight_cuts, res.arithmetic) == (10**401, (0,), "rational")
        assert type(res.value) is F
        assert fd_capacity_fast(net) == 10**401
        assert fd_mismatch(net) is None

    def test_no_table_and_no_guard(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a 2^n table was built")

        monkeypatch.setattr(capacity, "_tables", refuse)
        monkeypatch.setenv(capacity.LP_GUARD_ENV, "2")
        res = fd_capacity(gen_worst_case(40))
        assert (res.value, type(res.value), res.arithmetic) == (1, F, "rational")
        assert fd_capacity(gen_random(40, seed=1)).arithmetic == "float"

    def test_fully_unbounded(self):
        net = DiamondNetwork((UNBOUNDED,), (UNBOUNDED,))
        res = fd_capacity(net)
        assert res.value == UNBOUNDED
        assert res.tight_cuts == (0,)


# ---------------------------------------------------------------------------
# Half-duplex capacity: the scheduling game
# ---------------------------------------------------------------------------

class TestHalfDuplex:
    def test_one_relay_schedule_and_duals(self):
        net = DiamondNetwork((F(1),), (F(1, 2),))
        res = hd_capacity(net, "rational")
        assert res.value == F(1, 3)
        assert res.arithmetic == "rational"
        assert res.optimal_schedule.probs == {0: F(1, 3), 1: F(2, 3)}
        dual = dual_capacity(net, "rational")
        assert dual.value == F(1, 3)
        assert dual.cut_probs == {0: F(2, 3), 1: F(1, 3)}

    def test_reported_schedule_attains_value(self):
        for seed in range(25):
            net = gen_random(seed % 5 + 1, seed=seed + 1000)
            res = hd_capacity(net)
            rv = fixed_schedule_rate(net, res.optimal_schedule)
            assert rv.value == res.value  # certificate, not an approximation
            assert rv.min_cut in res.tight_cuts

    def test_tight_cuts_are_minimizers(self):
        net = gen_worst_case(4)
        res = hd_capacity(net, "rational")
        sched = res.optimal_schedule
        for a in res.tight_cuts:
            vals = [
                sum(p * cut_state_value(net, a, s) for s, p in sched.items())
            ]
            assert vals[0] == res.value

    def test_worst_case_family_capacity_one(self):
        for n in range(2, 7):
            assert hd_capacity(gen_worst_case(n), "rational").value == 1

    def test_half_tight_full_and_pair(self):
        for n in (2, 3, 4, 5):
            net = gen_half_tight(n)
            assert hd_capacity(net, "rational").value == 1
            pair = net.subnetwork((1, n))
            assert hd_capacity(pair, "rational").value == 1

    def test_hd_at_most_fd(self):
        for seed in range(40):
            net = gen_random(seed % 6 + 1, seed=seed + 7)
            hd = hd_capacity(net).value
            fd = fd_capacity_fast(net)
            assert hd <= fd + 1e-9

    def test_subnetwork_monotonicity(self):
        for seed in range(12):
            net = gen_random(4, seed=seed + 99)
            full = hd_capacity(net).value
            for keep in (0b0111, 0b1011, 0b0011, 0b1000):
                sub = hd_capacity(net.subnetwork(keep)).value
                assert sub <= full + 1e-9

    def test_rational_matches_float(self):
        for seed in range(15):
            rnd = gen_random(seed % 4 + 1, seed=seed)
            net = DiamondNetwork(
                tuple(F(v).limit_denominator(64) for v in rnd.uplinks),
                tuple(F(v).limit_denominator(64) for v in rnd.downlinks),
            )
            exact = hd_capacity(net, "rational").value
            approx = hd_capacity(net, "float").value
            assert approx == pytest.approx(float(exact), abs=1e-6)

    def test_guard(self, monkeypatch):
        big = gen_random(17, seed=0)
        with pytest.raises(GuardExceeded):
            hd_capacity(big)
        monkeypatch.setenv("HDDIAMOND_LP_GUARD", "2")
        with pytest.raises(GuardExceeded):
            hd_capacity(gen_random(3, seed=0))
        # raising the guard to the relay count lets it through
        monkeypatch.setenv("HDDIAMOND_LP_GUARD", "3")
        res = hd_capacity(gen_random(3, seed=0))
        assert res.value > 0

    def test_guard_env_var(self, monkeypatch):
        monkeypatch.setenv("HDDIAMOND_LP_GUARD", "2")
        with pytest.raises(GuardExceeded):
            hd_capacity(gen_random(3, seed=0))
        # A guard must be a positive integer.
        for bad in ("nonsense", "0", "-3"):
            monkeypatch.setenv("HDDIAMOND_LP_GUARD", bad)
            with pytest.raises(GuardExceeded, match=f"^bad HDDIAMOND_LP_GUARD value '{bad}'$"):
                hd_capacity(gen_random(3, seed=0))


class TestPinPastTheGuard:
    """Past the relay guard, ``hd_capacity`` answers where the two-phase
    schedule's rate meets the FD value, in either arithmetic and on exact
    or float links, and refuses elsewhere."""

    @pytest.fixture(autouse=True)
    def guard(self, monkeypatch):
        monkeypatch.setenv("HDDIAMOND_LP_GUARD", "4")

    @staticmethod
    def float_links(net):
        return DiamondNetwork(tuple(map(float, net.uplinks)), tuple(map(float, net.downlinks)))

    @pytest.mark.parametrize("n", [6, 8, 10])
    def test_closes_on_even_worst_case(self, n):
        # Rational mode pins the value of the links' exact values, with the
        # two-phase schedule and FD's tight cuts; float mode returns that
        # result rounded.  Float links of thirds hold other exact values than
        # the family's, and the pin closes on those too.
        net = gen_worst_case(n)
        sched = gen_two_phase_schedule(n)
        rounded = Schedule(n, {s: float(p) for s, p in sched.items()})
        assert hd_capacity(net, "rational").value == 1
        for links in (net, self.float_links(net)):
            fd = fd_capacity(capacity._exact_links(links))
            exact = hd_capacity(links, "rational")
            assert exact == capacity.CapacityResult(fd.value, sched, fd.tight_cuts, "rational")
            # Each tight cut is a minimizer of the schedule too.
            for a in exact.tight_cuts:
                scheduled = sum(
                    p * cut_state_value(capacity._exact_links(links), a, s) for s, p in sched.items()
                )
                assert scheduled == exact.value
            res = hd_capacity(links)
            assert res == capacity.CapacityResult(
                float(exact.value), rounded, exact.tight_cuts, "float"
            )
            assert res.value == 1.0 and isinstance(res.value, float)

    def test_open_on_odd_worst_case_and_random(self):
        for net in (gen_worst_case(5), gen_worst_case(7), gen_random(6, seed=0)):
            for links in (net, self.float_links(net)):
                for arithmetic in ("float", "rational"):
                    with pytest.raises(GuardExceeded, match=f"^hd_capacity on {net.n} relays"):
                        hd_capacity(links, arithmetic)

    def test_out_of_range_seeds_raise(self):
        for net in (gen_worst_case(6), gen_worst_case(7)):  # closed, open
            size = 1 << net.n
            for arithmetic in ("float", "rational"):
                for seeds in (((size,), ()), ((), (size,)), ((-1,), ()), ((), (-1,))):
                    with pytest.raises(ValueError, match="out of range"):
                        hd_capacity(net, arithmetic, seeds=seeds)
        net = gen_worst_case(6)
        assert hd_capacity(net, seeds=((1,), (2,))) == hd_capacity(net)

    @pytest.mark.parametrize("n", [17, 18])
    def test_unbounded_fd_value_answers_inf(self, n, monkeypatch):
        # At the default guard.  Every cut of the net meets relay n, which is
        # unbounded both ways, so the HD value is infinite: both arithmetics
        # answer it with the two-state certificate of an unbounded solve
        # below the guard, at odd n (where the pin stays open) and at even n.
        monkeypatch.delenv("HDDIAMOND_LP_GUARD")
        net = gen_random(n, 0)
        net = DiamondNetwork(net.uplinks[:-1] + (UNBOUNDED,), net.downlinks[:-1] + (UNBOUNDED,))
        for arithmetic in ("float", "rational"):
            res = hd_capacity(net, arithmetic)
            assert res == capacity.CapacityResult(
                UNBOUNDED, Schedule(n, {0: F(1, 2), (1 << n) - 1: F(1, 2)}), (0,), arithmetic
            )
            assert fixed_schedule_rate(net, res.optimal_schedule).value == UNBOUNDED
        with pytest.raises(GuardExceeded, match=f"^hd_capacity on {n} relays"):
            hd_capacity(gen_random(n, 0))

    def test_sparsify_returns_the_two_phase_schedule(self):
        sched = sparsify_schedule(gen_worst_case(8))
        assert sched.probs == {s: 0.5 for s in gen_two_phase_schedule(8).support}


class TestUnboundedLinks:
    def test_one_relay_unbounded_downlink(self):
        # (1/2, unbounded): value is the large-capacity limit 1/2, but no
        # fixed schedule attains it; always-listen scores 0.
        net = DiamondNetwork((F(1, 2),), (UNBOUNDED,))
        res = hd_capacity(net, "rational")
        assert res.value == F(1, 2)
        assert res.tight_cuts == (1,)
        assert fixed_schedule_rate(net, res.optimal_schedule).value == 0

    def test_all_unbounded(self):
        net = DiamondNetwork((UNBOUNDED, UNBOUNDED), (UNBOUNDED, UNBOUNDED))
        res = hd_capacity(net, "rational")
        assert res.value == UNBOUNDED
        dual = dual_capacity(net, "rational")
        assert dual.value == UNBOUNDED
        assert dual.cut_probs == {}

    def test_unbounded_certificate_has_two_states(self):
        # All-listen and all-transmit, half each: no 2^n-state schedule, even
        # at the guard.
        for n in (1, 3, 16):
            links = (UNBOUNDED,) * n
            net = DiamondNetwork(links, links)
            for arithmetic in ("float", "rational"):
                res = hd_capacity(net, arithmetic)
                assert res.value == UNBOUNDED
                assert res.optimal_schedule.probs == {0: F(1, 2), (1 << n) - 1: F(1, 2)}

    def test_unbounded_certificate_attains_the_value(self):
        # On every net whose FD value is unbounded, the two-state schedule's
        # rate is unbounded: against any cut, one of its states scores an
        # unbounded link.
        rng = random.Random(11)
        found = 0
        while found < 300:
            n = rng.randint(1, 8)
            link = lambda: UNBOUNDED if rng.random() < 0.4 else F(rng.randint(0, 9), rng.randint(1, 4))
            net = DiamondNetwork(tuple(link() for _ in range(n)), tuple(link() for _ in range(n)))
            if fd_capacity(net).value != UNBOUNDED:
                continue
            found += 1
            sched = hd_capacity(net, "rational").optimal_schedule
            assert len(sched.support) == 2
            assert fixed_schedule_rate(net, sched).value == UNBOUNDED, net

    def test_limit_matches_large_finite_substitute(self):
        net = gen_half_tight(3)
        limit = hd_capacity(net, "rational").value
        finite = hd_capacity(net.substitute_unbounded(10**6)).value
        assert float(limit) == pytest.approx(finite, abs=1e-4)

    def test_odd_worst_case_uses_row_deletion(self):
        net = gen_worst_case(5)  # relay 5 has an unbounded uplink
        assert net.has_unbounded
        res = hd_capacity(net, "rational")
        assert res.value == 1


class TestDualConsistency:
    def test_dual_equals_primal_float(self):
        for seed in range(40):
            net = gen_random(seed % 6 + 1, seed=seed + 31)
            hd = hd_capacity(net).value
            du = dual_capacity(net).value
            assert du == pytest.approx(hd, abs=1e-6)

    def test_dual_equals_primal_exact(self):
        for seed in range(10):
            rnd = gen_random(seed % 3 + 1, seed=seed)
            net = DiamondNetwork(
                tuple(F(v).limit_denominator(32) for v in rnd.uplinks),
                tuple(F(v).limit_denominator(32) for v in rnd.downlinks),
            )
            assert dual_capacity(net, "rational").value == hd_capacity(net, "rational").value

    def test_float_matches_dense_oracle(self):
        for n in range(2, 9):
            for seed in range(10):
                net = gen_random(n, seed=seed)
                assert hd_capacity(net).value == pytest.approx(
                    dual_capacity(net).value, rel=1e-9, abs=1e-9
                ), (n, seed)

    def test_cut_mixture_is_distribution(self):
        dual = dual_capacity(gen_random(4, seed=5))
        total = sum(dual.cut_probs.values())
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(p > 0 for p in dual.cut_probs.values())


class TestOneLPPerRound:
    """hd_capacity reads both mixtures of each restricted game off one LP:
    the schedule from its solution, the cut mixture from its final prices."""

    def test_primal_prices_certify_value(self):
        import random

        import numpy as np

        from hddiamond.capacity import _game_primal

        rng = random.Random(5)
        for _ in range(30):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            g = np.array(
                [[F(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(cols)]
                 for _ in range(rows)],
                dtype=object,
            )
            # The LP takes the payoffs as integers on a common scale, as
            # hd_capacity's tables hold them.
            scale = math.lcm(*(v.denominator for v in g.flat))
            value, q, p, _ = _game_primal(
                np.array([[int(v * scale) for v in row] for row in g], dtype=object), scale
            )
            assert sum(q) == 1 and sum(p) == 1
            assert min(q) >= 0 and min(p) >= 0
            floor = min(sum(g[i, j] * q[j] for j in range(cols)) for i in range(rows))
            ceiling = max(sum(p[i] * g[i, j] for i in range(rows)) for j in range(cols))
            assert ceiling == value == floor

    def test_payoff_gather_matches_pointwise_values(self):
        from hddiamond.capacity import _payoff, _tables

        for net, exact in (
            (DiamondNetwork((F(1, 2), 3, F(5, 7)), (2, F(1, 3), 1)), True),
            (DiamondNetwork((0.5, UNBOUNDED, 1.25), (2.0, 0.75, UNBOUNDED)), False),
        ):
            # The tables, and so the gathered payoffs, are on the tables' scale.
            maxl, maxr, scale = _tables(net, exact)
            cuts, states = [0, 3, 5, 6, 7], list(range(8))
            g = _payoff(maxl, maxr, cuts, states)
            assert g.tolist() == [
                [cut_state_value(net, a, s) * scale for s in states] for a in cuts
            ]

    def test_pinned_values_attained_by_own_schedule(self):
        assert hd_capacity(gen_worst_case(6), "rational").value == 1
        assert hd_capacity(gen_half_tight(4), "rational").value == 1
        for (n, seed), value in {
            (5, 1): 3.024583315683132,
            (7, 2): 2.6688104007552695,
            (9, 3): 3.159408043229175,
        }.items():
            net = gen_random(n, seed=seed)
            res = hd_capacity(net)
            assert res.value == pytest.approx(value, rel=1e-9)
            assert fixed_schedule_rate(net, res.optimal_schedule).value == res.value


class TestFormerPivotStall:
    """gen_random(12, 206) once exhausted the pivot budget after tens of
    seconds and raised SolverFailure."""

    def test_solves_and_certifies(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        import numpy as np

        net = gen_random(12, seed=206)
        res = hd_capacity(net)
        floor = fixed_schedule_rate(net, res.optimal_schedule).value
        assert floor == pytest.approx(res.value, rel=1e-9)

        # Ceiling: the best mixture of the tight cuts against all 2^12 states,
        # payoffs rebuilt from the links here.
        states = np.arange(1 << net.n)
        up, down = np.array(net.uplinks), np.array(net.downlinks)
        bits = (states[:, None] >> np.arange(net.n)) & 1  # state x relay: transmits

        def column(cut):
            in_cut = (cut >> np.arange(net.n)) & 1
            listen = np.where(in_cut & (1 - bits), up, 0.0).max(axis=1)
            talk = np.where((1 - in_cut) & bits, down, 0.0).max(axis=1)
            return listen + talk

        g = np.array([column(a) for a in res.tight_cuts])  # cut x state
        k = len(res.tight_cuts)
        # min v  s.t.  p^T G <= v for every state, sum p = 1, p >= 0
        ref = scipy_opt.linprog(
            np.r_[np.zeros(k), 1.0],
            A_ub=np.hstack([g.T, -np.ones((g.shape[1], 1))]),
            b_ub=np.zeros(g.shape[1]),
            A_eq=np.r_[np.ones(k), 0.0][None, :],
            b_eq=[1.0],
            bounds=[(0, None)] * k + [(None, None)],
            method="highs",
            # At its default 1e-7 tolerances HiGHS stops about 1.2e-8
            # relative below the exact optimum 3.550984868880925.
            options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
        )
        assert ref.status == 0
        assert ref.fun == pytest.approx(res.value, rel=1e-9)


def _float_then_exact_corpus() -> list[DiamondNetwork]:
    """Exact-link random nets, both hard families (unbounded links) and a
    net on which the float pass raises SolverFailure."""
    cut = lambda v: F(v).limit_denominator(100)
    nets = []
    for n in range(2, 7):
        for seed in range(3):
            net = gen_random(n, seed=seed)
            nets.append(DiamondNetwork(tuple(map(cut, net.uplinks)), tuple(map(cut, net.downlinks))))
    nets += [gen_worst_case(n) for n in range(2, 9)]
    nets += [gen_half_tight(n) for n in range(2, 9)]
    nets.append(DiamondNetwork((1e7, 0.1, 0), (1e-6, 0.1, 1e4)))
    return nets


@pytest.fixture(scope="module")
def seeded_vs_unseeded():
    """Per corpus net: (net, rational hd_capacity, its exact LPs, unseeded
    exact ``_solve``, its exact LPs).  Exact LPs are the ``_game_primal``
    calls on object-dtype matrices."""
    exact_lps = []
    real = capacity._game_primal

    def counting(matrix, scale, *basis):
        if matrix.dtype == object:
            exact_lps.append(matrix.shape)
        return real(matrix, scale, *basis)

    rows = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity, "_game_primal", counting)
        for net in _float_then_exact_corpus():
            exact_lps.clear()
            seeded = hd_capacity(net, "rational")
            seeded_lps = len(exact_lps)
            exact_lps.clear()
            unseeded = capacity._solve(net, True)[0]
            rows.append((net, seeded, seeded_lps, unseeded, len(exact_lps)))
    return rows


class TestFloatThenExact:
    """Rational hd_capacity solves in float first and seeds the exact rounds
    with the float solve's support; the exact certificate alone stops them."""

    def test_values_match_unseeded_exact_solve(self, seeded_vs_unseeded):
        for net, seeded, _, unseeded, _ in seeded_vs_unseeded:
            assert seeded.value == unseeded.value, net
            assert type(seeded.value) is type(unseeded.value)
            assert isinstance(seeded.value, (int, F))
            assert seeded.arithmetic == "rational"
            assert all(isinstance(p, (int, F)) for p in seeded.optimal_schedule.probs.values())

    def test_seeds_never_add_exact_lps(self, seeded_vs_unseeded):
        for net, _, seeded_lps, _, unseeded_lps in seeded_vs_unseeded:
            assert seeded_lps <= unseeded_lps, net
        assert sum(r[2] for r in seeded_vs_unseeded) < sum(r[4] for r in seeded_vs_unseeded)

    def test_finite_schedule_attains_value(self, seeded_vs_unseeded):
        for net, seeded, _, _, _ in seeded_vs_unseeded:
            if all(isinstance(v, (int, F)) for v in net.uplinks + net.downlinks):
                assert fixed_schedule_rate(net, seeded.optimal_schedule).value == seeded.value

    def test_failed_float_pass_runs_unseeded(self, monkeypatch, seeded_vs_unseeded):
        real = capacity._solve

        def float_fails(net, exact, states=(), cuts=()):
            if not exact:
                raise SolverFailure("float pass patched to fail")
            assert not states and not cuts
            return real(net, exact, states, cuts)

        monkeypatch.setattr(capacity, "_solve", float_fails)
        for net, seeded, _, unseeded, _ in seeded_vs_unseeded[::3]:
            res = hd_capacity(net, "rational")
            assert res.value == seeded.value
            assert res == unseeded

    def test_values_match_cold_solves(self, monkeypatch, seeded_vs_unseeded):
        # Every restricted LP from the all-slack basis, as before the rounds
        # were warm-started: the exact values cannot move.
        real = capacity.solve_lp

        def cold(*args, basis=None, **kwargs):
            return real(*args, **kwargs)

        monkeypatch.setattr(capacity, "solve_lp", cold)
        for net, seeded, _, _, _ in seeded_vs_unseeded:
            assert hd_capacity(net, "rational").value == seeded.value, net

    def test_float_pass_fails_on_wide_spread(self):
        net = DiamondNetwork((1e7, 0.1, 0), (1e-6, 0.1, 1e4))
        with pytest.raises(SolverFailure):
            capacity._solve(net, False)

    def test_link_too_large_for_a_float(self):
        big = 10**400
        net = DiamondNetwork((big, 1), (1, big))
        with pytest.raises(OverflowError):
            capacity._solve(net, False)
        res = hd_capacity(net, "rational")
        assert res.value == F(2 * big, big + 1)
        assert type(res.value) is F

    def test_links_past_the_float_range_seed_the_exact_rounds(self, monkeypatch):
        # The float pass runs on the links divided by a common power of two,
        # and its support seeds the exact rounds: no more exact LPs than on
        # the same links unscaled, and the value scales with the links.
        exact_lps = []
        real = capacity._game_primal

        def counting(matrix, scale, *basis):
            if matrix.dtype == object:
                exact_lps.append(matrix.shape)
            return real(matrix, scale, *basis)

        monkeypatch.setattr(capacity, "_game_primal", counting)
        net = gen_random(8, 0)
        big = 10**400
        scaled = DiamondNetwork(
            tuple(F(v) * big for v in net.uplinks), tuple(F(v) * big for v in net.downlinks)
        )
        plain = hd_capacity(net, "rational").value
        plain_lps = len(exact_lps)
        exact_lps.clear()
        assert hd_capacity(scaled, "rational").value == plain * big
        assert 0 < len(exact_lps) <= plain_lps

    def test_dual_repair_gives_up_on_a_cycle(self, monkeypatch):
        # From the default pools, a warm start's dual repair in the exact
        # rounds of this net returns to a basis it has held; repeating the
        # cycle used to spend the whole pivot budget.
        from hddiamond import simplex

        net = gen_random(12, 5)
        want = hd_capacity(net, "rational").value
        monkeypatch.setattr(simplex, "_MAX_PIVOTS", 5000)
        assert capacity._solve(net, True)[0].value == want

    @pytest.mark.parametrize("links", [
        ((10**400, 1), (1, 10**400)),
        ((10**400, 0.5, 1), (1, 10**400, 0.5)),
    ])
    def test_escalated_schedule_keeps_weights_below_the_float_range(self, links):
        # The optimal schedule weights a state about 1e-400: kept exact in
        # the float result, it still attains the value.
        net = DiamondNetwork(*links)
        res = hd_capacity(net)
        assert float(hd_capacity(net, "rational").value) == res.value
        assert fixed_schedule_rate(net, res.optimal_schedule).value == res.value
        assert any(isinstance(p, F) for p in res.optimal_schedule.probs.values())

    def test_property_wide_spread(self):
        # Exact links across fourteen orders of magnitude, with zero and
        # unbounded links: the float pre-pass fails on some of these, and the
        # exact rounds must still certify the value.
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        links = st.sampled_from(
            (0, UNBOUNDED) + tuple(10**e if e >= 0 else F(1, 10**-e) for e in range(-7, 8))
        )

        @hyp.settings(max_examples=60, deadline=None, derandomize=True)
        @hyp.given(data=st.data(), n=st.integers(2, 5))
        def check(data, n):
            up = data.draw(st.lists(links, min_size=n, max_size=n))
            down = data.draw(st.lists(links, min_size=n, max_size=n))
            net = DiamondNetwork(tuple(up), tuple(down))
            res = hd_capacity(net, "rational")
            best_single = max(single_relay_capacity(l, r) for l, r in zip(up, down))
            assert best_single <= res.value <= fd_capacity_fast(net), net
            if UNBOUNDED not in up + down:
                assert type(res.value) in (int, F), net
                assert fixed_schedule_rate(net, res.optimal_schedule).value == res.value, net

        check()

    def test_seeds_only_add_kept_cuts(self):
        for net in (gen_worst_case(5), gen_half_tight(4), DiamondNetwork((F(1, 2), 3), (2, F(1, 3)))):
            full = (1 << net.n) - 1
            seeded, cuts = capacity._solve(net, True, range(full + 1), range(full + 1))
            assert seeded.value == capacity._solve(net, True)[0].value
            # Against the complementary state a cut's payoff is its FD value.
            assert all(cut_state_value(net, a, full - a) != UNBOUNDED for a in cuts)


class TestFloatWideSpreadDefects:
    """Former float defects on wide magnitude spreads.  Float mode now
    escalates to exact arithmetic when its floor and ceiling do not meet, or
    when its simplex fails, so both inputs are tight."""

    def test_tiny_optimal_weights(self):
        # The optimum puts weights near 1e-9 and 1e-13 on two states, below
        # the float tolerances: the float rounds stop 1e-5 short of it.
        net = DiamondNetwork((1e3, 1e7, 1e-6, 1e-7), (1e6, 0.01, 0, 1e6))
        exact = hd_capacity(net, "rational").value
        assert hd_capacity(net).value == pytest.approx(float(exact), rel=1e-9)

    def test_reduced_costs_settle(self):
        # The float rounds raise SolverFailure here (see
        # TestFloatThenExact::test_float_pass_fails_on_wide_spread).
        net = DiamondNetwork((1e7, 0.1, 0), (1e-6, 0.1, 1e4))
        exact = hd_capacity(net, "rational").value
        assert exact == pytest.approx(0.0500007499987, rel=1e-9)
        assert hd_capacity(net).value == pytest.approx(float(exact), rel=1e-9)

    def test_negative_weight_escalates(self):
        # The float LP ends on a state weight of -1.1e-9, so the positive
        # weights sum past 1: no valid schedule, which used to escape as
        # NetworkFormatError; now float mode escalates and rational mode runs
        # its exact rounds unseeded.
        net = DiamondNetwork((F(1, 10**7), 0), (0, 1))
        with pytest.raises(SolverFailure):
            capacity._solve(net, False)
        assert hd_capacity(net).value == 0.0
        assert hd_capacity(net, "rational").value == 0


class TestSubnetworkSeeds:
    """hd_capacity(..., seeds=) starts the double oracle from given pools,
    typically a parent network's solve restricted to a subnetwork.  Seeds
    only add pool entries: rational values cannot move, and float values
    stay within the float tolerance policy."""

    @staticmethod
    def _pairs(net, arithmetic):
        """(seeded, unseeded) value of every subnetwork of ``net``."""
        full = hd_capacity(net, arithmetic)
        for keep in range(1, 1 << net.n):
            sub = net.subnetwork(keep)
            seeds = subnetwork_seeds(full, keep)
            yield (hd_capacity(sub, arithmetic, seeds=seeds).value,
                   hd_capacity(sub, arithmetic).value)

    def test_float_agrees_and_saves_lps(self, monkeypatch):
        lps = []
        real = capacity.solve_lp

        def counting(*args, **kwargs):
            lps.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(capacity, "solve_lp", counting)
        seeded_lps = unseeded_lps = 0
        for n in range(2, 9):
            for u in range(5):
                net = gen_random(n, u)
                full = hd_capacity(net)
                for keep in range(1, 1 << n):
                    sub = net.subnetwork(keep)
                    start = len(lps)
                    seeded = hd_capacity(sub, seeds=subnetwork_seeds(full, keep)).value
                    middle = len(lps)
                    unseeded = hd_capacity(sub).value
                    seeded_lps += middle - start
                    unseeded_lps += len(lps) - middle
                    assert seeded == pytest.approx(unseeded, rel=1e-9)
        assert seeded_lps < unseeded_lps / 2

    def test_rational_equal(self):
        for n in range(2, 7):
            for u in range(5):
                for seeded, unseeded in self._pairs(gen_random(n, u), "rational"):
                    assert seeded == unseeded
                    assert type(seeded) is type(unseeded)

    def test_property_wide_spread(self):
        # The link alphabet of TestFloatThenExact::test_property_wide_spread.
        # On such spreads a float value is only as close to the exact one as
        # the escalation gap allows (absolute below 1), seeded or not.
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        links = st.sampled_from(
            (0, UNBOUNDED) + tuple(10**e if e >= 0 else F(1, 10**-e) for e in range(-7, 8))
        )

        @hyp.settings(max_examples=25, deadline=None, derandomize=True)
        @hyp.given(data=st.data(), n=st.integers(2, 5))
        def check(data, n):
            up = data.draw(st.lists(links, min_size=n, max_size=n))
            down = data.draw(st.lists(links, min_size=n, max_size=n))
            net = DiamondNetwork(tuple(up), tuple(down))
            exact = []
            for seeded, unseeded in self._pairs(net, "rational"):
                assert seeded == unseeded, net
                exact.append(seeded)
            for (seeded, unseeded), want in zip(self._pairs(net, "float"), exact):
                for got in (seeded, unseeded):
                    if want == UNBOUNDED:
                        assert got == UNBOUNDED, net
                    else:
                        assert abs(got - want) <= capacity._escalate_gap(want), net

        check()

    def test_out_of_range_masks_raise(self):
        net = gen_random(3, 0)
        for arithmetic in ("float", "rational"):
            for seeds in (((8,), ()), ((), (8,)), ((-1,), ()), ((), (-1,))):
                with pytest.raises(ValueError):
                    hd_capacity(net, arithmetic, seeds=seeds)
        # Also where no LP would run: every cut has unbounded FD value.
        with pytest.raises(ValueError):
            hd_capacity(DiamondNetwork((UNBOUNDED,), (UNBOUNDED,)), seeds=((), (2,)))

    def test_seeds_restrict_the_full_solve(self):
        net = gen_random(5, 3)
        full = hd_capacity(net)
        keep = 0b10110
        states, cuts = subnetwork_seeds(full, keep)
        assert states == tuple(sorted({restrict_mask(s, keep) for s in full.optimal_schedule.support}))
        assert cuts == tuple(sorted({restrict_mask(a, keep) for a in full.tight_cuts}))
        assert subnetwork_seeds(hd_capacity(gen_half_tight(3)), 0b011) != ((), ())
        # An unbounded full value restricts like any other: its two-state
        # schedule and cut 0 give only masks of the default pools.
        unbounded = hd_capacity(DiamondNetwork((UNBOUNDED, 1), (UNBOUNDED, 1)))
        assert unbounded.value == UNBOUNDED
        assert subnetwork_seeds(unbounded, 0b01) == ((0, 1), (0,))


class TestSparsify:
    def test_support_bound_and_rate(self):
        for seed in range(12):
            n = seed % 3 + 2
            net = gen_random(n, seed=seed + 400)
            cap = hd_capacity(net).value
            sched = sparsify_schedule(net)
            assert sched is not None
            assert len(sched.support) <= n + 1
            assert fixed_schedule_rate(net, sched).value >= cap - 1e-8

    def test_larger_nets_keep_own_schedule(self):
        for n in range(5, 9):
            for seed in range(3):
                net = gen_random(n, seed=seed + 500)
                res = hd_capacity(net)
                sched = sparsify_schedule(net)
                assert len(sched.support) <= n + 1
                assert fixed_schedule_rate(net, sched).value == res.value

    def test_fallback_search(self, monkeypatch):
        # A float hd_capacity reporting a full-support schedule at the true
        # value sends sparsify_schedule to the rational solve.
        true_hd = capacity.hd_capacity

        def dense(net, arithmetic="float"):
            res = true_hd(net, arithmetic)
            if arithmetic == "rational":
                return res
            return capacity.CapacityResult(
                res.value, Schedule.uniform(net.n), res.tight_cuts, res.arithmetic
            )

        monkeypatch.setattr(capacity, "hd_capacity", dense)
        for n in range(2, 9):
            net = gen_random(n, seed=n + 398)
            sched = sparsify_schedule(net)
            assert len(sched.support) <= n + 1
            rate = fixed_schedule_rate(net, sched).value
            assert rate == pytest.approx(true_hd(net).value, rel=0, abs=1e-8)

    def test_fast_path_needs_no_search(self, monkeypatch):
        true_hd = capacity.hd_capacity

        def float_only(net, arithmetic="float"):
            if arithmetic != "float":
                raise AssertionError("sparsify_schedule fell back to the rational solve")
            return true_hd(net)

        monkeypatch.setattr(capacity, "hd_capacity", float_only)
        self.test_support_bound_and_rate()

    def test_schedules_have_at_most_n_plus_one_states(self):
        # The cut-lattice proof of sparsify_schedule covers the rational
        # schedule; float has held on every net tried.
        hyp = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        links = st.sampled_from((0, 0, 1, 1, 2, F(1, 2), F(3, 2), F(7, 3), UNBOUNDED))

        @hyp.settings(max_examples=150, deadline=None, derandomize=True)
        @hyp.given(st.integers(1, 6).flatmap(
            lambda n: st.tuples(st.lists(links, min_size=n, max_size=n),
                                st.lists(links, min_size=n, max_size=n))))
        def check(pair):
            net = DiamondNetwork(*pair)
            for arithmetic in ("rational", "float"):
                res = hd_capacity(net, arithmetic)
                if res.value != UNBOUNDED:
                    assert len(res.optimal_schedule.support) <= net.n + 1, (net, arithmetic)

        check()

    def test_unbounded_target_returns_none(self):
        net = DiamondNetwork((UNBOUNDED,), (UNBOUNDED,))
        assert sparsify_schedule(net) is None


# ---------------------------------------------------------------------------
# Independent oracle: tiny networks, dense LP via scipy
# ---------------------------------------------------------------------------

class TestOutputTypes:
    """Exact results stay Fraction/int (or UNBOUNDED), float results stay
    Python float, and every mask is a Python int, not a numpy integer."""

    @staticmethod
    def assert_masks(masks):
        assert all(type(m) is int for m in masks)

    def test_exact_and_float_result_types(self):
        exact_value = lambda v: type(v) in (F, int) or v == UNBOUNDED
        for net in (gen_worst_case(5), gen_half_tight(4)):
            hd = hd_capacity(net, "rational")
            assert exact_value(hd.value)
            assert all(type(p) is F for p in hd.optimal_schedule.probs.values())
            self.assert_masks(hd.tight_cuts)
            self.assert_masks(hd.optimal_schedule.probs)
            rate = fixed_schedule_rate(net, gen_two_phase_schedule(net.n))
            assert exact_value(rate.value)
            self.assert_masks([rate.min_cut])
            fd = fd_capacity(net)
            assert exact_value(fd.value)
            self.assert_masks(fd.tight_cuts)
            dual = dual_capacity(net, "rational")
            assert exact_value(dual.value)
            assert all(type(p) is F for p in dual.cut_probs.values())
            self.assert_masks(dual.cut_probs)

        net = gen_random(5, seed=3)
        hd = hd_capacity(net)
        assert type(hd.value) is float
        assert all(type(p) is float for p in hd.optimal_schedule.probs.values())
        self.assert_masks(hd.tight_cuts)
        self.assert_masks(hd.optimal_schedule.probs)
        rate = fixed_schedule_rate(net, hd.optimal_schedule)
        assert type(rate.value) is float
        self.assert_masks([rate.min_cut])
        fd = fd_capacity(net)
        assert type(fd.value) is float
        self.assert_masks(fd.tight_cuts)
        dual = dual_capacity(net)
        assert type(dual.value) is float
        assert all(type(p) is float for p in dual.cut_probs.values())
        self.assert_masks(dual.cut_probs)


class TestBruteForceOracle:
    def test_matches_scipy_dense_game(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        import numpy as np

        for seed in range(30):
            n = seed % 3 + 1
            net = gen_random(n, seed=seed + 800)
            size = 1 << n
            m = np.array(
                [[float(cut_state_value(net, a, s)) for s in range(size)] for a in range(size)]
            )
            # max v  s.t.  M q >= v per cut, sum q = 1, q >= 0
            c = np.zeros(size + 1)
            c[-1] = -1.0
            a_ub = np.hstack([-m, np.ones((size, 1))])
            a_eq = np.hstack([np.ones((1, size)), np.zeros((1, 1))])
            ref = scipy_opt.linprog(
                c,
                A_ub=a_ub,
                b_ub=np.zeros(size),
                A_eq=a_eq,
                b_eq=[1.0],
                bounds=[(0, None)] * size + [(None, None)],
                method="highs",
            )
            assert ref.status == 0
            mine = hd_capacity(net).value
            assert mine == pytest.approx(-ref.fun, abs=1e-7)
