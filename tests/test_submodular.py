"""Submodular machinery: threshold rearrangement, cut completion, duality."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from hddiamond import submodular
from hddiamond import (
    UNBOUNDED,
    DiamondNetwork,
    GuardExceeded,
    check_complement_duality,
    check_cut_completion_bound,
    check_kwise_intersection_inequality,
    check_threshold_sum_inequality,
    complete_cut_family,
    gen_random,
    is_submodular,
    max_weight_function,
    threshold_sets,
)
from hddiamond._tolerance import AGREE


def random_family(rng: random.Random, ground: list, m: int) -> list:
    return [frozenset(x for x in ground if rng.random() < 0.5) for _ in range(m)]


def squared(scale):
    """f(S) = scale * |S|^2: supermodular, so every inequality below fails
    by a margin proportional to ``scale``."""
    return lambda s: scale * len(s) ** 2


#: A margin far below any float slack, in exact arithmetic.
TINY = F(1, 10**10)


class TestThresholdSets:
    def test_worked_example(self):
        fam = [{1, 2, 5, 7}, {4, 5}, {2, 4, 5, 6}]
        t = threshold_sets(fam)
        assert t == [frozenset({1, 2, 4, 5, 6, 7}), frozenset({2, 4, 5}), frozenset({5})]

    def test_decreasing_chain(self):
        rng = random.Random(0)
        for _ in range(50):
            fam = random_family(rng, list(range(8)), rng.randint(1, 6))
            t = threshold_sets(fam)
            assert len(t) == len(fam)
            for a, b in zip(t, t[1:]):
                assert a >= b

    def test_multiplicities_preserved(self):
        # Rearrangement invariant: every element appears in exactly as many
        # threshold sets as original sets.
        rng = random.Random(1)
        for _ in range(50):
            fam = random_family(rng, list(range(10)), rng.randint(1, 7))
            t = threshold_sets(fam)
            assert Counter(x for s in fam for x in s) == Counter(x for s in t for x in s)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            threshold_sets([])


class TestThresholdSumInequality:
    def test_worked_example_18_vs_17(self):
        f = max_weight_function({i: i for i in range(1, 8)})
        chk = check_threshold_sum_inequality(f, [{1, 2, 5, 7}, {4, 5}, {2, 4, 5, 6}])
        assert chk.holds
        assert chk.lhs == 18
        assert chk.rhs == 17

    def test_random_max_weight_families(self):
        rng = random.Random(2)
        for _ in range(200):
            ground = list(range(1, rng.randint(2, 9)))
            weights = {x: F(rng.randint(0, 100), rng.randint(1, 9)) for x in ground}
            f = max_weight_function(weights)
            fam = random_family(rng, ground, rng.randint(1, 6))
            chk = check_threshold_sum_inequality(f, fam)
            assert chk.holds
            # exact arithmetic: no tolerance hiding anything
            assert chk.lhs >= chk.rhs

    def test_modular_functions_reach_equality(self):
        rng = random.Random(3)
        for _ in range(50):
            ground = list(range(6))
            weights = {x: rng.randint(0, 9) for x in ground}
            f = lambda s: sum(weights[x] for x in s)  # noqa: E731
            fam = random_family(rng, ground, rng.randint(1, 5))
            chk = check_threshold_sum_inequality(f, fam)
            assert chk.holds and chk.lhs == chk.rhs

    def test_exact_shortfall_fails(self):
        chk = check_threshold_sum_inequality(squared(TINY), [{1}, {2}])
        assert (chk.lhs, chk.rhs, chk.holds) == (2 * TINY, 4 * TINY, False)

    def test_float_compares_within_agree(self):
        # rhs - lhs = 2 * scale: half the slack holds, twice the slack fails.
        assert check_threshold_sum_inequality(squared(AGREE / 4), [{1}, {2}]).holds
        assert not check_threshold_sum_inequality(squared(AGREE), [{1}, {2}]).holds


class TestKwiseIntersectionInequality:
    def test_all_k_on_random_families(self):
        rng = random.Random(4)
        for _ in range(100):
            ground = list(range(1, 8))
            weights = {x: rng.randint(0, 50) for x in ground}
            f = max_weight_function(weights)
            m = rng.randint(1, 4)
            fam = random_family(rng, ground, m)
            extra = frozenset(x for x in ground if rng.random() < 0.5)
            for k in range(m):
                chk = check_kwise_intersection_inequality(f, fam, extra, k)
                assert chk.holds, (fam, extra, k)

    def test_k_out_of_range(self):
        f = max_weight_function({1: 1})
        with pytest.raises(ValueError):
            check_kwise_intersection_inequality(f, [{1}], {1}, 1)
        with pytest.raises(ValueError):
            check_kwise_intersection_inequality(f, [{1}], {1}, -1)

    def test_exact_shortfall_fails(self):
        chk = check_kwise_intersection_inequality(squared(TINY), [{1}, {2}], {3}, 0)
        assert (chk.lhs, chk.rhs, chk.holds) == (5 * TINY, 9 * TINY, False)

    def test_float_compares_within_agree(self):
        # rhs - lhs = 4 * scale: half the slack holds, twice the slack fails.
        for scale, holds in ((AGREE / 8, True), (AGREE / 2, False)):
            chk = check_kwise_intersection_inequality(squared(scale), [{1}, {2}], {3}, 0)
            assert chk.holds is holds


class TestIsSubmodular:
    def test_max_weight_is_submodular(self):
        f = max_weight_function({x: x * x for x in range(5)})
        assert is_submodular(f, range(5)).holds

    def test_cardinality_squared_is_not(self):
        chk = is_submodular(lambda s: len(s) ** 2, range(4))
        assert not chk.holds
        s, x, y = chk.witness
        f = lambda t: len(t) ** 2  # noqa: E731
        assert f(s | {x}) + f(s | {y}) < f(s | {x, y}) + f(s)

    def test_exact_shortfall_fails(self):
        chk = is_submodular(squared(TINY), range(3))
        assert not chk.holds
        assert chk.witness == (frozenset(), 0, 1)

    def test_float_compares_within_agree(self):
        # Every diminishing-returns test falls short by 2 * scale.
        assert is_submodular(squared(AGREE / 4), range(3)).holds
        chk = is_submodular(squared(AGREE), range(3))
        assert not chk.holds and chk.witness == (frozenset(), 0, 1)

    def test_guard(self, monkeypatch):
        with pytest.raises(GuardExceeded):
            is_submodular(len, range(13))
        monkeypatch.setattr(submodular, "_GROUND_GUARD", 13)
        assert is_submodular(len, range(13)).holds


class TestCutCompletion:
    def test_three_relay_example(self):
        fam = (frozenset(), {3}, {1, 2})
        cuts = complete_cut_family(fam, 3)
        assert cuts == [frozenset({1, 2, 3}), frozenset()]

    def test_validation(self):
        with pytest.raises(ValueError):
            complete_cut_family([{2}], 2)  # wrong count
        with pytest.raises(ValueError):
            complete_cut_family([{1}, {1}], 2)  # cut 1 contains relay 1
        with pytest.raises(ValueError):
            complete_cut_family([{3}, {1}], 2)  # out of range

    def test_two_relay_bound_by_hand(self):
        net = DiamondNetwork((3, 5), (2, 7))
        chk = check_cut_completion_bound(net, [{2}, {1}])
        assert chk.lhs == 8  # (up 5 + down nothing) + (up 3 + down nothing)
        assert chk.rhs == 5  # single full cut {1,2}: up 5, nothing outside
        assert chk.holds
        assert chk.full_cuts == (frozenset({1, 2}),)

    def test_random_networks_and_cuts(self):
        rng = random.Random(5)
        for trial in range(150):
            n = rng.randint(2, 6)
            net = gen_random(n, seed=trial)
            subnet_cuts = []
            for i in range(1, n + 1):
                others = [x for x in range(1, n + 1) if x != i]
                subnet_cuts.append(frozenset(x for x in others if rng.random() < 0.5))
            chk = check_cut_completion_bound(net, subnet_cuts)
            assert chk.holds, (net, subnet_cuts)
            assert len(chk.full_cuts) == n - 1

    def test_exact_arithmetic_carries_through(self):
        net = DiamondNetwork((F(1, 3), F(2, 7)), (F(5, 11), F(1, 2)))
        chk = check_cut_completion_bound(net, [{2}, {1}])
        assert isinstance(chk.lhs, F) and isinstance(chk.rhs, F)

    def test_unbounded_term_beside_a_huge_exact_link(self):
        # Adding inf to 10**400 overflows; an unbounded term makes its side
        # unbounded instead.
        net = DiamondNetwork((10**400, 1, 1), (UNBOUNDED, 1, 2))
        chk = check_cut_completion_bound(net, [set(), set(), {1}])
        assert chk.lhs == chk.rhs == UNBOUNDED
        assert chk.holds
        assert chk.full_cuts == (frozenset({1}), frozenset())
        # Finite huge terms stay exact ints.
        chk = check_cut_completion_bound(net, [set(), {1, 3}, {1}])
        assert chk.lhs == 2 + 10**400 + (10**400 + 1)


class TestComplementDuality:
    def test_random_families(self):
        rng = random.Random(6)
        for trial in range(150):
            n = rng.randint(2, 7)
            cuts = []
            for i in range(1, n + 1):
                others = [x for x in range(1, n + 1) if x != i]
                cuts.append(frozenset(x for x in others if rng.random() < 0.5))
            assert check_complement_duality(cuts, n)

    def test_small_example(self):
        assert check_complement_duality([frozenset(), {3}, {1, 2}], 3)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            check_complement_duality([{2}], 3)


class TestMaxWeightFunction:
    def test_empty_set_is_zero(self):
        f = max_weight_function({1: 5})
        assert f(frozenset()) == 0
        assert f(frozenset({1})) == 5
