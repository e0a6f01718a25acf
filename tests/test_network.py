"""Network model, mask conventions, schedules, generators, serialization."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

import hddiamond as hd
from hddiamond import (
    UNBOUNDED,
    DiamondNetwork,
    NetworkFormatError,
    Schedule,
    derive_natural_schedule,
    gen_half_tight,
    gen_random,
    gen_two_phase_schedule,
    gen_worst_case,
    links_from_gains,
    network_from_dict,
    network_to_dict,
    parse_mask,
    parse_network,
    render_mask,
    render_network,
    value_from_json,
    value_to_json,
)


# ---------------------------------------------------------------------------
# Masks: leftmost rendered character is relay 1
# ---------------------------------------------------------------------------

class TestMasks:
    def test_parse_leftmost_is_relay_one(self):
        assert parse_mask("100") == 0b001
        assert parse_mask("001") == 0b100
        assert parse_mask("110") == 0b011

    def test_render_inverse_of_parse(self):
        for mask in range(16):
            assert parse_mask(render_mask(mask, 4)) == mask

    def test_render_examples(self):
        assert render_mask(0b001, 3) == "100"
        assert render_mask(0b100, 3) == "001"

    def test_parse_rejects_junk(self):
        with pytest.raises(NetworkFormatError):
            parse_mask("102")
        with pytest.raises(NetworkFormatError):
            parse_mask("01", n=3)

    def test_relay_sets(self):
        from hddiamond.network import mask_from_relays, relays_from_mask

        assert parse_mask("101") == mask_from_relays([1, 3], 3)
        assert mask_from_relays([1, 3], 3) == 0b101
        assert relays_from_mask(0b101) == (1, 3)
        with pytest.raises(NetworkFormatError):
            mask_from_relays([0], 3)
        with pytest.raises(NetworkFormatError):
            mask_from_relays([4], 3)

    def test_relay_indices_may_be_numpy_integers(self):
        from hddiamond.network import mask_from_relays

        assert mask_from_relays(np.array([1, 3]), 3) == 0b101
        sub = gen_worst_case(3).subnetwork(np.array([1, 3]))
        assert sub.labels == (1, 3)
        with pytest.raises(NetworkFormatError):
            mask_from_relays([True], 3)

    def test_restrict_packs_the_kept_bits(self):
        from hddiamond import restrict_mask

        # keep relays 2, 3, 4: mask bits 1, 2, 3 become bits 0, 1, 2
        assert restrict_mask(0b1011, 0b1110) == 0b101
        assert restrict_mask(0b1011, 0b1111) == 0b1011
        assert restrict_mask(0b1011, 0) == 0
        for keep in range(1, 32):
            for mask in range(32):
                kept = [k for k in range(5) if keep >> k & 1]
                want = sum(1 << j for j, k in enumerate(kept) if mask >> k & 1)
                assert restrict_mask(mask, keep) == want


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------

class TestDiamondNetwork:
    def test_basic(self):
        net = DiamondNetwork((1, 2), (3, 4))
        assert net.n == 2
        assert net.uplink(1) == 1 and net.uplink(2) == 2
        assert net.downlink(1) == 3 and net.downlink(2) == 4
        assert net.labels == (1, 2)
        assert not net.has_unbounded

    def test_rejects_bad_links(self):
        with pytest.raises(NetworkFormatError):
            DiamondNetwork((-1,), (1,))
        with pytest.raises(NetworkFormatError):
            DiamondNetwork((float("nan"),), (1,))
        with pytest.raises(NetworkFormatError):
            DiamondNetwork((True,), (1,))
        with pytest.raises(NetworkFormatError):
            DiamondNetwork((), ())
        with pytest.raises(NetworkFormatError):
            DiamondNetwork((1, 2), (3,))

    def test_unbounded_flag(self):
        net = DiamondNetwork((UNBOUNDED, 1), (1, 2))
        assert net.has_unbounded

    def test_subnetwork_keeps_labels(self):
        net = DiamondNetwork((1, 2, 3), (4, 5, 6))
        sub = net.subnetwork((1, 3))
        assert sub.n == 2
        assert sub.uplinks == (1, 3) and sub.downlinks == (4, 6)
        assert sub.labels == (1, 3)
        subsub = sub.subnetwork((2,))
        assert subsub.labels == (3,)
        assert subsub.uplinks == (3,)

    def test_subnetwork_accepts_masks_and_strings(self):
        net = DiamondNetwork((1, 2, 3), (4, 5, 6))
        assert net.subnetwork(0b101).labels == (1, 3)
        assert net.subnetwork("101").labels == (1, 3)
        assert net.subnetwork(np.int64(0b101)).labels == (1, 3)

    def test_subset_that_is_no_mask_is_a_format_error(self):
        net = DiamondNetwork((1, 2, 3), (4, 5, 6))
        for bad in (True, False, np.True_, 1.0, None):
            with pytest.raises(NetworkFormatError):
                net.subnetwork(bad)
            with pytest.raises(NetworkFormatError):
                net.drop(bad)
            with pytest.raises(NetworkFormatError):
                hd.cut_state_value(net, bad, 0)
            with pytest.raises(NetworkFormatError):
                hd.cut_state_value(net, 0, bad)

    def test_drop(self):
        net = DiamondNetwork((1, 2, 3), (4, 5, 6))
        assert net.drop((2,)).labels == (1, 3)

    def test_substitute_unbounded(self):
        net = DiamondNetwork((UNBOUNDED, 1), (2, UNBOUNDED))
        swapped = net.substitute_unbounded(99)
        assert swapped.uplinks == (99, 1)
        assert swapped.downlinks == (2, 99)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

class TestSchedule:
    def test_exact_sum_must_be_one(self):
        Schedule(1, {0: F(1, 3), 1: F(2, 3)})
        with pytest.raises(NetworkFormatError):
            Schedule(1, {0: F(1, 3), 1: F(1, 3)})

    def test_float_sum_tolerance(self):
        Schedule(1, {0: 0.5, 1: 0.5 + 1e-12})
        with pytest.raises(NetworkFormatError):
            Schedule(1, {0: 0.5, 1: 0.6})

    def test_zero_probs_dropped(self):
        s = Schedule(2, {0: F(1), 3: F(0)})
        assert s.support == (0,)
        assert s.prob(3) == 0

    def test_from_strings(self):
        s = Schedule.from_strings({"01": F(1, 2), "10": F(1, 2)})
        assert s.n == 2
        assert s.prob(parse_mask("01")) == F(1, 2)

    def test_uniform(self):
        s = Schedule.uniform(2)
        assert s.support == (0, 1, 2, 3)
        assert s.prob(2) == F(1, 4)

    def test_marginalize(self):
        # relay 2 of 3 transmits with prob 1/2 regardless of the others
        s = Schedule(3, {0b010: F(1, 2), 0b101: F(1, 2)})
        m = derive_natural_schedule(s, (2,))
        assert m.n == 1
        assert m.prob(1) == F(1, 2) and m.prob(0) == F(1, 2)

    def test_marginalize_stages_compose(self):
        s = Schedule(3, {0b000: F(1, 4), 0b011: F(1, 4), 0b101: F(1, 4), 0b110: F(1, 4)})
        once = derive_natural_schedule(s, (1, 3))
        # keep relays 1 and 3, then relay 3 (position 2 of the sub-schedule)
        twice = derive_natural_schedule(once, (2,))
        direct = derive_natural_schedule(s, (3,))
        assert twice.probs == direct.probs


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

class TestGenerators:
    def test_links_from_gains_real_is_magnitude_squared(self):
        net = links_from_gains([3], [1])
        assert net.uplinks[0] == pytest.approx(2.0)  # log2(1 + 3)
        assert net.downlinks[0] == pytest.approx(1.0)

    def test_links_from_gains_complex(self):
        net = links_from_gains([complex(1, 0)], [complex(0, 1)])
        assert net.uplinks[0] == pytest.approx(1.0)  # log2(1 + 1)
        assert net.downlinks[0] == pytest.approx(1.0)

    def test_worst_case_structure(self):
        net = gen_worst_case(4)
        assert net.uplinks == (F(1, 2), F(1), F(1, 2), F(1))
        assert net.downlinks == (F(1), F(1, 2), F(1), F(1, 2))
        assert net.name == "worst-case-4"

    def test_worst_case_odd_appends_big_uplink(self):
        net = gen_worst_case(5)
        assert net.uplinks[-1] == UNBOUNDED
        assert net.downlinks[-1] == F(1, 5)
        finite = gen_worst_case(5, big_l=1000)
        assert finite.uplinks[-1] == 1000

    def test_half_tight_structure(self):
        net = gen_half_tight(3)
        assert net.uplinks == (F(1, 2), F(1, 2), UNBOUNDED)
        assert net.downlinks == (UNBOUNDED, UNBOUNDED, F(1, 2))

    def test_two_phase_examples(self):
        s2 = gen_two_phase_schedule(2)
        assert {render_mask(m, 2): p for m, p in s2.items()} == {"01": F(1, 2), "10": F(1, 2)}
        s3 = gen_two_phase_schedule(3)
        assert {render_mask(m, 3): p for m, p in s3.items()} == {"011": F(1, 2), "101": F(1, 2)}
        s4 = gen_two_phase_schedule(4)
        assert {render_mask(m, 4): p for m, p in s4.items()} == {"0011": F(1, 2), "1100": F(1, 2)}

    def test_gen_random_deterministic(self):
        a = gen_random(5, seed=42)
        b = gen_random(5, seed=42)
        assert a.uplinks == b.uplinks and a.downlinks == b.downlinks
        c = gen_random(5, seed=43)
        assert a.uplinks != c.uplinks

    def test_gen_random_rejects_a_bad_seed(self):
        for seed in (-1, 1.5, "3", None, True):
            with pytest.raises(NetworkFormatError):
                gen_random(3, seed=seed)

    def test_gen_random_range(self):
        net = gen_random(6, seed=0, capacity_range=(1.0, 2.0))
        assert all(1.0 <= v < 2.0 for v in net.uplinks + net.downlinks)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_value_json_roundtrip(self):
        assert value_to_json(UNBOUNDED) == "inf"
        assert value_from_json("inf") == UNBOUNDED
        assert value_to_json(F(1, 3)) == "1/3"
        assert value_from_json("1/3") == F(1, 3)
        # float-exact fractions travel as plain numbers
        assert value_to_json(F(1, 2)) == 0.5
        assert value_to_json(F(2, 1)) == 2
        assert value_from_json(0.5) == 0.5
        assert value_from_json(7) == 7
        # past the float range, a non-integer fraction travels as "p/q"
        huge = F(10**401 + 1, 2)
        assert value_to_json(huge) == f"{10**401 + 1}/2"
        assert value_from_json(value_to_json(huge)) == huge

    def test_network_roundtrip(self):
        net = DiamondNetwork((F(1, 3), UNBOUNDED), (2.5, 4), name="x")
        d = network_to_dict(net)
        back = network_from_dict(json.loads(json.dumps(d)))
        assert back.name == "x"
        assert back.uplinks == (F(1, 3), UNBOUNDED)
        assert back.downlinks == (2.5, 4)

    def test_parse_network_errors(self):
        with pytest.raises(NetworkFormatError):
            parse_network("not json")
        with pytest.raises(NetworkFormatError):
            parse_network('{"l": [1]}')
        with pytest.raises(NetworkFormatError):
            parse_network('{"l": [1], "r": [-2]}')

    def test_render_parse_roundtrip(self):
        net = gen_worst_case(5)
        back = parse_network(render_network(net))
        assert [float(v) for v in back.uplinks[:-1]] == [float(v) for v in net.uplinks[:-1]]
        assert math.isinf(back.uplinks[-1])

    def test_schedule_roundtrip(self):
        s = Schedule(3, {0b011: F(1, 2), 0b100: F(1, 2)})
        d = hd.schedule_to_dict(s)
        assert d["n"] == 3
        states = {e["state"]: e["prob"] for e in d["states"]}
        assert states == {"110": 0.5, "001": 0.5}
        back = hd.schedule_from_dict(json.loads(json.dumps(d)))
        assert back.probs == {0b011: 0.5, 0b100: 0.5}


# ---------------------------------------------------------------------------
# Public names
# ---------------------------------------------------------------------------

def test_public_names_are_the_module_lists():
    from hddiamond import capacity, errors, network, selection, simplex, submodular, verify

    modules = (capacity, errors, network, selection, simplex, submodular, verify)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(hd.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(hd, name) is getattr(module, name)
