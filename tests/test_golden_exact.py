"""Rational ``hd_capacity`` against committed exact outputs.

``golden_exact.json`` was written by ``make_golden_exact.py``; every value,
schedule probability and tight cut must come back ``==``.
"""

import json
from fractions import Fraction

import pytest

from make_golden_exact import GOLDEN, golden_networks, record

EXPECTED = json.loads(GOLDEN.read_text())
NETWORKS = golden_networks()


def test_covers_every_network():
    assert sorted(EXPECTED) == sorted(name for name, _ in NETWORKS)


@pytest.mark.parametrize("name,net", NETWORKS, ids=[name for name, _ in NETWORKS])
def test_matches_golden(name, net):
    got, want = record(net), EXPECTED[name]
    assert Fraction(got["value"]) == Fraction(want["value"])
    assert [(m, Fraction(p)) for m, p in got["schedule"]] == [
        (m, Fraction(p)) for m, p in want["schedule"]
    ]
    assert got["tight_cuts"] == want["tight_cuts"]
    assert len(got["schedule"]) <= net.n + 1
