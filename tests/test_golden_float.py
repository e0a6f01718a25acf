"""Float ``hd_capacity``, ``select_k``, ``fixed_schedule_rate`` and ``sweep``
against committed outputs.

``golden_float.json`` and ``golden_sweep/`` were written by
``make_golden_float.py``.  Capacity values must agree within ``AGREE *
max(1, |v|)``, selections and rates must come back ``==`` and the sweep
CSVs byte for byte.
"""

import json

import pytest

from hddiamond import value_from_json
from hddiamond._tolerance import AGREE
from hddiamond.cli import main as cli_main
from make_golden_float import (
    GOLDEN,
    SWEEP_FAMILIES,
    SWEEP_KS,
    rate_calls,
    record_rate,
    record_select,
    record_solve,
    select_calls,
    solve_networks,
    sweep_args,
    sweep_path,
)

EXPECTED = json.loads(GOLDEN.read_text())
SOLVES = solve_networks()
SELECTS = select_calls()
RATES = rate_calls()


def _agrees(got, want) -> bool:
    got, want = value_from_json(got), value_from_json(want)
    return got == want or abs(got - want) <= AGREE * max(1.0, abs(want))


def test_covers_every_call():
    assert sorted(EXPECTED) == sorted([name for name, _ in SOLVES]
                                      + [name for name, *_ in SELECTS]
                                      + [name for name, *_ in RATES])


@pytest.mark.parametrize("name,net", SOLVES, ids=[name for name, _ in SOLVES])
def test_solve_matches_golden(name, net):
    assert _agrees(record_solve(net)["value"], EXPECTED[name]["value"])


@pytest.mark.parametrize("name,net,k,strategy", SELECTS, ids=[name for name, *_ in SELECTS])
def test_select_matches_golden(name, net, k, strategy):
    got, want = record_select(net, k, strategy), EXPECTED[name]
    assert got["selected"] == want["selected"]
    assert _agrees(got["value"], want["value"])
    assert _agrees(got["full_value"], want["full_value"])


@pytest.mark.parametrize("name,net,sched", RATES, ids=[name for name, *_ in RATES])
def test_rate_matches_golden(name, net, sched):
    # The value and the lowest minimizing cut are both canonical.
    assert record_rate(net, sched) == EXPECTED[name]


@pytest.mark.parametrize("family", SWEEP_FAMILIES)
@pytest.mark.parametrize("k", SWEEP_KS)
def test_sweep_matches_golden(family, k, tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli_main(sweep_args(family, k) + ["--out", str(out)]) == 0
    assert out.read_bytes() == sweep_path(family, k).read_bytes()
