"""Self-tests of the benchmark:  python3 -m pytest perfbench/test_bench.py"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hddiamond  # noqa: E402
import pytest  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    first = workloads.build(workload, 7)
    again = workloads.build(workload, 7)
    other = workloads.build(workload, 8)
    args = lambda items: [(i.call, i.args) for i in items]
    assert args(first) == args(again)
    assert args(first) != args(other)
    # another seed only reorders the same calls
    assert sorted(map(repr, args(first))) == sorted(map(repr, args(other)))


def _perturbed(sched, mass):
    probs = dict(sched.probs)
    src = max(probs, key=probs.get)
    dst = next(s for s in range(1 << sched.n) if s not in probs)
    probs[src] -= mass
    probs[dst] = mass
    return hddiamond.Schedule(sched.n, probs)


def test_check_rejects_float_errors():
    net = hddiamond.gen_random(7, 3)
    res = hddiamond.hd_capacity(net)
    assert check.check_capacity_float(net, res) is None
    off = dataclasses.replace(res, value=res.value + 1e-6)
    assert check.check_capacity_float(net, off) is not None
    bent = dataclasses.replace(res, optimal_schedule=_perturbed(res.optimal_schedule, 1e-3))
    assert check.check_capacity_float(net, bent) is not None


def test_check_rejects_exact_errors():
    net = hddiamond.gen_worst_case(5)
    res = hddiamond.hd_capacity(net, "rational")
    assert check.check_capacity_exact(net, res) is None
    off = dataclasses.replace(res, value=res.value + Fraction(1, 10**6))
    assert check.check_capacity_exact(net, off) is not None
    bent = dataclasses.replace(
        res, optimal_schedule=_perturbed(res.optimal_schedule, Fraction(1, 1000)))
    assert check.check_capacity_exact(net, bent) is not None


def test_check_rejects_rate_errors():
    item = next(i for i in workloads.build("rate-large", 1) if not i.args[1].is_exact)
    out = item.run()
    assert item.check(out) is None
    assert item.check(dataclasses.replace(out, value=out.value + 1e-6)) is not None
    net = hddiamond.gen_worst_case(12)
    sched = hddiamond.gen_two_phase_schedule(12)
    rate = hddiamond.fixed_schedule_rate(net, sched)
    fd = hddiamond.fd_capacity_fast(net)
    assert check.check_rate_exact(net, sched, rate, fd) is None
    off = dataclasses.replace(rate, value=rate.value - Fraction(1, 10**6))
    assert check.check_rate_exact(net, sched, off, fd) is not None


def test_check_rejects_selection_errors():
    net = hddiamond.gen_random(6, 5)
    intervals = check.game_interval
    for strategy, k in (("exhaustive", 3), ("iterative", 2)):
        rep = hddiamond.select_k(net, k, strategy)
        assert check.check_selection(net, strategy, k, rep, intervals) is None
        off = dataclasses.replace(rep, value=rep.value + 1e-6)
        assert check.check_selection(net, strategy, k, off, intervals) is not None
    rep = hddiamond.select_k(net, 3, "exhaustive")
    low = dataclasses.replace(rep, fraction=rep.fraction - 1e-6)
    assert check.check_selection(net, "exhaustive", 3, low, intervals) is not None


def _traced_counts(items):
    tracer = spans.Tracer()
    records, _, _ = run.traced_pass(items, tracer)
    assert all(v is None for v in run.certify(records))
    return {k: v for k, (v, _) in tracer.layer_metrics().items() if not k.endswith("_s")}


def test_traced_run_restores_package_and_repeats_counts():
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in spans.BOUNDARIES]
    items = workloads.build("select", 3)[:20] + workloads.build("solve-float", 3)[:20]
    first = _traced_counts(items)
    again = _traced_counts(items)
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr} not restored"
    assert first == again
    assert first["simplex.calls"] > 0 and first["selection.hd_per_call"] > 0
    assert first["capacity.lps_per_hd"] > 0


def test_rate_large_makes_no_lp():
    items = [i for i in workloads.build("rate-large", 2) if i.args[0].n <= 17]
    counts = _traced_counts(items)
    assert counts["simplex.calls"] == 0
    assert counts["capacity.rate_calls"] == len(items)
