"""Self-verification suites: every suite green, reproducible reports."""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from hddiamond import SUITES, GuardExceeded, SuiteReport, run_suite

FAST = dict(trials=8, seed=0, n_max=4)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_green(suite):
    rep = run_suite(suite, **FAST)
    assert rep.suite == suite
    assert rep.instances > 0
    assert rep.passes == rep.instances
    assert rep.ok
    assert rep.failures == []
    assert rep.seconds >= 0


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nonsense")


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_no_trials_raises(suite):
    # No instances means no failures: the report would pass vacuously.
    for trials in (0, -3):
        with pytest.raises(ValueError):
            run_suite(suite, trials=trials, seed=0, n_max=4)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_negative_seed_raises(suite):
    with pytest.raises(ValueError):
        run_suite(suite, trials=1, seed=-1, n_max=4)


def test_n_max_past_the_lp_guard(monkeypatch):
    import hddiamond.verify

    monkeypatch.setenv("HDDIAMOND_LP_GUARD", "5")
    # At the guard, and for the suites with no 2^n work, nothing is refused.
    assert run_suite("lemma5", trials=1, seed=0, n_max=5).ok
    assert run_suite("lemma3", trials=1, seed=0, n_max=40).ok

    def refuse(*args, **kwargs):
        raise AssertionError("a network was drawn before the size guard")

    monkeypatch.setattr(hddiamond.verify, "_random_net", refuse)
    for suite in ("partition", "lemma5", "guarantees", "sparsify", "edge-delta"):
        with pytest.raises(GuardExceeded):
            run_suite(suite, trials=1, seed=0, n_max=6)


def test_closed_forms_compare_exactly(monkeypatch):
    import hddiamond.verify

    real = hddiamond.verify.select_k_exhaustive

    def nudged(*args, **kwargs):
        rep = real(*args, **kwargs)
        return replace(rep, fraction=rep.fraction - F(1, 10**12))

    monkeypatch.setattr(hddiamond.verify, "select_k_exhaustive", nudged)
    fig2 = run_suite("fig2", trials=1)
    assert len(fig2.failures) == fig2.instances == 9
    theorem3 = run_suite("theorem3", trials=1)
    assert [f["instance"] for f in theorem3.failures] == [
        f"t={t}(n={4 * t - 2})" for t in range(1, 6)
    ]


def test_reports_reproducible():
    a = run_suite("guarantees", trials=5, seed=11, n_max=4).to_dict()
    b = run_suite("guarantees", trials=5, seed=11, n_max=4).to_dict()
    a.pop("seconds"), b.pop("seconds")
    assert a == b


def test_different_seeds_differ():
    a = run_suite("partition", trials=3, seed=1, n_max=4)
    b = run_suite("partition", trials=3, seed=2, n_max=4)
    assert a.ok and b.ok  # both pass; they just saw different instances
    assert a.instances == b.instances == 3


def test_report_records_failures():
    rep = SuiteReport("demo")
    rep.record("good", True, 1, 1)
    rep.record("bad", False, 1, 2)
    assert not rep.ok
    assert rep.instances == 2 and rep.passes == 1
    assert rep.failures == [{"instance": "bad", "expected": "1", "got": "2"}]
    d = rep.to_dict()
    assert d["suite"] == "demo" and d["passes"] == 1


def test_trials_scale_instance_count():
    rep = run_suite("lemma5", trials=12, seed=0, n_max=3)
    assert rep.instances == 12


def test_sparsify_solves_each_trial_once(monkeypatch):
    # One float solve per instance gives both the rate and the sparse
    # schedule.  A rational fallback would add its own solves; at seed 0
    # every float schedule is already on at most n + 1 states.
    import hddiamond.capacity

    calls = []
    real = hddiamond.capacity._solve

    def counting(net, exact, *args, **kwargs):
        calls.append(exact)
        return real(net, exact, *args, **kwargs)

    monkeypatch.setattr(hddiamond.capacity, "_solve", counting)
    rep = run_suite("sparsify", trials=10, seed=0, n_max=8)
    assert rep.ok and rep.instances == 10
    assert calls == [False] * 10
