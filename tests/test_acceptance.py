"""Acceptance gate: eight end-to-end criteria, one PASS/FAIL line each.

Tolerances are pinned and must not be loosened: 1e-9 for regression values
the generated families are known to hit exactly, 1e-6 when two independent
oracles are compared in float arithmetic, and outright equality whenever
both sides are exact rationals.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from hddiamond import (
    UNBOUNDED,
    DiamondNetwork,
    Schedule,
    check_complement_duality,
    check_cut_completion_bound,
    check_kwise_intersection_inequality,
    check_threshold_sum_inequality,
    derive_natural_schedule,
    drop_worst,
    fd_capacity,
    fd_capacity_fast,
    fixed_schedule_rate,
    gen_half_tight,
    gen_random,
    gen_two_phase_schedule,
    gen_worst_case,
    hd_capacity,
    invert_mask,
    is_submodular,
    max_weight_function,
    select_drop_one_schedule_reuse,
    select_k_exhaustive,
    select_k_iterative,
    single_relay_capacity,
    sparsify_schedule,
)

from conftest import record_acceptance
from oracles import dual_capacity, fd_mismatch

TOL_REGRESSION = 1e-9
TOL_CROSS = 1e-6
TOL_PROPERTY = 1e-8


def _verdict(num: int, failures: list, summary: str) -> None:
    if failures:
        record_acceptance(
            f"ACCEPTANCE {num}: FAIL — {len(failures)} violation(s); first: {failures[0]}"
        )
    else:
        record_acceptance(f"ACCEPTANCE {num}: PASS — {summary}")
    assert not failures, failures[:5]


def _random_rational_net(rng: np.random.Generator, n: int, den: int = 64) -> DiamondNetwork:
    raw = gen_random(n, seed=int(rng.integers(0, 2**31)))
    return DiamondNetwork(
        tuple(F(v).limit_denominator(den) for v in raw.uplinks),
        tuple(F(v).limit_denominator(den) for v in raw.downlinks),
    )


def test_criterion_1_hard_family_full_value_and_drop_one():
    """Hard even/odd family, N = 2..10: capacity 1 and best drop-one
    fraction (N-1)/N, under two minutes end to end."""
    start = time.perf_counter()
    failures = []
    for n in range(2, 11):
        net = gen_worst_case(n)
        cap = hd_capacity(net).value
        if abs(cap - 1.0) > TOL_REGRESSION:
            failures.append(f"n={n}: capacity {cap} != 1")
            continue
        best = select_k_exhaustive(net, n - 1)
        want = (n - 1) / n
        if abs(float(best.fraction) - want) > TOL_REGRESSION:
            failures.append(f"n={n}: drop-one fraction {best.fraction} != {n - 1}/{n}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"took {elapsed:.1f}s, budget is 120s")
    _verdict(1, failures, f"9 sizes, capacity 1 and (N-1)/N drop-one fractions in {elapsed:.1f}s")


def test_criterion_2_half_tight_family():
    """Mirrored family, N = 2..8: losing the mirrored relay halves the
    value exactly; keeping it with any one partner keeps everything."""
    failures = []
    for n in range(2, 9):
        net = gen_half_tight(n)
        full = hd_capacity(net, "rational").value
        if full != 1:
            failures.append(f"n={n}: full value {full} != 1")
            continue
        rep = drop_worst(net, n - 1, force_remove=[n], arithmetic="rational")
        if rep.fraction != F(1, 2):
            failures.append(f"n={n}: fraction after forced removal {rep.fraction} != 1/2")
        if rep.bound is not None:
            failures.append(f"n={n}: forced removal still reports bound {rep.bound}")
        for i in range(1, n):
            pair = net.subnetwork((i, n))
            exact = hd_capacity(pair, "rational").value
            if exact != 1:
                failures.append(f"n={n}: pair ({i},{n}) exact value {exact} != 1")
            finite = hd_capacity(pair.substitute_unbounded(10**6)).value
            if finite < 1 - TOL_CROSS:
                failures.append(
                    f"n={n}: pair ({i},{n}) with big-L=1e6 gives {finite} < 1-1e-6"
                )
    _verdict(2, failures, "7 sizes: forced drop -> exactly 1/2, every kept pair -> 1")


def test_criterion_3_shrinking_subset_fractions():
    """Sizes N = 4t-2: best single relay keeps t/(4t-2), best pair keeps
    t/(2t-1); past the LP comfort zone the full value is pinned by the
    exact schedule/cut sandwich instead."""
    failures = []
    for t in (1, 2, 3):
        n = 4 * t - 2
        net = gen_worst_case(n)
        cap = hd_capacity(net).value
        if abs(cap - 1.0) > TOL_REGRESSION:
            failures.append(f"t={t}: full value {cap} != 1")
            continue
        f1 = select_k_exhaustive(net, 1).fraction
        f2 = select_k_exhaustive(net, 2).fraction
        want1, want2 = F(t, 4 * t - 2), F(t, 2 * t - 1)
        if abs(float(f1) - float(want1)) > TOL_REGRESSION:
            failures.append(f"t={t}: best-1 fraction {f1} != {want1}")
        if abs(float(f2) - float(want2)) > TOL_REGRESSION:
            failures.append(f"t={t}: best-2 fraction {f2} != {want2}")
    for n in (14, 18, 60):
        net = gen_worst_case(n)
        lower = fixed_schedule_rate(net, gen_two_phase_schedule(n)).value
        upper = fd_capacity_fast(net)
        if not (lower == 1 == upper):
            failures.append(f"n={n}: sandwich gave [{lower}, {upper}], not [1, 1]")
    _verdict(3, failures, "closed-form fractions at N=2,6,10; exact sandwich pins N=14,18,60")


def test_criterion_4_guarantee_battery():
    """>= 500 seeded random networks, n in 2..6: every proven floor holds
    with zero violations at 1e-8."""
    failures = []
    rng = np.random.default_rng(20240819)
    nets = []
    for _ in range(500):
        n = int(rng.integers(2, 7))
        nets.append(gen_random(n, seed=int(rng.integers(0, 2**31))))

    for idx, net in enumerate(nets):
        n = net.n
        tag = f"net{idx:03d}(n={n})"
        # best drop-one subnetwork keeps at least half
        ex = select_k_exhaustive(net, n - 1)
        if float(ex.fraction) < 0.5 - TOL_PROPERTY:
            failures.append(f"{tag}: drop-one capacity fraction {ex.fraction} < 1/2")
        # reused-schedule drop-one rate keeps at least (n-1)/n
        sr = select_drop_one_schedule_reuse(net)
        if float(sr.fraction) < (n - 1) / n - TOL_PROPERTY:
            failures.append(f"{tag}: schedule-reuse fraction {sr.fraction} < {n-1}/{n}")
        for k in range(1, n + 1):
            wd = drop_worst(net, k)
            if float(wd.fraction) < float(wd.bound) - TOL_PROPERTY:
                failures.append(f"{tag}: worst-drop k={k} fraction {wd.fraction} < {wd.bound}")
            it = select_k_iterative(net, k)
            if float(it.fraction) < k / n - TOL_PROPERTY:
                failures.append(f"{tag}: iterative k={k} fraction {it.fraction} < {k}/{n}")
        # removing relay i costs at most min(uplink_i, downlink_i)
        cap = hd_capacity(net).value
        for i in range(1, n + 1):
            delta = min(net.uplinks[i - 1], net.downlinks[i - 1])
            sub = hd_capacity(net.drop((i,))).value
            if sub < cap - delta - TOL_PROPERTY:
                failures.append(f"{tag}: dropping {i} lost more than {delta}")
        if failures:
            break  # one violation sinks the criterion; no need to grind on

    # leave-one-out rate sums: >= 100 random schedules
    if not failures:
        for trial in range(100):
            n = int(rng.integers(2, 7))
            net = gen_random(n, seed=int(rng.integers(0, 2**31)))
            weights = rng.dirichlet(np.ones(1 << n))
            sched = Schedule(n, {s: float(p) for s, p in enumerate(weights)})
            full = fixed_schedule_rate(net, sched).value
            total = 0.0
            for i in range(1, n + 1):
                keep = [p for p in range(1, n + 1) if p != i]
                total += fixed_schedule_rate(
                    net.subnetwork(keep), derive_natural_schedule(sched, keep)
                ).value
            if total < (n - 1) * full - TOL_PROPERTY:
                failures.append(
                    f"schedule trial {trial}: leave-one-out sum {total} < {(n-1)*full}"
                )
                break

    # partition subadditivity, all splits, nets with n <= 5
    if not failures:
        checked = 0
        for idx, net in enumerate(nets):
            n = net.n
            if n > 5 or checked >= 60:
                continue
            checked += 1
            weights = rng.dirichlet(np.ones(1 << n))
            sched = Schedule(n, {s: float(p) for s, p in enumerate(weights)})
            full_rate = fixed_schedule_rate(net, sched).value
            caps = {}
            for mask in range(1, 1 << n):
                caps[mask] = hd_capacity(net.subnetwork(mask)).value
            full_cap = caps[(1 << n) - 1]
            for mask in range(1, (1 << n) - 1):
                comp = invert_mask(mask, n)
                rate_parts = (
                    fixed_schedule_rate(
                        net.subnetwork(mask), derive_natural_schedule(sched, mask)
                    ).value
                    + fixed_schedule_rate(
                        net.subnetwork(comp), derive_natural_schedule(sched, comp)
                    ).value
                )
                if full_rate > rate_parts + TOL_PROPERTY:
                    failures.append(f"net{idx:03d}: rate split {mask:0{n}b} violated")
                    break
                if full_cap > caps[mask] + caps[comp] + TOL_PROPERTY:
                    failures.append(f"net{idx:03d}: capacity split {mask:0{n}b} violated")
                    break
            if failures:
                break

    _verdict(4, failures, "500-network floor battery, 100 schedule sums, all partitions clean")


def test_criterion_5_oracle_equivalences():
    """Independent routes to the same numbers: game primal vs dual, dense
    vs threshold-scan FD min-cut, rational vs float, LP vs closed form."""
    failures = []
    rng = np.random.default_rng(555)

    for trial in range(200):
        n = int(rng.integers(2, 7))
        net = gen_random(n, seed=int(rng.integers(0, 2**31)))
        hd = hd_capacity(net).value
        du = dual_capacity(net).value
        if abs(hd - du) > TOL_CROSS:
            failures.append(f"dual trial {trial}: |{hd} - {du}| > 1e-6")
            break

    if not failures:
        for trial in range(1000):
            n = int(rng.integers(1, 13))
            net = gen_random(n, seed=int(rng.integers(0, 2**31)))
            if (mismatch := fd_mismatch(net)) is not None:
                failures.append(f"fd trial {trial}: threshold scan != dense on n={n}: {mismatch}")
                break

    if not failures:
        for trial in range(50):
            n = int(rng.integers(2, 6))
            net = _random_rational_net(rng, n)
            exact = hd_capacity(net, "rational").value
            approx = hd_capacity(net, "float").value
            if abs(float(exact) - approx) > TOL_CROSS:
                failures.append(f"rational trial {trial}: |{exact} - {approx}| > 1e-6")
                break

    if not failures:
        singles = [
            (F(1), F(1, 2)),
            (F(2, 5), F(14, 5)),
            (F(7), F(7)),
            (0, 3),
            (UNBOUNDED, F(3, 4)),
            (F(3, 4), UNBOUNDED),
            (UNBOUNDED, UNBOUNDED),
        ] + [
            (F(int(rng.integers(0, 50))) / 7, F(int(rng.integers(1, 50))) / 9)
            for _ in range(20)
        ]
        for l, r in singles:
            got = hd_capacity(DiamondNetwork((l,), (r,)), "rational").value
            want = single_relay_capacity(l, r)
            if got != want:
                failures.append(f"single relay ({l},{r}): {got} != {want}")
        for _ in range(30):
            l, r = float(rng.uniform(0, 4)), float(rng.uniform(0, 4))
            got = hd_capacity(DiamondNetwork((l,), (r,))).value
            want = single_relay_capacity(l, r)
            if abs(got - want) > TOL_CROSS:
                failures.append(f"single relay float ({l},{r}): {got} != {want}")
    _verdict(5, failures, "dual=primal x200, threshold=dense x1000, rational=float x50, closed form")


def test_criterion_6_submodular_machinery():
    """The max-weight rearrangement engine: pinned worked example,
    exhaustive small families, and a 500-instance random battery."""
    failures = []

    f = max_weight_function({i: i for i in range(1, 8)})
    chk = check_threshold_sum_inequality(f, [{1, 2, 5, 7}, {4, 5}, {2, 4, 5, 6}])
    if not (chk.holds and chk.lhs == 18 and chk.rhs == 17):
        failures.append(f"worked example: lhs={chk.lhs}, rhs={chk.rhs}, want 18/17")

    # exhaustive n=3: every combination of per-relay leave-one-out cuts
    rng = np.random.default_rng(66)
    net3 = gen_random(3, seed=123)
    options = [
        [frozenset()] + [frozenset(s) for s in ({2}, {3}, {2, 3})],
        [frozenset()] + [frozenset(s) for s in ({1}, {3}, {1, 3})],
        [frozenset()] + [frozenset(s) for s in ({1}, {2}, {1, 2})],
    ]
    combos = 0
    for c1 in options[0]:
        for c2 in options[1]:
            for c3 in options[2]:
                combos += 1
                fam = (c1, c2, c3)
                chk = check_cut_completion_bound(net3, fam)
                if not chk.holds:
                    failures.append(f"completion bound failed on {fam}")
                if not check_complement_duality(fam, 3):
                    failures.append(f"complement duality failed on {fam}")
    if combos != 64:
        failures.append(f"expected 64 exhaustive families, saw {combos}")

    # random battery: >= 500 instances across the machinery
    instances = 0
    for trial in range(200):  # threshold-sum rearrangement
        ground = list(range(1, int(rng.integers(2, 9))))
        weights = {x: float(rng.uniform(0, 5)) for x in ground}
        fam = [
            frozenset(x for x in ground if rng.random() < 0.5)
            for _ in range(int(rng.integers(1, 6)))
        ]
        if not check_threshold_sum_inequality(max_weight_function(weights), fam).holds:
            failures.append(f"threshold-sum violated on trial {trial}")
            break
        instances += 1
    for trial in range(150):  # k-wise exchange step
        ground = list(range(1, 8))
        weights = {x: float(rng.uniform(0, 5)) for x in ground}
        m = int(rng.integers(1, 5))
        fam = [frozenset(x for x in ground if rng.random() < 0.5) for _ in range(m)]
        extra = frozenset(x for x in ground if rng.random() < 0.5)
        k = int(rng.integers(0, m))
        if not check_kwise_intersection_inequality(
            max_weight_function(weights), fam, extra, k
        ).holds:
            failures.append(f"exchange step violated on trial {trial}")
            break
        instances += 1
    for trial in range(100):  # max-of-weights really is submodular
        ground = list(range(int(rng.integers(2, 7))))
        weights = {x: float(rng.uniform(0, 5)) for x in ground}
        if not is_submodular(max_weight_function(weights), ground).holds:
            failures.append(f"submodularity violated on trial {trial}")
            break
        instances += 1
    for trial in range(100):  # cut completion on random networks
        n = int(rng.integers(2, 7))
        net = gen_random(n, seed=int(rng.integers(0, 2**31)))
        fam = []
        for i in range(1, n + 1):
            others = [x for x in range(1, n + 1) if x != i]
            fam.append(frozenset(x for x in others if rng.random() < 0.5))
        if not check_cut_completion_bound(net, fam).holds:
            failures.append(f"cut completion violated on trial {trial}")
            break
        if not check_complement_duality(fam, n):
            failures.append(f"complement duality violated on trial {trial}")
            break
        instances += 1
    if instances < 500 and not failures:
        failures.append(f"only {instances} random instances, need >= 500")
    _verdict(6, failures, f"18>=17 pinned, 64 exhaustive families, {instances} random instances")


def test_criterion_7_sparse_schedules():
    """>= 50 random networks, n in 2..4: a schedule on at most n+1 states
    achieves the capacity within 1e-8."""
    failures = []
    rng = np.random.default_rng(77)
    for trial in range(50):
        n = int(rng.integers(2, 5))
        net = gen_random(n, seed=int(rng.integers(0, 2**31)))
        cap = hd_capacity(net).value
        sched = sparsify_schedule(net)
        if sched is None:
            failures.append(f"trial {trial} (n={n}): no sparse schedule found")
            break
        if len(sched.support) > n + 1:
            failures.append(f"trial {trial}: support {len(sched.support)} > {n + 1}")
            break
        rate = fixed_schedule_rate(net, sched).value
        if rate < cap - TOL_PROPERTY:
            failures.append(f"trial {trial}: sparse rate {rate} < capacity {cap}")
            break
    _verdict(7, failures, "50 networks: <= n+1 states at full capacity")


def test_criterion_8_worked_networks():
    """Two pinned example networks: selection flips between duplex modes,
    and an unbounded-downlink relay is worth exactly its uplink."""
    failures = []

    net2 = DiamondNetwork((F(1), F(2, 5)), (F(1, 2), F(14, 5)))
    hd_best = select_k_exhaustive(net2, 1, arithmetic="rational")
    if hd_best.selected != (2,) or hd_best.value != F(7, 20):
        failures.append(
            f"2-relay HD best: relay {hd_best.selected} value {hd_best.value}, want relay 2 at 7/20"
        )
    fd_singles = {
        i: fd_capacity(net2.subnetwork((i,))).value for i in (1, 2)
    }
    fd_relay = max(fd_singles, key=lambda i: fd_singles[i])
    if fd_relay != 1 or fd_singles[1] != F(1, 2):
        failures.append(f"2-relay FD best: relay {fd_relay} value {fd_singles[fd_relay]}, want relay 1 at 1/2")

    for c in (F(3, 4), F(2), F(5, 3)):
        net3 = DiamondNetwork((c, c, c), (c, c, UNBOUNDED))
        rep = select_k_exhaustive(net3, 1, arithmetic="rational")
        if rep.selected != (3,) or rep.value != c:
            failures.append(
                f"3-relay (c={c}): best single {rep.selected} value {rep.value}, want relay 3 at {c}"
            )
    _verdict(8, failures, "2-relay HD/FD selections and 3-relay unbounded-downlink pin")
