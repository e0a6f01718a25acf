"""Write the float golden outputs that ``test_golden_float.py`` compares with.

    PYTHONPATH=src python tests/make_golden_float.py

``golden_float.json`` next to this script holds, one line per entry:

- float ``hd_capacity`` values of the random networks in
  :data:`SOLVE_NETS`;
- ``select_k`` selections, values and full values for every call of
  :func:`select_calls`;
- ``fixed_schedule_rate`` values and minimizing cuts for every call of
  :func:`rate_calls`.

The ``golden_sweep/`` directory holds the ``hddiamond sweep`` CSV of each
family for ``--n-range 2:12`` at ``--k 1``, ``2`` and ``best``.

The test compares capacity values within ``AGREE * max(1, |v|)``,
selections and rates (value and lowest minimizing cut, both canonical)
with ``==`` and the CSVs byte for byte.  A change that regenerates these files
must name the entries that moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from hddiamond import (
    DiamondNetwork,
    Schedule,
    fixed_schedule_rate,
    gen_random,
    gen_two_phase_schedule,
    gen_worst_case,
    hd_capacity,
    select_k,
    value_to_json,
)
from hddiamond.capacity import _exact_links
from hddiamond.cli import main as cli_main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_float.json"
SWEEPS = HERE / "golden_sweep"

#: Random networks solved in float, as (relay count, how many): the nets
#: ``gen_random(n, u)`` for u = 0, 1, ...
SOLVE_NETS = ((6, 12), (7, 12), (8, 12), (9, 24), (10, 12), (11, 12), (12, 12))
#: Selection runs every strategy on two nets per relay count, split by the
#: parity of k, and worst-drop and iterative at every k on LIGHT more nets;
#: schedule-reuse (k = n-1 only) runs on each net.
SELECT_N = (6, 7, 8, 9)
LIGHT = {6: 2, 7: 2}
#: Rates: the float random nets of the benchmark's ``rate-large`` corpus
#: under its seeded schedules, the two-phase rates of the hard family
#: on its exact links and on their float roundings, and the uniform schedule
#: over all 2^n states on float and exact links.
RATE_FLOAT_NETS = ((16, 20), (17, 14), (18, 4), (19, 2), (20, 8))
RATE_WORST_CASE_N = (12, 14, 16, 18, 40, 60)
RATE_UNIFORM_N = (8, 10)
SWEEP_FAMILIES = ("worst-case", "half-tight")
SWEEP_KS = ("1", "2", "best")


def solve_networks() -> list[tuple[str, DiamondNetwork]]:
    return [(f"gen_random({n}, {u})", gen_random(n, u))
            for n, count in SOLVE_NETS for u in range(count)]


def select_calls() -> list[tuple[str, DiamondNetwork, int, str]]:
    """(name, network, k, strategy) for every selection call."""
    calls = []
    for n in SELECT_N:
        for u in range(2 + LIGHT.get(n, 0)):
            net = gen_random(n, u)
            runs = [("schedule-reuse", n - 1)]
            if u < 2:
                runs += [(strategy, k) for strategy in ("worst-drop", "iterative", "exhaustive")
                         for k in range(1, n + 1) if k % 2 != u]
            else:
                runs += [(strategy, k) for strategy in ("worst-drop", "iterative")
                         for k in range(1, n + 1)]
            calls += [(f"select_k(gen_random({n}, {u}), {k}, {strategy!r})", net, k, strategy)
                      for strategy, k in runs]
    return calls


def drawn_schedule(n: int, index: int) -> Schedule:
    """The seeded schedule of the ``rate-large`` corpus's float rate number
    ``index``: a random schedule on at most n + 1 states."""
    rng = np.random.default_rng(index)
    k = int(rng.integers(1, n + 2))
    states = rng.choice(1 << n, size=k, replace=False)
    probs = rng.dirichlet(np.ones(k))
    return Schedule(n, {int(s): float(p) for s, p in zip(states, probs)})


def _float_links(net: DiamondNetwork) -> DiamondNetwork:
    return DiamondNetwork(tuple(map(float, net.uplinks)), tuple(map(float, net.downlinks)))


def rate_calls() -> list[tuple[str, DiamondNetwork, Schedule]]:
    """(name, network, schedule) for every recorded rate."""
    nets = [(n, u) for n, count in RATE_FLOAT_NETS for u in range(count)]
    calls = [(f"fixed_schedule_rate(gen_random({n}, {u}), drawn({i}))",
              gen_random(n, u), drawn_schedule(n, i)) for i, (n, u) in enumerate(nets)]
    for n in RATE_WORST_CASE_N:
        net, sched = gen_worst_case(n), gen_two_phase_schedule(n)
        calls += [(f"fixed_schedule_rate(gen_worst_case({n}), two-phase)", net, sched),
                  (f"fixed_schedule_rate(float gen_worst_case({n}), two-phase)",
                   _float_links(net), Schedule(n, {s: float(p) for s, p in sched.items()}))]
    for n in RATE_UNIFORM_N:
        net = gen_random(n, 0)
        calls += [(f"fixed_schedule_rate(gen_random({n}, 0), uniform)", net, Schedule.uniform(n)),
                  (f"fixed_schedule_rate(exact gen_random({n}, 0), uniform)",
                   _exact_links(net), Schedule.uniform(n))]
    return calls


def record_solve(net: DiamondNetwork) -> dict:
    return {"value": value_to_json(hd_capacity(net).value)}


def record_select(net: DiamondNetwork, k: int, strategy: str) -> dict:
    report = select_k(net, k, strategy)
    return {
        "selected": list(report.selected),
        "value": value_to_json(report.value),
        "full_value": value_to_json(report.full_value),
    }


def record_rate(net: DiamondNetwork, sched: Schedule) -> dict:
    rate = fixed_schedule_rate(net, sched)
    return {"value": value_to_json(rate.value), "min_cut": rate.min_cut}


def sweep_args(family: str, k: str) -> list[str]:
    return ["sweep", "--family", family, "--n-range", "2:12", "--k", k]


def sweep_path(family: str, k: str) -> Path:
    return SWEEPS / f"{family}_k{k}.csv"


def main() -> None:
    data = {name: record_solve(net) for name, net in solve_networks()}
    data.update((name, record_select(net, k, strategy))
                for name, net, k, strategy in select_calls())
    data.update((name, record_rate(net, sched)) for name, net, sched in rate_calls())
    # One line per entry, so a diff names the entries that moved.
    lines = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in data.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(data)} entries to {GOLDEN}")
    SWEEPS.mkdir(exist_ok=True)
    for family in SWEEP_FAMILIES:
        for k in SWEEP_KS:
            path = sweep_path(family, k)
            if cli_main(sweep_args(family, k) + ["--out", str(path)]) != 0:
                raise SystemExit(f"sweep {family} --k {k} failed")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
