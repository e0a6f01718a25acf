"""Write the float golden outputs that ``test_golden_float.py`` compares with.

    PYTHONPATH=src python tests/make_golden_float.py

``golden_float.json`` next to this script holds, one line per entry:

- float ``hd_capacity`` values of the random networks in
  :data:`SOLVE_NETS`;
- ``select_k`` selections, values and full values for every call of
  :func:`select_calls`.

The ``golden_sweep/`` directory holds the ``hddiamond sweep`` CSV of each
family for ``--n-range 2:12`` at ``--k 1``, ``2`` and ``best``.

The test compares values within ``AGREE * max(1, |v|)``, selections with
``==`` and the CSVs byte for byte.  A change that regenerates these files
must name the entries that moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import json
from pathlib import Path

from hddiamond import DiamondNetwork, gen_random, hd_capacity, select_k, value_to_json
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


def record_solve(net: DiamondNetwork) -> dict:
    return {"value": value_to_json(hd_capacity(net).value)}


def record_select(net: DiamondNetwork, k: int, strategy: str) -> dict:
    report = select_k(net, k, strategy)
    return {
        "selected": list(report.selected),
        "value": value_to_json(report.value),
        "full_value": value_to_json(report.full_value),
    }


def sweep_args(family: str, k: str) -> list[str]:
    return ["sweep", "--family", family, "--n-range", "2:12", "--k", k]


def sweep_path(family: str, k: str) -> Path:
    return SWEEPS / f"{family}_k{k}.csv"


def main() -> None:
    data = {name: record_solve(net) for name, net in solve_networks()}
    data.update((name, record_select(net, k, strategy))
                for name, net, k, strategy in select_calls())
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
