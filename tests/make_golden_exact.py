"""Write the exact golden outputs that ``test_golden_exact.py`` compares with.

    PYTHONPATH=src python tests/make_golden_exact.py

For each network of :func:`golden_networks` it solves ``hd_capacity`` in
rational arithmetic and records the value, the schedule's probabilities and
the tight cuts as exact strings in ``golden_exact.json`` next to this
script.  A change that regenerates the file must name the entries that
moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from hddiamond import DiamondNetwork, gen_half_tight, gen_random, gen_worst_case, hd_capacity

GOLDEN = Path(__file__).resolve().parent / "golden_exact.json"


def _cut_links(net: DiamondNetwork) -> DiamondNetwork:
    """The same network with every link cut to a denominator <= 100."""
    cut = lambda v: Fraction(v).limit_denominator(100)
    return DiamondNetwork(tuple(map(cut, net.uplinks)), tuple(map(cut, net.downlinks)))


def golden_networks() -> list[tuple[str, DiamondNetwork]]:
    """(name, network): the hard families and small random nets with exact links."""
    nets = [(f"gen_worst_case({n})", gen_worst_case(n)) for n in range(5, 11)]
    nets += [(f"gen_half_tight({n})", gen_half_tight(n)) for n in (4, 6, 8, 10)]
    nets += [(f"gen_random({n}, {u})", _cut_links(gen_random(n, u)))
             for n in (4, 5) for u in range(5)]
    return nets


def record(net: DiamondNetwork) -> dict:
    """The rational solve of ``net`` as exact strings."""
    res = hd_capacity(net, "rational")
    return {
        "value": str(res.value),
        "schedule": [[mask, str(p)] for mask, p in res.optimal_schedule.probs.items()],
        "tight_cuts": list(res.tight_cuts),
    }


def main() -> None:
    data = {name: record(net) for name, net in golden_networks()}
    # One line per network, so a diff names the entries that moved.
    lines = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in data.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(data)} entries to {GOLDEN}")


if __name__ == "__main__":
    main()
