"""Diamond relay networks with half-duplex relays.

A diamond network carries one source's traffic through ``n`` parallel,
non-interfering relays to one destination (no direct source-destination
link).  Relay ``i`` can take in at most ``uplinks[i-1]`` bits per channel
use from the source and can push at most ``downlinks[i-1]`` to the
destination.  A half-duplex relay does only one of the two at a time, so the
whole network hops between ``2**n`` listen/transmit configurations
("states"), and a schedule is a probability distribution over those states.

Link capacities are nonnegative ``int``/``float``/``Fraction`` values, or
:data:`UNBOUNDED` (``math.inf``) for a link so strong it can never be the
bottleneck.

Bit conventions used across the package:

* relay ``i`` (1-based) <-> bit ``i - 1`` of a mask;
* a *state* mask has bit ``i-1`` set when relay ``i`` transmits, clear when
  it listens;
* a *cut* mask has bit ``i-1`` set when relay ``i`` is counted on the
  destination side of the cut;
* rendered mask strings read left to right as relay 1..n, so ``"011"``
  means relay 1 listening and relays 2 and 3 transmitting.  (Note this is
  the reverse of ``format(mask, "b")``, which puts the high bit first.)
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from ._tolerance import AGREE, _is_exact, below
from .errors import NetworkFormatError

__all__ = [
    "UNBOUNDED",
    "LinkValue",
    "DiamondNetwork",
    "Schedule",
    "full_mask",
    "parse_mask",
    "render_mask",
    "mask_from_relays",
    "relays_from_mask",
    "invert_mask",
    "restrict_mask",
    "is_unbounded",
    "derive_natural_schedule",
    "links_from_gains",
    "gen_worst_case",
    "gen_half_tight",
    "gen_two_phase_schedule",
    "gen_random",
    "network_to_dict",
    "network_from_dict",
    "render_network",
    "parse_network",
    "load_network",
    "save_network",
    "schedule_to_dict",
    "schedule_from_dict",
    "value_to_json",
    "value_from_json",
]

#: Capacity of a link that can never be the bottleneck.
UNBOUNDED: float = math.inf

LinkValue = Union[int, float, Fraction]


def is_unbounded(value: LinkValue) -> bool:
    """True for the unbounded link sentinel (``math.inf``)."""
    return isinstance(value, float) and math.isinf(value)


def _check_link(value: LinkValue, what: str) -> LinkValue:
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise NetworkFormatError(f"{what} must be a number, got {value!r}")
    if isinstance(value, float) and math.isnan(value):
        raise NetworkFormatError(f"{what} is NaN")
    if value < 0:
        raise NetworkFormatError(f"{what} must be nonnegative, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Mask helpers
# ---------------------------------------------------------------------------

def full_mask(n: int) -> int:
    """Mask with relays 1..n all set."""
    return (1 << n) - 1


def invert_mask(mask: int, n: int) -> int:
    """Complement of ``mask`` within an n-relay network."""
    return full_mask(n) ^ mask


def restrict_mask(mask: int, keep: int) -> int:
    """The bits of ``mask`` at the set positions of ``keep``, packed into
    consecutive low bits: what a full-network state or cut is on the
    subnetwork of the relays in ``keep``."""
    out = 0
    j = 0
    while keep:
        low = keep & -keep
        if mask & low:
            out |= 1 << j
        keep ^= low
        j += 1
    return out


def parse_mask(text: str, n: int | None = None) -> int:
    """Parse a left-to-right relay string like ``"011"`` into a mask int.

    Character ``k`` (0-based) of the string is relay ``k+1``.
    """
    if n is not None and len(text) != n:
        raise NetworkFormatError(
            f"mask string {text!r} has length {len(text)}, expected {n}"
        )
    if not text or any(ch not in "01" for ch in text):
        raise NetworkFormatError(f"mask string must be nonempty over 0/1, got {text!r}")
    mask = 0
    for k, ch in enumerate(text):
        if ch == "1":
            mask |= 1 << k
    return mask


def render_mask(mask: int, n: int) -> str:
    """Inverse of :func:`parse_mask`: relay 1 is the leftmost character."""
    if not 0 <= mask < (1 << n):
        raise NetworkFormatError(f"mask {mask} out of range for n={n}")
    return "".join("1" if mask >> k & 1 else "0" for k in range(n))


def mask_from_relays(relays: Iterable[int], n: int) -> int:
    """Mask for a collection of distinct 1-based relay indices."""
    mask = 0
    for i in relays:
        # numpy integers too, as in _as_mask; a bool is no relay index.
        if not isinstance(i, numbers.Integral) or isinstance(i, bool) or not 1 <= i <= n:
            raise NetworkFormatError(f"relay index {i!r} out of range 1..{n}")
        i = int(i)
        bit = 1 << (i - 1)
        if mask & bit:
            raise NetworkFormatError(f"relay index {i} given twice")
        mask |= bit
    return mask


def relays_from_mask(mask: int) -> tuple[int, ...]:
    """Ascending 1-based relay indices present in ``mask``."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _as_mask(subset: int | str | Iterable[int], n: int) -> int:
    """Accept a mask integer (numpy ones too), a 0/1 string, or an iterable
    of relay indices."""
    if isinstance(subset, numbers.Integral) and not isinstance(subset, bool):
        subset = int(subset)
        if not 0 <= subset < (1 << n):
            raise NetworkFormatError(f"mask {subset} out of range for n={n}")
        return subset
    if isinstance(subset, str):
        return parse_mask(subset, n)
    if not isinstance(subset, Iterable):
        raise NetworkFormatError(f"{subset!r} is not a mask, a 0/1 string or relay indices")
    return mask_from_relays(subset, n)


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiamondNetwork:
    """An n-relay diamond network.

    ``labels`` tracks original relay identities through :meth:`subnetwork`:
    ``labels[k]`` is the index the (k+1)-th surviving relay had in the network
    it was first carved out of.  A freshly built network has ``labels ==
    (1, .., n)``.
    """

    uplinks: tuple[LinkValue, ...]
    downlinks: tuple[LinkValue, ...]
    name: str | None = None
    labels: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        up = tuple(self.uplinks)
        down = tuple(self.downlinks)
        if len(up) != len(down):
            raise NetworkFormatError(
                f"got {len(up)} uplinks but {len(down)} downlinks"
            )
        if not up:
            raise NetworkFormatError("a diamond network needs at least one relay")
        for k, v in enumerate(up):
            _check_link(v, f"uplink of relay {k + 1}")
        for k, v in enumerate(down):
            _check_link(v, f"downlink of relay {k + 1}")
        labels = tuple(self.labels) or tuple(range(1, len(up) + 1))
        if len(labels) != len(up) or len(set(labels)) != len(labels) or any(
            not isinstance(x, int) or x < 1 for x in labels
        ):
            raise NetworkFormatError(f"bad relay labels {labels!r}")
        object.__setattr__(self, "uplinks", up)
        object.__setattr__(self, "downlinks", down)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.uplinks)

    def uplink(self, i: int) -> LinkValue:
        """Source->relay capacity of relay ``i`` (1-based)."""
        return self.uplinks[i - 1]

    def downlink(self, i: int) -> LinkValue:
        """Relay->destination capacity of relay ``i`` (1-based)."""
        return self.downlinks[i - 1]

    @property
    def has_unbounded(self) -> bool:
        return any(is_unbounded(v) for v in self.uplinks + self.downlinks)

    def subnetwork(self, keep: int | str | Iterable[int]) -> "DiamondNetwork":
        """Restrict to the relays in ``keep`` (mask, 0/1 string, or indices).

        Surviving relays keep their relative order and their original labels,
        so selection results can always be reported in the caller's indexing.
        """
        mask = _as_mask(keep, self.n)
        if mask == 0:
            raise NetworkFormatError("cannot keep an empty relay set")
        idx = [k for k in range(self.n) if mask >> k & 1]
        return DiamondNetwork(
            uplinks=tuple(self.uplinks[k] for k in idx),
            downlinks=tuple(self.downlinks[k] for k in idx),
            name=self.name,
            labels=tuple(self.labels[k] for k in idx),
        )

    def drop(self, remove: int | str | Iterable[int]) -> "DiamondNetwork":
        """Complement of :meth:`subnetwork`: remove the given relays."""
        mask = _as_mask(remove, self.n)
        return self.subnetwork(invert_mask(mask, self.n))

    def substitute_unbounded(self, value: LinkValue) -> "DiamondNetwork":
        """Replace every unbounded link by the finite ``value`` (for
        experiments that sweep a large-but-finite stand-in)."""
        _check_link(value, "substitute value")
        if is_unbounded(value):
            return self
        sub = lambda v: value if is_unbounded(v) else v
        return DiamondNetwork(
            uplinks=tuple(sub(v) for v in self.uplinks),
            downlinks=tuple(sub(v) for v in self.downlinks),
            name=self.name,
            labels=self.labels,
        )


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """A probability distribution over the ``2**n`` listen/transmit states.

    Stored sparsely: ``probs`` maps state masks to positive probabilities
    (zero-probability states are dropped on construction, keys are kept in
    ascending mask order).  Probabilities may be exact (int/Fraction) or
    float; they must sum to 1, exactly when all are exact and within
    ``AGREE`` otherwise.
    """

    n: int
    probs: Mapping[int, LinkValue]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise NetworkFormatError(f"bad relay count {self.n!r}")
        cleaned: dict[int, LinkValue] = {}
        for mask in sorted(self.probs):
            p = self.probs[mask]
            if not isinstance(mask, int) or not 0 <= mask < (1 << self.n):
                raise NetworkFormatError(f"state mask {mask!r} out of range")
            _check_link(p, f"probability of state {mask}")
            if is_unbounded(p):
                raise NetworkFormatError("state probability cannot be unbounded")
            if p != 0:
                cleaned[mask] = p
        total = sum(cleaned.values())
        if below(total, 1, AGREE) or below(1, total, AGREE):
            raise NetworkFormatError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", cleaned)

    @property
    def support(self) -> tuple[int, ...]:
        """State masks with positive probability, ascending."""
        return tuple(self.probs)

    def prob(self, state: int) -> LinkValue:
        return self.probs.get(state, 0)

    def items(self) -> Iterator[tuple[int, LinkValue]]:
        return iter(self.probs.items())

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(p) for p in self.probs.values())

    @classmethod
    def uniform(cls, n: int) -> "Schedule":
        p = Fraction(1, 1 << n)
        return cls(n, {m: p for m in range(1 << n)})

    @classmethod
    def from_strings(cls, probs: Mapping[str, LinkValue]) -> "Schedule":
        """Build from rendered state strings, e.g. ``{"01": 0.5, "10": 0.5}``."""
        if not probs:
            raise NetworkFormatError("empty schedule")
        lengths = {len(s) for s in probs}
        if len(lengths) != 1:
            raise NetworkFormatError(f"inconsistent state string lengths {lengths}")
        n = lengths.pop()
        return cls(n, {parse_mask(s, n): p for s, p in probs.items()})


def derive_natural_schedule(sched: Schedule, keep: int | str | Iterable[int]) -> Schedule:
    """Marginalize a schedule onto a relay subset.

    The kept relays, in ascending original index, become relays 1..k of the
    sub-schedule; each sub-state's probability is the total probability of
    all full states that restrict to it.  Exact probabilities stay exact.
    Marginalizing in stages equals marginalizing once (tested property).
    """
    mask = _as_mask(keep, sched.n)
    if mask == 0:
        raise NetworkFormatError("cannot marginalize onto an empty relay set")
    out: dict[int, LinkValue] = {}
    for state, p in sched.items():
        sub = restrict_mask(state, mask)
        out[sub] = out.get(sub, 0) + p
    return Schedule(mask.bit_count(), out)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def links_from_gains(
    source_gains: Sequence[complex | float],
    dest_gains: Sequence[complex | float],
) -> DiamondNetwork:
    """Build a network from channel gains.

    Complex entries are taken as gains ``h`` (link capacity ``log2(1+|h|^2)``);
    real nonnegative entries are taken as already-squared magnitudes
    ``|h|^2``.  So ``source_gains=[3]`` gives uplink ``log2(4) = 2``.
    """
    if len(source_gains) != len(dest_gains):
        raise NetworkFormatError("gain vectors must have equal length")

    def cap(g: complex | float, what: str) -> float:
        if isinstance(g, complex):
            mag2 = g.real * g.real + g.imag * g.imag
        else:
            mag2 = _check_link(g, what)
            if is_unbounded(mag2):
                return UNBOUNDED
        return math.log2(1 + mag2)

    return DiamondNetwork(
        uplinks=tuple(cap(g, f"source gain {k+1}") for k, g in enumerate(source_gains)),
        downlinks=tuple(cap(g, f"dest gain {k+1}") for k, g in enumerate(dest_gains)),
    )


def gen_worst_case(n: int, big_l: LinkValue = UNBOUNDED) -> DiamondNetwork:
    """The hard family for single-relay selection.

    For even ``n``, relays come in ``n/2`` mirrored pairs: pair ``i`` has one
    relay with (uplink, downlink) = (2i/n, (n-2i+2)/n) and one with the two
    roles swapped in the pairing structure (relay i and relay n/2+i share the
    same link values).  Every relay alone is weak, yet the full network still
    carries 1 bit per channel use.  For odd ``n`` an extra relay with an
    enormous uplink (``big_l``) and a tiny downlink ``1/n`` is appended.
    Exact ``Fraction`` link values throughout.
    """
    if not isinstance(n, int) or n < 2:
        raise NetworkFormatError(f"need an integer n >= 2, got {n!r}")
    _check_link(big_l, "big_l")
    half = n // 2
    up: list[LinkValue] = [Fraction(0)] * n
    down: list[LinkValue] = [Fraction(0)] * n
    for i in range(1, half + 1):
        up[i - 1] = up[half + i - 1] = Fraction(2 * i, n)
        down[i - 1] = down[half + i - 1] = Fraction(n - 2 * i + 2, n)
    if n % 2:
        up[n - 1] = big_l
        down[n - 1] = Fraction(1, n)
    return DiamondNetwork(tuple(up), tuple(down), name=f"worst-case-{n}")


def gen_half_tight(n: int, big_l: LinkValue = UNBOUNDED) -> DiamondNetwork:
    """The family showing the 1/2 floor for dropping one relay is tight.

    Relays 1..n-1 have a weak (1/2) uplink and an enormous downlink; relay n
    is mirrored (enormous uplink, 1/2 downlink).  The full network carries 1;
    lose relay n and the best the rest can do is 1/2.
    """
    if not isinstance(n, int) or n < 2:
        raise NetworkFormatError(f"need an integer n >= 2, got {n!r}")
    _check_link(big_l, "big_l")
    half = Fraction(1, 2)
    up: list[LinkValue] = [half] * (n - 1) + [big_l]
    down: list[LinkValue] = [big_l] * (n - 1) + [half]
    return DiamondNetwork(tuple(up), tuple(down), name=f"half-tight-{n}")


def gen_two_phase_schedule(n: int) -> Schedule:
    """The two-state schedule that keeps the hard family at full capacity.

    Even ``n``: half the relays listen while the other half transmit, then
    the roles flip; each phase has probability 1/2.  Odd ``n``: the extra
    relay (relay ``n``) transmits in both phases and relays 1..n-1 split as
    in the even case.
    """
    if not isinstance(n, int) or n < 2:
        raise NetworkFormatError(f"need an integer n >= 2, got {n!r}")
    lowbits = full_mask(n // 2)  # relays 1..floor(n/2)
    if n % 2 == 0:
        first = invert_mask(lowbits, n)  # relays n/2+1..n transmit
        second = lowbits
    else:
        top = 1 << (n - 1)  # relay n transmits in both phases
        first = (full_mask(n - 1) ^ lowbits) | top
        second = lowbits | top
    half = Fraction(1, 2)
    return Schedule(n, {first: half, second: half})


def gen_random(
    n: int,
    seed: int,
    capacity_range: tuple[float, float] = (0.0, 4.0),
) -> DiamondNetwork:
    """A reproducible random network: all 2n link capacities drawn
    independently and uniformly from ``[lo, hi)`` with numpy's seeded
    generator.  Same (n, seed, range) -> identical network, bit for bit.
    ``seed`` must be an ``int`` >= 0.
    """
    if not isinstance(n, int) or n < 1:
        raise NetworkFormatError(f"need an integer n >= 1, got {n!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise NetworkFormatError(f"need an integer seed >= 0, got {seed!r}")
    lo, hi = capacity_range
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 <= lo < hi):
        raise NetworkFormatError(f"need finite 0 <= lo < hi, got {capacity_range!r}")
    rng = np.random.default_rng(seed)
    draws = rng.uniform(lo, hi, size=2 * n)
    return DiamondNetwork(
        uplinks=tuple(float(x) for x in draws[:n]),
        downlinks=tuple(float(x) for x in draws[n:]),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
#
# Interchange values are JSON numbers, the string "inf" for unbounded links,
# or "p/q" strings for exact rationals that a float cannot represent
# losslessly.  Round-tripping preserves values under ``==`` (and bit-exactly
# for floats).

def value_to_json(v: LinkValue) -> int | float | str:
    if is_unbounded(v):
        return "inf"
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        with suppress(OverflowError):  # past the float range: no float is v
            if Fraction(f := float(v)) == v:
                return f
        return f"{v.numerator}/{v.denominator}"
    return v


def value_from_json(x: object) -> LinkValue:
    if isinstance(x, bool):
        raise NetworkFormatError(f"expected a capacity value, got {x!r}")
    if isinstance(x, (int, float)):
        return _check_link(x, "capacity value")
    if isinstance(x, str):
        if x == "inf":
            return UNBOUNDED
        num, sep, den = x.partition("/")
        try:
            if sep:
                return _check_link(Fraction(int(num), int(den)), "capacity value")
            return _check_link(Fraction(x), "capacity value")
        except (ValueError, ZeroDivisionError) as exc:
            raise NetworkFormatError(f"bad capacity value {x!r}") from exc
    raise NetworkFormatError(f"expected a capacity value, got {x!r}")


def network_to_dict(net: DiamondNetwork) -> dict:
    d: dict = {}
    if net.name is not None:
        d["name"] = net.name
    d["l"] = [value_to_json(v) for v in net.uplinks]
    d["r"] = [value_to_json(v) for v in net.downlinks]
    return d


def network_from_dict(d: object) -> DiamondNetwork:
    if not isinstance(d, dict) or "l" not in d or "r" not in d:
        raise NetworkFormatError('network JSON must be an object with "l" and "r"')
    name = d.get("name")
    if name is not None and not isinstance(name, str):
        raise NetworkFormatError(f"network name must be a string, got {name!r}")
    l, r = d["l"], d["r"]
    if not isinstance(l, list) or not isinstance(r, list):
        raise NetworkFormatError('"l" and "r" must be arrays')
    return DiamondNetwork(
        uplinks=tuple(value_from_json(x) for x in l),
        downlinks=tuple(value_from_json(x) for x in r),
        name=name,
    )


def render_network(net: DiamondNetwork, indent: int | None = None) -> str:
    return json.dumps(network_to_dict(net), indent=indent)


def parse_network(text: str) -> DiamondNetwork:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"invalid JSON: {exc}") from exc
    return network_from_dict(data)


def load_network(path: str) -> DiamondNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read())


def save_network(net: DiamondNetwork, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_network(net, indent=2))
        fh.write("\n")


def schedule_to_dict(sched: Schedule) -> dict:
    return {
        "n": sched.n,
        "states": [
            {"state": render_mask(m, sched.n), "prob": value_to_json(p)}
            for m, p in sched.items()
        ],
    }


def schedule_from_dict(d: object) -> Schedule:
    if not isinstance(d, dict) or "n" not in d or "states" not in d:
        raise NetworkFormatError('schedule JSON must be an object with "n", "states"')
    n = d["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise NetworkFormatError(f'"n" must be an integer, got {n!r}')
    states = d["states"]
    if not isinstance(states, list):
        raise NetworkFormatError('"states" must be an array')
    probs: dict[int, LinkValue] = {}
    for item in states:
        if not isinstance(item, dict) or "state" not in item or "prob" not in item:
            raise NetworkFormatError(f"bad schedule entry {item!r}")
        mask = parse_mask(item["state"], n)
        if mask in probs:
            raise NetworkFormatError(f"state {item['state']!r} listed twice")
        probs[mask] = value_from_json(item["prob"])
    return Schedule(n, probs)
