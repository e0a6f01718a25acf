"""The float slacks that result checks read, by what each one bounds, and
the one rule that applies them.

Every scalar result check asks :func:`below`: exact values (``int`` or
``Fraction``) compare exactly and read no slack; anything else compares in
float with the slack the caller passes.  Each caller keeps its own form of
the slack: absolute, or scaled by ``max(1, |v|)``.  The LP engine's own
thresholds (``simplex._TOL`` and ``capacity._solve``'s growth ``eps``)
live next to the code that reads them.
"""

from fractions import Fraction

#: Rounding of a handful of float additions: ties between two sums of the
#: same terms, probabilities that are zero in all but rounding, and
#: comparisons of fractions that were computed the same way.
ROUNDOFF = 1e-12

#: Agreement of a float result with an exact fact: a closed-form value, a
#: proven floor, a probability sum of 1, or a cut that ties the minimum.
AGREE = 1e-9

#: How far apart two separately computed float solves may settle: the
#: floor-to-ceiling gap a float solve returns without escalating, and any
#: comparison between the outputs of two solves.
SETTLED = 1e-8


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def below(a, b, slack: float) -> bool:
    """Whether ``a`` falls short of ``b``: ``a < b`` when both are exact,
    else ``a < b - slack``."""
    if _is_exact(a) and _is_exact(b):
        return a < b
    return a < b - slack
