"""The finite-and-in-range check behind every numeric config boundary.

Range checks written as ``if x <= 0: raise`` let NaN through (every
comparison with NaN is false), and a NaN rate or window then runs to a NaN
result or never advances a clock.  :func:`check_range` rejects non-finite
values first, then applies the bounds, so ``SimConfig``, ``FleetConfig``,
``SLOSpec`` and the live aggregator all fail the same way on bad input: a
``ValueError`` naming the field, which the CLI turns into exit code 2.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional


def check_range(
    name: str,
    value: object,
    *,
    gt: Optional[float] = None,
    ge: Optional[float] = None,
    lt: Optional[float] = None,
) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite number in bounds.

    ``gt``/``ge`` are exclusive/inclusive lower bounds and ``lt`` an
    exclusive upper bound; unset bounds are not checked.  Booleans are not
    numbers here.
    """
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer too large for a float
            pass
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number: {value!r}")
    if ge is not None and not number >= ge:
        if ge == 0:
            raise ValueError(f"negative {name}: {value!r}")
        raise ValueError(f"{name} must be >= {ge:g}: {value!r}")
    if gt is not None and not number > gt:
        raise ValueError(f"{name} must be > {gt:g}: {value!r}")
    if lt is not None and not number < lt:
        raise ValueError(f"{name} must be < {lt:g}: {value!r}")
