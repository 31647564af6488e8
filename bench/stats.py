"""Row outcomes and the summary statistics the benchmark reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class Check:
    """Outcome of one row's correctness gate: the measured figure, the
    tolerance it was held to, and a short note for failures."""

    ok: bool
    measured: float
    tolerance: float
    note: str = ""


@dataclass(frozen=True)
class Outcome:
    row: str
    ok: bool
    measured: float
    tolerance: float
    seconds: float
    note: str = ""


def percentile(values: Sequence[float], q: float, min_beyond: int = 10):
    """q-th percentile (linear interpolation between order statistics)
    together with the sample count and the number of samples above it.

    Raises ValueError when fewer than `min_beyond` samples lie above the
    percentile, because such a tail figure rests on too few samples.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    beyond = sum(1 for v in ordered if v > value)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has only {beyond} beyond it "
            f"(need {min_beyond})"
        )
    return value, len(ordered), beyond


def failed_frac(outcomes: List[Outcome]) -> float:
    """Failed rows over attempted rows. Every expected row of a task is an
    outcome, so a table that aborts contributes all of its rows."""
    if not outcomes:
        raise ValueError("no rows attempted")
    return sum(1 for o in outcomes if not o.ok) / len(outcomes)


def unexpected_failures(outcomes: List[Outcome],
                        known: Dict[str, str]) -> List[Outcome]:
    """Failed rows that are not on the known-failure list."""
    return [o for o in outcomes if not o.ok and o.row not in known]
