"""Per-rank virtual clocks with reproducible noise.

Every rank advances its own clock: compute phases add modelled time (with
multiplicative noise standing in for system noise / congestion, §3.2's
"variations"), and communication completions synchronise clocks through the
network model.  The tracer reads these clocks for call timestamps, so the
duration/interval compression experiments (Fig 10) see realistically noisy
but pattern-bearing sequences.
"""

from __future__ import annotations

import random
from math import exp


class RankClock:
    """Virtual wall-clock of one simulated process."""

    __slots__ = ("now", "_rng", "noise")

    def __init__(self, seed: int, noise: float = 0.05, start: float = 0.0):
        self.now = float(start)
        self._rng = random.Random(seed)
        #: relative std-dev of multiplicative compute noise (0 disables)
        self.noise = noise

    def advance(self, seconds: float) -> float:
        """Advance by a modelled duration, with noise applied. Returns the
        actual (noisy) duration."""
        if seconds < 0:
            seconds = 0.0
        if self.noise > 0.0 and seconds > 0.0:
            # lognormvariate(0, noise), minus its pass-through frame
            seconds *= exp(self._rng.normalvariate(0.0, self.noise))
        self.now += seconds
        return seconds

    def sync_to(self, t: float) -> None:
        """Move forward to *t* if it is in the future (never backwards)."""
        if t > self.now:
            self.now = t
