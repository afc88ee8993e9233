"""Named, reproducible random-number streams.

Every source of randomness in the simulator (run-to-run jitter, b_eff random
patterns, load-imbalance noise) draws from a *named stream* derived from one
master seed.  Stream independence means adding a new consumer of randomness
does not perturb existing experiments — a property the calibration tests
rely on.

numpy is imported where the first generator is created, not with the
module: a run that draws nothing (a ping-pong, say) never loads it.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def _derive_seed(master: int, name: str) -> int:
    """Stable 64-bit child seed from ``(master, name)``.

    Uses BLAKE2b rather than ``hash()`` so results do not depend on
    ``PYTHONHASHSEED`` or the Python version.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(master.to_bytes(16, "little", signed=False))
    h.update(name.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


class RngStreams:
    """A registry of named :class:`numpy.random.Generator` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        if master_seed < 0:
            raise ValueError("master seed must be non-negative")
        self.master_seed = master_seed
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name``, created on first use."""
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np

            # The one sanctioned numpy RNG entry point: every stream is
            # derived from the master seed here.
            gen = np.random.default_rng(  # repro-lint: disable=RPR001
                _derive_seed(self.master_seed, name)
            )
            self._streams[name] = gen
        return gen

    def jitter(self, name: str, mean: float, cv: float) -> float:
        """One draw of non-negative noise around ``mean``.

        ``cv`` is the coefficient of variation (sigma/mean).  Gamma-shaped
        noise keeps draws positive, matching OS-noise measurements better
        than a clipped normal.  ``cv == 0`` returns ``mean`` exactly.
        """
        if mean < 0 or cv < 0:
            raise ValueError("mean and cv must be non-negative")
        if mean == 0.0 or cv < 1e-6:  # cv*cv would underflow below ~1e-154
            return mean
        shape = 1.0 / (cv * cv)
        scale = mean / shape
        return float(self.stream(name).gamma(shape, scale))

    def names(self):
        """Names of streams created so far (sorted, for debug/tests)."""
        return sorted(self._streams)
