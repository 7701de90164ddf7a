"""The seeded draw of a Monte Carlo run, and the key that replays one value of it.

Determinism contract: a run of ``m`` replicates at ``seed`` draws its
sufficient statistics with one call of one sampler of numpy's
``default_rng(seed)`` (see :func:`bayessize.models.suffstat_sampler`), and
replicate ``j``'s statistic is element ``j`` of that draw.  Two runs with
the same seed therefore draw bitwise identical statistics regardless of
platform, process count or call site, for a fixed numpy version: numpy
(NEP 19) does not promise that a ``Generator`` method's stream survives
an upgrade.

numpy fills a vector draw element by element from one stream, so element
``j`` of a size-``m`` draw is the last element of a size-``(j + 1)`` draw,
and draws of sizes ``a`` and then ``b`` give what one draw of size
``a + b`` gives.  ``SeededGenerator(seed, j)`` names replicate ``j`` of
the run at ``seed``, and :meth:`SeededGenerator.replay` redraws its value
through that prefix.  ``test_a_run_draw_is_a_prefix_of_every_longer_draw``
pins the property for every sampler.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from .errors import DomainError, integer

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SeededGenerator", "check_seed", "run_generator"]

# Most values a replay draws at once, so replaying a large index allocates little.
_CHUNK = 4096


def check_seed(name: str, seed) -> None:
    """Refuse ``seed``, by ``name``, unless an integer in [0, 2^64)."""
    if integer(name, seed, 0) >= 2**64:  # a seed is one unsigned 64-bit word
        raise DomainError(f"{name} must be below 2^64, got {seed!r}")


def run_generator(seed: int) -> np.random.Generator:
    """numpy's ``default_rng(seed)``: the one generator a run at ``seed`` draws from.

    numpy and ``numpy.random`` are imported here, on the first simulation,
    rather than when the CLI loads.
    """
    import numpy as np

    check_seed("seed", seed)
    return np.random.default_rng(seed)


class SeededGenerator:
    """The key of replicate ``stream_id`` of the Monte Carlo run at ``seed``.

    Both keys are checked when the key is made; equal keys replay equal
    values and distinct stream ids distinct elements of one draw.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        check_seed("seed", seed)
        integer("stream_id", stream_id, 0)
        self.seed = seed
        self.stream_id = stream_id

    def replay(self, draw: Callable[[np.random.Generator, int], np.ndarray]):
        """Element ``stream_id`` of ``draw(default_rng(seed), m)``, for any
        ``m > stream_id``: the last of ``stream_id + 1`` values, drawn in
        chunks of at most ``_CHUNK``."""
        generator = run_generator(self.seed)
        left = self.stream_id + 1
        while left > _CHUNK:
            draw(generator, _CHUNK)
            left -= _CHUNK
        return draw(generator, left)[-1]
