"""Seeded random-number helpers.

Every stochastic element of the reproduction (household composition, appliance
usage, customer preference tables, weather) draws from a :class:`RandomSource`
so that experiments are exactly reproducible from a single integer seed.  A
``RandomSource`` can spawn independent child sources for sub-systems, which
keeps the random streams of, say, the weather model and the customer
population decoupled: adding households does not perturb the weather.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


@lru_cache(maxsize=64)
def _weighted_cdf(weights: tuple[float, ...]) -> tuple[float, ...]:
    """The cumulative distribution ``Generator.choice(n, p=w / w.sum())`` uses.

    numpy normalises ``p`` and builds ``p.cumsum()`` divided by its last
    entry, then maps one ``random()`` draw through ``searchsorted(side=
    "right")``; memoising that CDF per weight vector makes a weighted pick
    one uniform draw plus a bisection, draw-for-draw identical to numpy.
    Invalid vectors raise :class:`ValueError`, which ``lru_cache`` never
    stores.
    """
    weight_array = np.asarray(weights, dtype=float)
    if np.any(weight_array < 0):
        raise ValueError("weights must be non-negative")
    total = float(weight_array.sum())
    if not np.isfinite(total):
        raise ValueError("weights must be finite")
    if total <= 0:
        raise ValueError("weights must not all be zero")
    cdf = (weight_array / total).cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


class RandomSource:
    """A named, seedable random stream built on :class:`numpy.random.Generator`."""

    def __init__(self, seed: Optional[int] = None, name: str = "root") -> None:
        self._seed = seed
        self._name = name
        self._seed_seq = np.random.SeedSequence(seed)
        self._generator = np.random.default_rng(self._seed_seq)
        self._child_count = 0

    @property
    def name(self) -> str:
        return self._name

    @property
    def seed(self) -> Optional[int]:
        return self._seed

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (for vectorised draws)."""
        return self._generator

    def spawn(self, name: str) -> "RandomSource":
        """Create an independent child stream.

        Children are derived from the parent's seed sequence, so the full tree
        of streams is determined by the root seed alone.
        """
        child_seq = self._seed_seq.spawn(1)[0]
        child = RandomSource.__new__(RandomSource)
        child._seed = self._seed
        child._name = f"{self._name}/{name}"
        child._seed_seq = child_seq
        child._generator = np.random.default_rng(child_seq)
        child._child_count = 0
        self._child_count += 1
        return child

    # -- checkpointable state ---------------------------------------------

    def state(self) -> dict:
        """Snapshot of the underlying bit generator's state.

        Together with :meth:`set_state` this makes a stream checkpointable:
        a campaign can persist the exact position of its weather/demand
        streams after day *k* and resume at day *k*+1 with the draws it
        would have made in an uninterrupted run.  Spawned children are not
        covered — snapshot each child you need to resume.
        """
        return self._generator.bit_generator.state

    def set_state(self, state: dict) -> None:
        """Restore a snapshot previously taken with :meth:`state`."""
        self._generator.bit_generator.state = state

    # -- scalar draws -----------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A single uniform draw in ``[low, high)``."""
        return float(self._generator.uniform(low, high))

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """A single normal draw."""
        if std < 0:
            raise ValueError(f"standard deviation must be non-negative, got {std}")
        return float(self._generator.normal(mean, std))

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        """A single log-normal draw."""
        if sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        return float(self._generator.lognormal(mean, sigma))

    def integer(self, low: int, high: int) -> int:
        """A single integer draw in ``[low, high]`` (inclusive)."""
        if high < low:
            raise ValueError(f"high ({high}) must be >= low ({low})")
        return int(self._generator.integers(low, high + 1))

    def boolean(self, probability: float = 0.5) -> bool:
        """A single Bernoulli draw."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return bool(self._generator.random() < probability)

    def choice(self, options: Sequence[T], weights: Optional[Sequence[float]] = None) -> T:
        """Pick one element, optionally weighted."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        if weights is None:
            index = int(self._generator.integers(0, len(options)))
            return options[index]
        if len(weights) != len(options):
            raise ValueError("weights must have the same length as options")
        cdf = _weighted_cdf(tuple(weights))
        return options[bisect_right(cdf, self._generator.random())]

    def shuffled(self, items: Sequence[T]) -> list[T]:
        """Return a shuffled copy of ``items``."""
        copy = list(items)
        self._generator.shuffle(copy)  # type: ignore[arg-type]
        return copy

    # -- vector draws ------------------------------------------------------

    def uniform_array(self, low: float, high: float, size: int) -> np.ndarray:
        """A vector of uniform draws."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        return self._generator.uniform(low, high, size)

    def normal_array(self, mean: float, std: float, size: int) -> np.ndarray:
        """A vector of normal draws."""
        if std < 0:
            raise ValueError(f"standard deviation must be non-negative, got {std}")
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        return self._generator.normal(mean, std, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(name={self._name!r}, seed={self._seed!r})"
