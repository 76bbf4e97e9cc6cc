"""Bounded-memory streaming statistics for million-transaction runs.

Every latency table in this repository used to be computed from a full
per-transaction Python list (sort, then nearest-rank percentiles).
That is exact, but the accumulator grows O(n) in committed
transactions — a truly large cell is impossible.  This module replaces
the list with a :class:`StreamingStats` accumulator whose peak memory
is O(1) in observation count:

* **count / min / max** — exact, one word each.
* **mean** — the online running mean; accumulators merge with Chan's
  parallel update.
* **quantiles** — a deterministic mergeable bottom-k sketch
  (:class:`QuantileSketch`): every observation gets a 64-bit priority
  from ``sha256(seed:label:index)`` and the sketch keeps the ``k``
  smallest priorities.  The kept set is a uniform random sample *keyed
  off the spec-derived seed*, so results are seed-reproducible, and it
  is a pure function of the observation multiset — independent of add
  order and of how accumulators are merged (set union is associative).
  Rank error of a quantile estimated from a uniform sample of size
  ``k`` is ~``1/sqrt(k)`` (standard error ``sqrt(p(1-p)/k)``, about
  0.008 at the default ``k`` = 4096).

**Exact-mode cutover.**  Below :data:`EXACT_THRESHOLD` observations the
accumulator simply buffers raw values and finalisation reproduces the
legacy list-based computations bit-for-bit (same sort, same summation
order), so every existing golden file and CI baseline stands.  Crossing the threshold promotes the buffer into the sketch;
the sketch built through promotion is identical to one built
sketch-first, because each observation's priority depends only on its
origin stream identity ``(seed, label)`` and its index in that stream.

**Merging.**  ``merge`` folds the composite workload's per-group
accumulators together in canonical group order.  count/min/max and the
sketch sample merge exactly associatively; the Chan mean merge is
deterministic for a fixed merge order (floating-point
addition is not associative, which is why every caller merges in
group order).  Observing into an accumulator after it has absorbed a
merge is forbidden: a merged exact buffer holds values from several
origin streams, and only merge-at-finalisation keeps every
observation's sketch priority well defined.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Iterator, List, Optional, Tuple

from repro.analysis.metrics import percentile

#: Observation count up to which raw values are buffered and finalised
#: through the legacy exact computations (byte-identical JSON).  Every
#: historical cell is far below this; only million-transaction runs
#: cross it.
EXACT_THRESHOLD = 65536

#: Default sketch size: rank error ~1/sqrt(4096) ≈ 1.6 %, worst-case
#: memory 4096 floats + 4096 priorities regardless of stream length.
SKETCH_SIZE = 4096


def _priority(seed: int, label: str, index: int) -> int:
    """The 64-bit sampling priority of one observation.

    A pure function of the origin stream identity and the observation's
    index within it — never of the value, the add order, or the merge
    structure.  That is what makes the bottom-k sample deterministic,
    seed-reproducible and exactly mergeable.
    """
    digest = hashlib.sha256(f"{seed}:{label}:{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class QuantileSketch:
    """Deterministic mergeable bottom-k quantile sketch.

    Keeps the ``k`` observations with the smallest hash priorities; the
    kept values are a uniform sample of everything offered, so
    ``quantile`` is the empirical percentile of a k-sample.  Union of
    two sketches keeps the k smallest of both kept sets — exactly the
    sketch of the combined stream, hence merge is associative.
    """

    __slots__ = ("seed", "label", "k", "added", "_heap")

    def __init__(self, seed: int = 0, label: str = "", k: int = SKETCH_SIZE) -> None:
        if k < 1:
            raise ValueError(f"sketch size must be >= 1, got {k}")
        self.seed = seed
        self.label = label
        self.k = k
        #: Observations offered through :meth:`add` (the index counter).
        self.added = 0
        #: Max-heap of the kept bottom-k: entries are (-priority, value).
        self._heap: List[Tuple[int, float]] = []

    def add(self, value: float) -> None:
        """Offer the next observation of this sketch's own stream."""
        self.offer(_priority(self.seed, self.label, self.added), value)
        self.added += 1

    def offer(self, priority: int, value: float) -> None:
        """Offer an observation with a precomputed priority."""
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-priority, value))
        elif priority < -self._heap[0][0]:
            heapq.heapreplace(self._heap, (-priority, value))

    def merge(self, other: "QuantileSketch") -> None:
        """Union ``other`` into this sketch (keep the k smallest overall)."""
        for neg_priority, value in other._heap:
            self.offer(-neg_priority, value)

    def __len__(self) -> int:
        return len(self._heap)

    def sample(self) -> List[float]:
        """The kept values, sorted — a uniform sample of the stream."""
        return sorted(value for _, value in self._heap)

    def quantile(self, pct: float) -> float:
        """Estimated percentile (rank error ~1/sqrt(k))."""
        if not self._heap:
            raise ValueError("empty sketch")
        return percentile(self.sample(), pct)


class StreamingStats:
    """O(1)-memory accumulator: count, min, max, mean, quantiles.

    ``seed``/``label`` name the origin stream for sketch priorities —
    derive them from the spec seed and (for the composite workload) the
    shard group, so every group's sample is an independent reproducible
    stream.  See the module docstring for the exact-mode cutover and
    the merge contract.
    """

    __slots__ = (
        "seed",
        "label",
        "exact_threshold",
        "sketch_size",
        "count",
        "_min",
        "_max",
        "_mean",
        "_segments",
        "_own",
        "_sketch",
        "_absorbed",
    )

    def __init__(
        self,
        seed: int = 0,
        label: str = "",
        exact_threshold: int = EXACT_THRESHOLD,
        sketch_size: int = SKETCH_SIZE,
    ) -> None:
        if exact_threshold < 0:
            raise ValueError(f"exact_threshold must be >= 0, got {exact_threshold}")
        self.seed = seed
        self.label = label
        self.exact_threshold = exact_threshold
        self.sketch_size = sketch_size
        self.count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._mean = 0.0
        #: Exact-mode storage: origin-tagged runs of raw values.  Own
        #: observations land in ``_own``; merged-in exact buffers keep
        #: their origin ``(seed, label)`` so a later promotion can
        #: compute every observation's true priority.
        self._own: List[float] = []
        self._segments: Optional[List[Tuple[int, str, List[float]]]] = [
            (seed, label, self._own)
        ]
        self._sketch: Optional[QuantileSketch] = None
        self._absorbed = False

    # -- accumulation --------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"exact"`` (raw buffer, legacy finalisation) or ``"sketch"``."""
        return "exact" if self._sketch is None else "sketch"

    def observe(self, value: float) -> None:
        """Fold one observation in (O(1) amortised, O(1) peak memory)."""
        if self._absorbed:
            raise RuntimeError(
                "cannot observe after merge: merged accumulators are "
                "finalisation-time objects (see module docstring)"
            )
        self.count += 1
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        self._mean += (value - self._mean) / self.count
        if self._sketch is not None:
            self._sketch.add(value)
        else:
            self._own.append(value)
            if self.count > self.exact_threshold:
                self._promote()

    def _promote(self) -> None:
        """Switch from the exact buffer to the sketch.

        Each buffered run is replayed under its *origin* identity, so
        the resulting sketch is identical to one that sampled every
        origin stream from its first observation.
        """
        assert self._segments is not None
        sketch = QuantileSketch(self.seed, self.label, k=self.sketch_size)
        for seg_seed, seg_label, values in self._segments:
            if seg_seed == self.seed and seg_label == self.label:
                for value in values:
                    sketch.add(value)
            else:
                for index, value in enumerate(values):
                    sketch.offer(_priority(seg_seed, seg_label, index), value)
        self._sketch = sketch
        self._segments = None
        self._own = []

    def merge(self, other: "StreamingStats") -> None:
        """Fold another accumulator in (canonical-order merge).

        count/min/max and the sketch sample merge exactly; the mean
        merge (Chan) is deterministic for a fixed merge order.  After
        merging, this accumulator is finalisation-only.
        """
        self._absorbed = True
        if other.count == 0:
            return
        if self.count == 0:
            self._min, self._max = other._min, other._max
            self._mean = other._mean
        else:
            assert other._min is not None and other._max is not None
            assert self._min is not None and self._max is not None
            if other._min < self._min:
                self._min = other._min
            if other._max > self._max:
                self._max = other._max
            delta = other._mean - self._mean
            self._mean += delta * other.count / (self.count + other.count)
        combined = self.count + other.count
        self.count = combined
        if (
            self._sketch is None
            and other._sketch is None
            and combined <= self.exact_threshold
        ):
            assert self._segments is not None and other._segments is not None
            self._segments.extend(
                (seed, label, values)
                for seed, label, values in other._segments
                if values
            )
            return
        if self._sketch is None:
            self._promote()
        assert self._sketch is not None
        if other._sketch is not None:
            self._sketch.merge(other._sketch)
        else:
            assert other._segments is not None
            for seg_seed, seg_label, values in other._segments:
                for index, value in enumerate(values):
                    self._sketch.offer(_priority(seg_seed, seg_label, index), value)

    # -- finalisation --------------------------------------------------------

    @property
    def values(self) -> List[float]:
        """The raw observations, in accumulation order (exact mode only)."""
        if self._segments is None:
            raise RuntimeError(
                f"stream {self.label!r} switched to sketch mode at "
                f"{self.exact_threshold} observations; raw values are gone"
            )
        if len(self._segments) == 1:
            return self._segments[0][2]
        merged: List[float] = []
        for _, _, values in self._segments:
            merged.extend(values)
        return merged

    @property
    def minimum(self) -> float:
        if self._min is None:
            raise ValueError("empty stream")
        return self._min

    @property
    def maximum(self) -> float:
        if self._max is None:
            raise ValueError("empty stream")
        return self._max

    @property
    def mean(self) -> float:
        """Running mean (exact consumers recompute from ``values``)."""
        if self.count == 0:
            raise ValueError("empty stream")
        return self._mean

    def quantile(self, pct: float) -> float:
        """Exact percentile below the threshold, sketch estimate above."""
        if self.count == 0:
            raise ValueError("empty stream")
        if self._sketch is not None:
            return self._sketch.quantile(pct)
        return percentile(self.values, pct)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StreamingStats({self.label!r}, n={self.count}, mode={self.mode})"


def merge_all(parts: "List[StreamingStats]") -> StreamingStats:
    """Merge accumulators in list (canonical) order.

    Callers pass them in group order: the mean merge is
    deterministic only for a fixed order, so that order is what makes
    the merged result reproducible.
    """
    if not parts:
        raise ValueError("nothing to merge")
    total = StreamingStats(
        seed=parts[0].seed,
        label=parts[0].label,
        exact_threshold=parts[0].exact_threshold,
        sketch_size=parts[0].sketch_size,
    )
    for part in parts:
        total.merge(part)
    return total


def _iter_sketch(sketch: QuantileSketch) -> Iterator[Tuple[int, float]]:
    """(priority, value) pairs of the kept sample (test helper)."""
    return ((-neg, value) for neg, value in sketch._heap)
