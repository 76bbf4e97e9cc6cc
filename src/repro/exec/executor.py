"""Process-pool experiment executor with deterministic fan-out.

``run_grid`` takes a declarative list of :class:`RunSpec` cells and
executes them either inline (``workers=1``, the serial fallback) or
across a ``ProcessPoolExecutor``.  Three properties make the parallel
path a drop-in replacement for the serial one:

* **Deterministic seeding** — every run's simulation seed is derived
  from its spec (:func:`repro.exec.spec.derive_seed`), never from
  worker identity or completion order.
* **Spec-order merge** — results are returned in the order the specs
  were given, regardless of which worker finished first, so parallel
  output is bit-identical to serial output.
* **Loud failure** — an exception in any worker aborts the whole grid
  with an :class:`ExperimentError` naming the failing spec and carrying
  the worker's traceback; a worker process dying outright (OOM kill,
  hard crash) is reported the same way.

With a :class:`~repro.cache.ResultCache` attached, every cell is
looked up *before* dispatch — on both the serial and the pooled path —
and computed cells are written through as they complete (not at the
end), so a killed sweep resumes for free: already-completed cells hit,
only the remainder computes.  Cached and computed cells are
interchangeable by construction (the cache stores the canonical cell
document and rebuilding it round-trips byte-identically), so the
spec-order merge and the bit-identity contract are unchanged.

Progress has one channel: ``progress`` is called with a
:class:`ProgressEvent` per finished cell (position, host seconds,
whether the cache served it), in completion order.
"""

from __future__ import annotations

import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional, cast

from repro.exec.clock import monotonic
from repro.exec.runners import execute_spec
from repro.exec.spec import CellResult, RunSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import ResultCache


class ExperimentError(RuntimeError):
    """A grid cell failed; the message names the spec and the cause."""


@dataclass(frozen=True)
class ProgressEvent:
    """One completed cell, reported in completion (not spec) order."""

    done: int
    total: int
    index: int
    spec: RunSpec
    seconds: float
    #: True when the cell was served from the result cache.
    cached: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = " (cached)" if self.cached else f" ({self.seconds:.2f}s)"
        return f"[{self.done}/{self.total}] {self.spec.describe()}{suffix}"


ProgressCallback = Callable[[ProgressEvent], None]


def run_grid(
    specs: Iterable[RunSpec],
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
    keep_clusters: bool = False,
    cache: "Optional[ResultCache]" = None,
    refresh: bool = False,
) -> list[CellResult]:
    """Execute every spec and return results in spec order.

    ``workers=1`` runs inline in this process (and may retain live
    clusters on result payloads when ``keep_clusters`` is set);
    ``workers>1`` fans out over a process pool, where payloads are
    stripped to picklable data.  Both paths produce identical
    measurements for identical specs.

    ``cache`` short-circuits cells already on disk and writes computed
    cells through incrementally; ``refresh`` recomputes every cell but
    still writes through (overwriting existing entries).  Cells are
    bypassed — never read or written — when ``keep_clusters`` is set
    or the spec is trace-enabled: both carry process-local state a
    cached document cannot reproduce.
    """
    spec_list = list(specs)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    total = len(spec_list)

    results: list[Optional[CellResult]] = [None] * total
    jobs: list[int] = []
    done = 0
    if cache is None:
        jobs = list(range(total))
    else:
        for index, spec in enumerate(spec_list):
            cell = None
            if keep_clusters or spec.trace:
                cache.count_bypass()
            elif refresh:
                cache.count_miss()
            else:
                cell = cache.get(spec)
            if cell is None:
                jobs.append(index)
                continue
            # A cache hit: nothing ran, so no host seconds to observe.
            done += 1
            results[index] = cell
            if progress is not None:
                progress(ProgressEvent(done, total, index, spec, seconds=0.0, cached=True))
    store = None if keep_clusters else cache

    def finish(index: int, cell: CellResult, seconds: float) -> None:
        """A freshly computed cell, in completion order (either path)."""
        nonlocal done
        spec = spec_list[index]
        # Write through before reporting: once a cell is announced
        # done, a kill must not lose it.
        if store is not None and not spec.trace:
            store.put(spec, cell)
        done += 1
        results[index] = cell
        if progress is not None:
            progress(ProgressEvent(done, total, index, spec, seconds))

    if workers == 1 or len(jobs) <= 1:
        for index in jobs:
            spec = spec_list[index]
            started = monotonic()
            try:
                cell = execute_spec(spec, keep_cluster=keep_clusters)
            except Exception as exc:
                raise ExperimentError(
                    f"spec {index} ({spec.describe()}) failed: {exc!r}\n"
                    f"{traceback.format_exc()}"
                ) from exc
            finish(index, cell, monotonic() - started)
    else:
        run_pool(
            workers,
            {index: (execute_spec, spec_list[index]) for index in jobs},
            finish,
            died=lambda i: f"the grid (first unfinished spec: {i} — {spec_list[i].describe()})",
            failed=lambda i: f"spec {i} ({spec_list[i].describe()})",
        )
    return cast("list[CellResult]", list(results))


def run_pool(
    workers: int,
    jobs: "Mapping[Any, tuple[Any, ...]]",
    on_done: Callable[[Any, Any, float], None],
    died: Callable[[Any], str],
    failed: Callable[[Any], str],
) -> None:
    """Run every ``key -> (fn, *args)`` job on a process pool.

    The one pool loop of :mod:`repro.exec`: ``on_done(key, value,
    seconds)`` fires in completion order; an exception in a worker, or
    a worker dying outright, cancels what is still queued and raises
    :class:`ExperimentError` — ``failed(key)`` / ``died(key)`` say
    what was running.
    """
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = {pool.submit(_pool_entry, *job): key for key, job in jobs.items()}
        try:
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    key = pending.pop(future)
                    try:
                        status, value, seconds = future.result()
                    except BrokenProcessPool as exc:
                        raise ExperimentError(
                            f"a worker process died while running {died(key)}: {exc!r}"
                        ) from exc
                    if status == "error":
                        raise ExperimentError(f"{failed(key)} failed in worker:\n{value}")
                    on_done(key, value, seconds)
        finally:
            for future in pending:
                future.cancel()


def _pool_entry(fn: Callable[..., Any], *args: Any) -> "tuple[str, Any, float]":
    """Worker-side wrapper: never raises, so no exception must pickle."""
    started = monotonic()
    try:
        value = fn(*args)
    except BaseException:
        return "error", traceback.format_exc(), monotonic() - started
    return "ok", value, monotonic() - started
