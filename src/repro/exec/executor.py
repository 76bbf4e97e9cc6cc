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

Progress has one channel: ``progress`` is called with a
:class:`ProgressEvent` per finished cell (position, host seconds), in
completion order.
"""

from __future__ import annotations

import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, cast

from repro.exec.clock import monotonic
from repro.exec.runners import execute_spec
from repro.exec.spec import CellResult, RunSpec


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

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.done}/{self.total}] {self.spec.describe()} ({self.seconds:.2f}s)"


ProgressCallback = Callable[[ProgressEvent], None]


def run_grid(
    specs: Iterable[RunSpec],
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
    keep_clusters: bool = False,
) -> list[CellResult]:
    """Execute every spec and return results in spec order.

    ``workers=1`` runs inline in this process (and may retain live
    clusters on result payloads when ``keep_clusters`` is set);
    ``workers>1`` fans out over a process pool, where payloads are
    stripped to picklable data.  Both paths produce identical
    measurements for identical specs.
    """
    spec_list = list(specs)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    total = len(spec_list)

    results: list[Optional[CellResult]] = [None] * total
    done = 0

    def finish(index: int, cell: CellResult, seconds: float) -> None:
        """A computed cell, in completion order (either path)."""
        nonlocal done
        done += 1
        results[index] = cell
        if progress is not None:
            progress(ProgressEvent(done, total, index, spec_list[index], seconds))

    if workers == 1 or total <= 1:
        for index, spec in enumerate(spec_list):
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
            {index: (execute_spec, spec) for index, spec in enumerate(spec_list)},
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
        pending: dict[Any, Any] = {}
        key = None
        try:
            # A worker can die before the last job is queued, and then
            # ``submit`` itself raises: both moments are one handler's.
            for key, job in jobs.items():
                pending[pool.submit(_pool_entry, *job)] = key
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    key = pending.pop(future)
                    status, value, seconds = future.result()
                    if status == "error":
                        raise ExperimentError(f"{failed(key)} failed in worker:\n{value}")
                    on_done(key, value, seconds)
        except BrokenProcessPool as exc:
            raise ExperimentError(
                f"a worker process died while running {died(key)}: {exc!r}"
            ) from exc
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
