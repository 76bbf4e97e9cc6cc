"""Fold one ``cProfile`` run by layer.

A layer is a package under ``src/repro/``; the fold attributes every
profiled function to one by its source file.  Call counts are exact
(the simulator is deterministic), so they can gate a change; self time
is whatever the host made of it and is indicative only.
"""

from __future__ import annotations

import os
from typing import Any, Optional

LAYERS = (
    "sim", "net", "storage", "locks", "fs", "protocols", "mds", "obs",
    "analysis", "exec", "workloads", "campaign", "other",
)

#: Packages folded into a neighbour's layer.
_ALIASES = {"core": "protocols", "harness": "workloads", "faults": "campaign"}

#: Work counts read from the profile: metric -> (source file, function).
#: ``Process._resume`` runs once per generator resumption,
#: ``Network.send`` once per message, ``MetadataStore.apply`` once per
#: applied update, and every lock acquisition attempt — blocking or
#: not — passes through ``LockManager.try_acquire`` exactly once.
COUNTED_FUNCTIONS = {
    "sim.resumes_per_op": ("sim/process.py", "_resume"),
    "net.msgs_per_op": ("net/network.py", "send"),
    "locks.acquires_per_op": ("locks/manager.py", "try_acquire"),
    "fs.applies_per_op": ("fs/store.py", "apply"),
}

_PACKAGE = os.sep + os.path.join("src", "repro") + os.sep
_OWN_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _inside_package(filename: str) -> str:
    """``filename`` relative to ``src/repro/`` with ``/`` separators, or ""."""
    _, found, inside = filename.rpartition(_PACKAGE)
    return inside.replace(os.sep, "/") if found else ""


def layer_of(filename: str) -> str:
    """The layer that owns ``filename`` (a code object's source path)."""
    if filename.startswith(_OWN_DIR):
        # The benchmark's own generator code is load-generator cost.
        return "workloads"
    package = _inside_package(filename).split("/", 1)[0]
    package = _ALIASES.get(package, package)
    # Stdlib, and config.py, cli.py, cache/ and lint/ of the package,
    # are not runtime layers.
    return package if package in LAYERS else "other"


def fold(stats: list[Any], ops: int) -> dict[str, Optional[float]]:
    """Per-layer and per-function metrics from ``Profile.getstats()``.

    Returns ``calls_per_op`` (all layers), ``<layer>.calls_per_op`` and
    ``<layer>.self_share`` for every layer, and the
    :data:`COUNTED_FUNCTIONS` — ``None``, never 0, when the layer ran
    but the profile has no function of that name in that file.
    """
    calls = dict.fromkeys(LAYERS, 0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    counted = dict.fromkeys(COUNTED_FUNCTIONS.values(), 0)
    for entry in stats:
        code = entry.code
        if isinstance(code, str):  # a builtin
            layer = "other"
        else:
            layer = layer_of(code.co_filename)
            key = (_inside_package(code.co_filename), code.co_name)
            if key in counted:
                counted[key] += entry.callcount
        calls[layer] += entry.callcount
        self_time[layer] += entry.inlinetime
    total_time = sum(self_time.values())
    out: dict[str, Optional[float]] = {"calls_per_op": sum(calls.values()) / ops}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
        out[f"{layer}.self_share"] = self_time[layer] / total_time
    for metric, key in COUNTED_FUNCTIONS.items():
        ran = calls[metric.split(".", 1)[0]] > 0
        out[metric] = None if ran and not counted[key] else counted[key] / ops
    return out
