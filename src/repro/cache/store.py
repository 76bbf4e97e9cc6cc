"""The on-disk result store: atomic entries, index, LRU-ish GC.

Layout under the cache root (``~/.cache/repro`` or ``REPRO_CACHE_DIR``)::

    objects/<key[:2]>/<key>.json   # one canonical-JSON document per cell
    index.json                     # human-facing summary (kind, label, size)

The object files are the source of truth; ``index.json`` is advisory
metadata for ``repro cache stats`` and is rebuilt opportunistically.
Every write — entries and index alike — goes through a temp file in
the destination directory followed by ``os.replace``, so a crashed or
killed process can leave stray ``*.tmp`` droppings (swept by gc/clear)
but never a readable half-entry.  Recency for eviction is the entry
file's mtime, refreshed on every hit.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from repro.cache.fingerprint import code_fingerprint
from repro.exec.clock import utc_now_iso
from repro.exec.results import SCHEMA_VERSION, git_revision
from repro.exec.spec import CellResult, RunSpec
from repro.obs.metrics import MetricsRegistry

_OBJECTS_DIR = "objects"
_INDEX_NAME = "index.json"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def cache_key(spec: RunSpec, fingerprint: str) -> str:
    """Content address of one cell: spec identity + code + schema."""
    material = "\n".join((spec.identity(), fingerprint, f"schema={SCHEMA_VERSION}"))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot; subtract two to get a per-sweep delta."""

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    writes: int = 0

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            bypasses=self.bypasses - other.bypasses,
            writes=self.writes - other.writes,
        )


@dataclass(frozen=True)
class EntryInfo:
    """One on-disk entry, as seen by stats/gc scans."""

    key: str
    path: Path
    nbytes: int
    mtime: float


class ResultCache:
    """Content-addressed store of executed :class:`CellResult` documents.

    ``get``/``put`` are the executor-facing surface; ``entries``,
    ``clear`` and ``gc`` back the ``repro cache`` CLI.  Counters go
    through ``metrics`` (a private :class:`MetricsRegistry` unless one
    is injected) under ``cache.hit`` / ``cache.miss`` /
    ``cache.bypass`` / ``cache.write``.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        fingerprint: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        fsync: bool = False,
    ) -> None:
        self.root = Path(root).expanduser() if root is not None else default_cache_dir()
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.fsync = fsync
        self._git_rev: Optional[str] = None

    # -- addressing ----------------------------------------------------------

    def key_for(self, spec: RunSpec) -> str:
        return cache_key(spec, self.fingerprint)

    def path_for(self, spec: RunSpec) -> Path:
        return self._object_path(self.key_for(spec))

    def _object_path(self, key: str) -> Path:
        return self.root / _OBJECTS_DIR / key[:2] / f"{key}.json"

    # -- the executor-facing surface -----------------------------------------

    def get(self, spec: RunSpec) -> Optional[CellResult]:
        """The cached cell for ``spec``, or ``None`` (counted as a miss).

        A corrupt, truncated or mismatched entry is deleted and treated
        as a miss — a bad document must never be served, only recomputed.
        """
        key = self.key_for(spec)
        path = self._object_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.metrics.inc("cache.miss")
            return None
        try:
            doc = json.loads(text)
            if (
                doc["schema_version"] != SCHEMA_VERSION
                or doc["key"] != key
                or doc["fingerprint"] != self.fingerprint
            ):
                raise ValueError("entry does not match its address")
            cell = CellResult.from_dict(doc["cell"])
        except (ValueError, KeyError, TypeError):
            try:
                path.unlink()
            except OSError:
                pass
            self.metrics.inc("cache.miss")
            return None
        self._touch(path)
        self.metrics.inc("cache.hit")
        return cell

    def put(self, spec: RunSpec, cell: CellResult) -> Path:
        """Write ``cell`` through to disk (atomically) and index it."""
        key = self.key_for(spec)
        path = self._object_path(key)
        doc = {
            "schema_version": SCHEMA_VERSION,
            "key": key,
            "fingerprint": self.fingerprint,
            "spec_identity": spec.identity(),
            "cell": cell.to_dict(),
            "meta": {
                # Provenance only, never hashed.
                "created_at": utc_now_iso(),
                "git_rev": self._git_revision(),
            },
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        self._write_atomic(path, text)
        self.metrics.inc("cache.write")
        self._index_add(key, spec, len(text.encode("utf-8")))
        return path

    def count_bypass(self) -> None:
        """Record a cell that deliberately skipped the cache."""
        self.metrics.inc("cache.bypass")

    def count_miss(self) -> None:
        """Record a forced recompute (``--refresh``) as a miss."""
        self.metrics.inc("cache.miss")

    @property
    def stats(self) -> CacheStats:
        def value(name: str) -> int:
            counter = self.metrics.get_counter(name)
            return int(counter.value) if counter is not None else 0

        return CacheStats(
            hits=value("cache.hit"),
            misses=value("cache.miss"),
            bypasses=value("cache.bypass"),
            writes=value("cache.write"),
        )

    # -- maintenance (repro cache stats/clear/gc) ----------------------------

    def entries(self) -> list[EntryInfo]:
        """Every readable entry on disk (the authoritative scan)."""
        objects = self.root / _OBJECTS_DIR
        found: list[EntryInfo] = []
        if not objects.is_dir():
            return found
        for path in sorted(objects.glob("*/*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue
            found.append(
                EntryInfo(key=path.stem, path=path, nbytes=stat.st_size, mtime=stat.st_mtime)
            )
        return found

    def total_bytes(self) -> int:
        return sum(entry.nbytes for entry in self.entries())

    def clear(self) -> int:
        """Delete every entry (and stray temp files); returns the count."""
        removed = 0
        for entry in self.entries():
            try:
                entry.path.unlink()
            except OSError:
                continue
            removed += 1
        self._sweep_stray_tmp()
        self._write_index({})
        return removed

    def gc(self, max_bytes: int) -> tuple[int, int]:
        """Evict least-recently-used entries until ``<= max_bytes``.

        Recency is the entry file's mtime (refreshed on every hit).
        Returns ``(entries_removed, bytes_freed)``.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = self.entries()
        total = sum(entry.nbytes for entry in entries)
        removed = freed = 0
        for entry in sorted(entries, key=lambda e: (e.mtime, e.key)):
            if total - freed <= max_bytes:
                break
            try:
                entry.path.unlink()
            except OSError:
                continue
            removed += 1
            freed += entry.nbytes
        self._sweep_stray_tmp()
        if removed:
            live = {entry.key for entry in self.entries()}
            index = self._load_index()
            self._write_index({key: meta for key, meta in index.items() if key in live})
        return removed, freed

    def describe(self) -> dict[str, Any]:
        """Plain-data summary for ``repro cache stats``."""
        entries = self.entries()
        index = self._load_index()
        kinds: dict[str, int] = {}
        for entry in entries:
            kind = str(index.get(entry.key, {}).get("kind", "?"))
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(entry.nbytes for entry in entries),
            "kinds": dict(sorted(kinds.items())),
            "fingerprint": self.fingerprint,
        }

    # -- internals -----------------------------------------------------------

    def _git_revision(self) -> str:
        # One subprocess pair per cache instance, not per entry.
        if self._git_rev is None:
            self._git_rev = git_revision()
        return self._git_rev

    def _touch(self, path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    def _write_atomic(self, path: Path, text: str) -> None:
        """Temp file in the destination directory, then ``os.replace``.

        Readers only ever observe a complete document; an interrupted
        write leaves at most an unreadable ``*.tmp`` dropping, which
        :meth:`clear`/:meth:`gc` sweep.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _sweep_stray_tmp(self) -> None:
        strays: list[Path] = []
        if self.root.is_dir():
            strays.extend(self.root.glob("*.tmp"))
        objects = self.root / _OBJECTS_DIR
        if objects.is_dir():
            strays.extend(objects.glob("*/*.tmp"))
        for stray in strays:
            try:
                stray.unlink()
            except OSError:
                pass

    def _load_index(self) -> dict[str, Any]:
        try:
            doc = json.loads((self.root / _INDEX_NAME).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        entries = doc.get("entries")
        return entries if isinstance(entries, dict) else {}

    def _index_add(self, key: str, spec: RunSpec, nbytes: int) -> None:
        index = self._load_index()
        index[key] = {"kind": spec.kind, "label": spec.describe(), "nbytes": nbytes}
        self._write_index(index)

    def _write_index(self, entries: dict[str, Any]) -> None:
        doc = {"schema_version": SCHEMA_VERSION, "entries": entries}
        self._write_atomic(
            self.root / _INDEX_NAME, json.dumps(doc, sort_keys=True, indent=2) + "\n"
        )
