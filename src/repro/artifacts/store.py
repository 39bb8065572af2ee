"""Versioned, content-addressed store of warm plan state.

One :class:`ArtifactStore` unifies the four warm-state caches that
previously each carried their own ad-hoc keying and persistence story:
stencil/CSR caches (:mod:`repro.core.stencil`), Horner kernel fits
(:mod:`repro.kernels.es_kernel`), tuning wisdom (:mod:`repro.tuning.cache`)
and Toeplitz PSF kernels (:mod:`repro.solve.toeplitz`).  A
:class:`~repro.service.TransformService` pointed at the same store directory
pre-warms pooled plans from it at startup, so a restarted process answers its
first request without recomputing any of that state.

Artifacts come in two flavors:

* **array kinds** -- one ``.npz`` file per entry under ``root/<kind>/``,
  named by a digest of the entry key, with a JSON ``__meta__`` member
  carrying the schema version and the full key (collision guard).  Loads use
  ``allow_pickle=False``; all returned arrays are read-only.
* **record kinds** -- one tolerant JSON table per kind (``root/<kind>.json``,
  the PR 4 tuning-cache layout: ``{"schema": v, "entries": {...}}``), so an
  existing ``REPRO_TUNING_CACHE`` file keeps working unchanged.

Robustness contract (generalizing the PR 4 :class:`~repro.tuning.TuningCache`
guarantees, pinned by ``tests/test_artifacts.py``):

* writes are **atomic** (temp file + ``os.replace``): a concurrent reader can
  never observe a torn file produced by this module;
* a **corrupt, truncated or unreadable** artifact never raises -- it counts
  as ``corrupt`` in :class:`ArtifactStats` and the caller recomputes;
* an entry with the **wrong schema version** (or a digest-colliding key) is
  skipped individually, counted as ``stale``, and recomputed;
* builds are **single-flight**: concurrent :meth:`ArtifactStore.get_or_build`
  calls for one key coordinate through a per-key lock, so exactly one thread
  pays the build.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..core import env as _env

__all__ = [
    "ArtifactStore",
    "ArtifactStats",
    "ARRAY_KINDS",
    "RECORD_KINDS",
    "default_store",
    "reset_default_store",
]

#: Built-in array kinds and their schema versions (bump on layout change;
#: mismatched entries are skipped as stale and rebuilt).
ARRAY_KINDS = {"stencil": 6, "horner": 1, "psf": 1}

#: Built-in record kinds (tolerant JSON tables) and their schema versions.
RECORD_KINDS = {"tuning": 1, "plans": 1}

#: Default in-memory LRU bound per array kind (entries, not bytes).  Horner
#: fits are tiny and hot (the bound mirrors the ``lru_cache(maxsize=64)``
#: they replace); stencils and PSF kernels are large, so only a few stay
#: resident and the disk tier serves the rest.
_DEFAULT_MAX_MEMORY = {"horner": 64, "stencil": 8, "psf": 8}

_EVENTS = ("hit", "miss", "stale", "corrupt", "build")

#: npz member reserved for the entry's JSON metadata.
_META_MEMBER = "__meta__"


@dataclass
class ArtifactStats:
    """Counters of store traffic, aggregate and per kind.

    ``hits``/``misses`` count lookups; ``stale`` counts entries skipped for a
    schema-version (or key-collision) mismatch; ``corrupt`` counts unreadable
    or torn entries; ``builds`` counts builder invocations through
    :meth:`ArtifactStore.get_or_build` -- the counter the zero-recomputation
    steady-state tests pin at zero against a warmed store.
    """

    hits: int = 0
    misses: int = 0
    stale: int = 0
    corrupt: int = 0
    builds: int = 0
    by_kind: dict = field(default_factory=dict)

    _FIELD = {"hit": "hits", "miss": "misses", "stale": "stale",
              "corrupt": "corrupt", "build": "builds"}

    def record(self, kind, event):
        """Count one ``event`` (a member of ``("hit", "miss", ...)``)."""
        attr = self._FIELD[event]
        setattr(self, attr, getattr(self, attr) + 1)
        per = self.by_kind.setdefault(kind, dict.fromkeys(self._FIELD.values(), 0))
        per[attr] += 1

    def snapshot(self):
        """Plain-dict copy of the aggregate counters."""
        return {attr: getattr(self, attr) for attr in self._FIELD.values()}


class _ArrayKind:
    def __init__(self, version, max_memory):
        self.version = int(version)
        self.max_memory = int(max_memory)
        self.memory = OrderedDict()  # key -> {name: ndarray}


class _RecordKind:
    def __init__(self, version, validate, path):
        self.version = int(version)
        self.validate = validate
        self.path = path
        self.entries = {}
        self.load_error = None
        self.skipped_entries = 0


class ArtifactStore:
    """One versioned cache layer for all warm plan state.

    Parameters
    ----------
    root : str or None
        Directory persisting the artifacts (created on first write).
        ``None`` keeps every kind in memory only -- same API, no disk tier --
        which is the default for ad-hoc plans; services and benchmarks pass a
        directory so warm state survives restarts.
    kinds : bool
        Register the built-in kinds (:data:`ARRAY_KINDS`,
        :data:`RECORD_KINDS`) at construction.  Disable only in tests that
        exercise custom kinds.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.artifacts import ArtifactStore
    >>> store = ArtifactStore()                       # in-memory
    >>> built = store.get_or_build("horner", "w4.demo",
    ...                            lambda: {"coeffs": np.eye(2)})
    >>> again = store.get_or_build("horner", "w4.demo",
    ...                            lambda: {"coeffs": np.zeros(1)})
    >>> bool(np.array_equal(again["coeffs"], np.eye(2)))  # cached, not rebuilt
    True
    >>> store.stats.builds, store.stats.hits
    (1, 1)
    """

    def __init__(self, root=None, kinds=True):
        self.root = os.fspath(root) if root is not None else None
        self.stats = ArtifactStats()
        self._lock = threading.RLock()
        self._inflight = {}
        self._inflight_lock = threading.Lock()
        self._array_kinds = {}
        self._record_kinds = {}
        if kinds:
            for kind, version in ARRAY_KINDS.items():
                self.register_array_kind(
                    kind, version,
                    max_memory=_DEFAULT_MAX_MEMORY.get(kind, 8),
                )
            for kind, version in RECORD_KINDS.items():
                self.register_record_kind(kind, version)

    # ------------------------------------------------------------------ #
    # kind registration
    # ------------------------------------------------------------------ #
    def register_array_kind(self, kind, version, max_memory=8):
        """Register (or re-version) an array kind; returns ``self``.

        ``max_memory`` bounds the in-memory LRU tier (entries); the disk tier
        under ``root/<kind>/`` is unbounded.
        """
        with self._lock:
            self._array_kinds[str(kind)] = _ArrayKind(version, max_memory)
        return self

    def register_record_kind(self, kind, version, validate=None, path=None):
        """Register a record kind (one tolerant JSON table); returns ``self``.

        ``validate`` is an optional per-record predicate applied on load and
        on :meth:`put_record` (the default accepts any dict whose
        ``"version"`` equals the kind's schema version).  ``path`` overrides
        the table's file (default ``root/<kind>.json``; e.g. the tuning
        adapter points it at an arbitrary ``REPRO_TUNING_CACHE`` file).
        """
        kind = str(kind)
        if validate is None:
            version_n = int(version)
            validate = (lambda record: isinstance(record, dict)
                        and record.get("version") == version_n)
        if path is None and self.root is not None:
            path = os.path.join(self.root, f"{kind}.json")
        rk = _RecordKind(version, validate, path)
        with self._lock:
            self._record_kinds[kind] = rk
            self._load_records(rk)
        return self

    def _array_kind(self, kind):
        try:
            return self._array_kinds[kind]
        except KeyError:
            raise KeyError(
                f"unregistered array kind {kind!r}; "
                f"known: {sorted(self._array_kinds)}"
            ) from None

    def _record_kind(self, kind):
        try:
            return self._record_kinds[kind]
        except KeyError:
            raise KeyError(
                f"unregistered record kind {kind!r}; "
                f"known: {sorted(self._record_kinds)}"
            ) from None

    # ------------------------------------------------------------------ #
    # array kinds
    # ------------------------------------------------------------------ #
    @staticmethod
    def _entry_name(key):
        return hashlib.blake2b(str(key).encode(), digest_size=16).hexdigest()

    def _entry_path(self, kind, key):
        return os.path.join(self.root, kind, self._entry_name(key) + ".npz")

    def load_arrays(self, kind, key, count=True):
        """The stored arrays for ``(kind, key)``, or ``None`` on a miss.

        Returns a ``{name: ndarray}`` mapping of read-only arrays.  Corrupt
        or stale entries are counted and treated as misses -- loading never
        raises on bad files.
        """
        ak = self._array_kind(kind)
        key = str(key)
        with self._lock:
            arrays = ak.memory.get(key)
            if arrays is not None:
                ak.memory.move_to_end(key)
                if count:
                    self.stats.record(kind, "hit")
                return dict(arrays)
        arrays = self._load_arrays_disk(ak, kind, key, count)
        if arrays is not None:
            self._remember(ak, key, arrays)
            if count:
                self.stats.record(kind, "hit")
            return dict(arrays)
        if count:
            self.stats.record(kind, "miss")
        return None

    def _load_arrays_disk(self, ak, kind, key, count=True):
        if self.root is None:
            return None
        path = self._entry_path(kind, key)
        if not os.path.exists(path):
            return None
        try:
            with np.load(path, allow_pickle=False) as npz:
                if _META_MEMBER not in npz.files:
                    raise ValueError("artifact has no __meta__ member")
                meta = json.loads(bytes(npz[_META_MEMBER].tobytes()).decode())
                if not isinstance(meta, dict):
                    raise ValueError("artifact __meta__ is not a mapping")
                if meta.get("version") != ak.version or meta.get("key") != key:
                    # Wrong schema version, or a digest collision with some
                    # other key: skip this entry individually.
                    if count:
                        self.stats.record(kind, "stale")
                    return None
                arrays = {}
                for name in npz.files:
                    if name == _META_MEMBER:
                        continue
                    arr = np.asarray(npz[name])
                    arr.setflags(write=False)
                    arrays[name] = arr
                return arrays
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile,
                json.JSONDecodeError, UnicodeDecodeError):
            if count:
                self.stats.record(kind, "corrupt")
            return None

    def _remember(self, ak, key, arrays):
        with self._lock:
            ak.memory[key] = arrays
            ak.memory.move_to_end(key)
            while len(ak.memory) > ak.max_memory:
                ak.memory.popitem(last=False)

    def save_arrays(self, kind, key, arrays):
        """Store ``{name: ndarray}`` under ``(kind, key)``; atomic on disk."""
        ak = self._array_kind(kind)
        key = str(key)
        stored = {}
        for name, arr in arrays.items():
            if name == _META_MEMBER:
                raise ValueError(f"array name {_META_MEMBER!r} is reserved")
            arr = np.asarray(arr)
            arr.setflags(write=False)
            stored[name] = arr
        self._remember(ak, key, stored)
        if self.root is None:
            return
        meta = json.dumps({"version": ak.version, "key": key})
        meta_arr = np.frombuffer(meta.encode(), dtype=np.uint8)
        directory = os.path.join(self.root, kind)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{kind}-", suffix=".npz",
                                   dir=directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **{_META_MEMBER: meta_arr}, **stored)
            os.replace(tmp, self._entry_path(kind, key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get_or_build(self, kind, key, builder):
        """The arrays for ``(kind, key)``, building (once) on a miss.

        ``builder`` is a zero-argument callable returning ``{name: ndarray}``;
        concurrent calls for the same key single-flight through a per-key
        lock, so the builder runs at most once per miss even under races.
        Every build is persisted before being returned.
        """
        arrays = self.load_arrays(kind, key)
        if arrays is not None:
            return arrays
        token = (str(kind), str(key))
        with self._inflight_lock:
            lock = self._inflight.setdefault(token, threading.Lock())
        with lock:
            # Another thread may have built while this one waited.
            arrays = self.load_arrays(kind, key, count=False)
            if arrays is not None:
                return arrays
            built = builder()
            self.stats.record(kind, "build")
            self.save_arrays(kind, key, built)
            arrays = self.load_arrays(kind, key, count=False)
        with self._inflight_lock:
            self._inflight.pop(token, None)
        return arrays

    # ------------------------------------------------------------------ #
    # record kinds (tolerant JSON tables, the PR 4 tuning-cache layout)
    # ------------------------------------------------------------------ #
    def _load_records(self, rk):
        """Tolerantly (re)load one record table (caller holds the lock)."""
        rk.entries = {}
        rk.load_error = None
        rk.skipped_entries = 0
        if rk.path is None or not os.path.exists(rk.path):
            return
        try:
            with open(rk.path) as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict) or not isinstance(raw.get("entries"), dict):
                raise ValueError("record table has no 'entries' mapping")
        except (OSError, ValueError) as exc:
            rk.load_error = f"{type(exc).__name__}: {exc}"
            return
        for key, record in raw["entries"].items():
            if rk.validate(record):
                rk.entries[key] = record
            else:
                rk.skipped_entries += 1

    def _save_records_locked(self, rk):
        """Atomically rewrite one record table (caller holds the lock)."""
        if rk.path is None:
            return
        payload = {"schema": rk.version, "entries": rk.entries}
        directory = os.path.dirname(os.path.abspath(rk.path)) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".records-", suffix=".json",
                                   dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
            os.replace(tmp, rk.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def get_record(self, kind, key, count=True):
        """The record stored under ``(kind, key)``, or ``None``."""
        with self._lock:
            rk = self._record_kind(kind)
            record = rk.entries.get(str(key))
            if count:
                self.stats.record(kind, "hit" if record is not None else "miss")
            return dict(record) if record is not None else None

    def put_record(self, kind, key, record):
        """Store ``record`` under ``(kind, key)`` and persist atomically."""
        with self._lock:
            rk = self._record_kind(kind)
            if not rk.validate(record):
                raise ValueError(
                    f"malformed {kind!r} record for {key!r} "
                    f"(schema version {rk.version})"
                )
            rk.entries[str(key)] = dict(record)
            self._save_records_locked(rk)

    def record_keys(self, kind):
        """Snapshot of the keys stored under record kind ``kind``."""
        with self._lock:
            return list(self._record_kind(kind).entries)

    def record_count(self, kind):
        """Number of records stored under ``kind``."""
        with self._lock:
            return len(self._record_kind(kind).entries)

    def clear_records(self, kind):
        """Drop every record of ``kind`` (and rewrite its table)."""
        with self._lock:
            rk = self._record_kind(kind)
            rk.entries = {}
            self._save_records_locked(rk)

    def record_load_error(self, kind):
        """Description of the kind's last failed table load, or ``None``."""
        with self._lock:
            return self._record_kind(kind).load_error

    def record_skipped(self, kind):
        """Entries skipped (bad schema/shape) loading the kind's table."""
        with self._lock:
            return self._record_kind(kind).skipped_entries

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def describe(self):
        """One-line summary for service reports."""
        where = self.root if self.root is not None else "in-memory"
        s = self.stats
        return (f"artifacts[{where}]: {s.hits} hits, {s.misses} misses, "
                f"{s.stale} stale, {s.corrupt} corrupt, {s.builds} builds")


# --------------------------------------------------------------------------- #
# process-wide default store
# --------------------------------------------------------------------------- #
_default_store = None
_default_store_lock = threading.Lock()


def default_store():
    """Process-wide shared :class:`ArtifactStore`.

    Rooted at the directory named by the ``REPRO_ARTIFACT_STORE`` environment
    variable when set, in-memory otherwise.  This is the store the Horner
    coefficient cache uses when no explicit store is supplied, mirroring
    :func:`repro.tuning.default_autotuner`.
    """
    global _default_store
    with _default_store_lock:
        if _default_store is None:
            _default_store = ArtifactStore(root=_env.artifact_store_path())
        return _default_store


def reset_default_store():
    """Drop the process-wide store so the next use re-reads the environment.

    Primarily for tests that flip ``REPRO_ARTIFACT_STORE`` mid-process.
    """
    global _default_store
    with _default_store_lock:
        _default_store = None
