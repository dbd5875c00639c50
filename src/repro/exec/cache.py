"""Content-addressed result caching for simulator evaluations.

Every quantitative artifact of the paper is produced by grids of
*pure* evaluations: the result of a cell is a deterministic function of
its configuration (design point, campaign coordinates, crossbar spec).
:class:`ResultCache` exploits that purity -- the cache key is the
SHA-256 digest of a canonical-JSON encoding of the configuration, so
identical design points hash to the same key regardless of dict
ordering, tuple-vs-list spelling or numpy scalar types, and a repeated
sweep costs one dictionary lookup per cell instead of a simulation.

The cache is an in-memory LRU (bounded by ``max_entries``) optionally
backed by a single on-disk JSON store written atomically (temp file +
``os.replace``, the :class:`~repro.resilience.checkpoint.CheckpointStore`
pattern), so warm results survive across processes.  A corrupt or
truncated store is *tolerated*: the cache starts empty and rebuilds
rather than refusing to run, because a lost cache is a slowdown while a
crashed campaign is a lost night.  Hit/miss/eviction counters are
exposed via :meth:`ResultCache.stats` so benches can assert reuse
instead of guessing at it.  One cache may be shared by threads (a
service's submitters read it while its dispatcher writes it): every
operation runs under the cache's re-entrant :attr:`ResultCache.lock`.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import json
import os
import sys
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, Optional, Union

from repro.core.api import copy_tree
from repro.core.errors import ValidationError
from repro.obs.metrics import get_metrics


def canonical_payload(
    obj: Any, _seen: FrozenSet[int] = frozenset()
) -> Any:
    """*obj* reduced to a canonical JSON-serializable form.

    Handles the configuration vocabulary of the suite: dataclasses
    (tagged with their class name so two config types with identical
    fields do not collide), enums (by name), mappings with sorted keys,
    sequences, numpy scalars and arrays, and plain JSON scalars.
    Objects outside that vocabulary fall back to their ``__dict__``
    (tagged), keeping e.g. dataflow graphs digestible without a
    registry.  Reference cycles raise :class:`ValidationError` instead
    of recursing forever.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # Normalize -0.0 so the digest matches 0.0.
        return obj + 0.0
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__qualname__, "name": obj.name}
    if "numpy" in sys.modules:
        # No numpy value exists before numpy is imported, so a process
        # that never imports it (a shard serving hits) skips the check.
        # The import statement, unlike a ``sys.modules`` read, waits
        # while another thread is still initializing numpy.
        import numpy as np

        if isinstance(obj, (np.bool_, np.integer, np.floating)):
            return canonical_payload(obj.item())
        if isinstance(obj, np.ndarray):
            return [canonical_payload(v) for v in obj.tolist()]
    if isinstance(obj, type):
        raise ValidationError(
            f"cannot canonicalize class object {obj.__qualname__!r}"
        )
    if id(obj) in _seen:
        raise ValidationError(
            f"reference cycle through {type(obj).__name__!r} while "
            "building a cache digest"
        )
    seen = _seen | {id(obj)}
    if dataclasses.is_dataclass(obj):
        fields = {
            f.name: canonical_payload(getattr(obj, f.name), seen)
            for f in dataclasses.fields(obj)
        }
        return {"__type__": type(obj).__qualname__, **fields}
    if isinstance(obj, dict):
        items = sorted(
            ((str(k), canonical_payload(v, seen)) for k, v in obj.items()),
            key=lambda kv: kv[0],
        )
        return dict(items)
    if isinstance(obj, (list, tuple)):
        return [canonical_payload(v, seen) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(
            (canonical_payload(v, seen) for v in obj),
            key=lambda v: json.dumps(v, sort_keys=True),
        )
    if hasattr(obj, "__dict__"):
        return {
            "__type__": type(obj).__qualname__,
            **{
                str(k): canonical_payload(v, seen)
                for k, v in sorted(vars(obj).items())
            },
        }
    raise ValidationError(
        f"cannot canonicalize {type(obj).__name__!r} for cache digest"
    )


def config_digest(obj: Any) -> str:
    """Stable SHA-256 hex digest of *obj*'s canonical-JSON encoding."""
    encoded = json.dumps(
        canonical_payload(obj),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed evaluation results with LRU bounds and stats.

    Keys are digest strings (:func:`config_digest`); values must be
    JSON-serializable so the disk store round-trips.  ``max_entries``
    bounds the in-memory map (least-recently-used entries are evicted,
    and dropped from the disk store at the next flush); ``None`` means
    unbounded.  ``flush_every`` batches disk writes exactly like
    :class:`~repro.resilience.checkpoint.CheckpointStore`.

    Thread-safe: every operation holds :attr:`lock`, a re-entrant lock
    a caller may also hold to make several calls one atomic step.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        max_entries: Optional[int] = None,
        flush_every: int = 1,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValidationError("max_entries must be >= 1")
        if flush_every < 1:
            raise ValidationError("flush_every must be >= 1")
        self.path = Path(path) if path is not None else None
        self.max_entries = max_entries
        self.flush_every = flush_every
        self._dirty = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._stores = 0
        self._recovered = False
        self.lock = threading.RLock()
        self._records: "OrderedDict[str, Any]" = self._load()

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.lock = threading.RLock()

    def _load(self) -> "OrderedDict[str, Any]":
        if self.path is None or not self.path.exists():
            return OrderedDict()
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("cache store is not a JSON object")
        except (json.JSONDecodeError, ValueError, OSError):
            # A damaged cache is a performance loss, not a failure:
            # start cold and rebuild.
            self._recovered = True
            return OrderedDict()
        records: "OrderedDict[str, Any]" = OrderedDict(data)
        while (
            self.max_entries is not None
            and len(records) > self.max_entries
        ):
            records.popitem(last=False)
            self._evictions += 1
        return records

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, key: str) -> Optional[Any]:
        """The cached value for *key*, or ``None`` on a miss.

        A :meth:`lookup` whose value is deep-copied on the way out (see
        :func:`~repro.core.api.copy_tree`), so callers cannot mutate
        the store.
        """
        # Stored values are replaced, never mutated, so the copy needs
        # no lock.
        return copy_tree(self.lookup(key))

    def lookup(self, key: str) -> Optional[Any]:
        """The stored value for *key*, or ``None`` on a miss, counted
        as a lookup but not copied: a read-only view the caller must
        not mutate.

        Hits refresh the entry's LRU position.  When the metrics
        registry is enabled, lookups are timed into the
        ``cache.get.hit`` / ``cache.get.miss`` histograms.
        """
        registry = get_metrics()
        if not registry.enabled:
            return self._lookup(key)
        start = time.perf_counter()
        value = self._lookup(key)
        registry.observe(
            "cache.get.hit" if value is not None else "cache.get.miss",
            time.perf_counter() - start,
        )
        return value

    def _lookup(self, key: str) -> Optional[Any]:
        with self.lock:
            if key not in self._records:
                self._misses += 1
                return None
            self._records.move_to_end(key)
            self._hits += 1
            return self._records[key]

    def peek(self, key: str) -> Optional[Any]:
        """The stored value for *key* (or ``None``) without counting a
        lookup, refreshing its LRU position or copying it: a read-only
        view the caller must not mutate."""
        with self.lock:
            return self._records.get(key)

    def put(self, key: str, value: Any) -> None:
        """Store *value* under *key*, evicting LRU entries as needed."""
        registry = get_metrics()
        if not registry.enabled:
            return self._put(key, value)
        start = time.perf_counter()
        self._put(key, value)
        registry.observe("cache.put", time.perf_counter() - start)

    def _put(self, key: str, value: Any) -> None:
        value = copy.deepcopy(value)
        with self.lock:
            self._records[key] = value
            self._records.move_to_end(key)
            self._stores += 1
            while (
                self.max_entries is not None
                and len(self._records) > self.max_entries
            ):
                self._records.popitem(last=False)
                self._evictions += 1
            if self.path is not None:
                self._dirty += 1
                if self._dirty >= self.flush_every:
                    self.flush()

    def delete(self, key: str) -> bool:
        """Drop *key* if present (used by :mod:`repro.serve` to keep
        failed evaluations out of the store).  Returns whether the key
        existed; the disk store is rewritten at the next flush."""
        with self.lock:
            if key not in self._records:
                return False
            del self._records[key]
            if self.path is not None:
                self._dirty += 1
                if self._dirty >= self.flush_every:
                    self.flush()
            return True

    def get_or_compute(self, key: str, fn: Callable[[], Any]) -> Any:
        """The cached value for *key*, computing and storing on a miss."""
        value = self.get(key)
        if value is not None:
            return value
        value = fn()
        self.put(key, value)
        return value

    def stats(self) -> Dict[str, Any]:
        """Hit/miss/eviction accounting for benches and CI assertions."""
        with self.lock:
            lookups = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "stores": self._stores,
                "entries": len(self._records),
                "hit_rate": self._hits / lookups if lookups else 0.0,
                "persistent": self.path is not None,
                "recovered_from_corruption": self._recovered,
            }

    def flush(self) -> None:
        """Atomically rewrite the disk store (no-op when memory-only).

        The temp file is private to this process and thread, so two
        writers of one path never replace each other's half-written
        file."""
        if self.path is None:
            return
        tmp = self.path.with_name(
            f"{self.path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        with self.lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(dict(self._records), fh, sort_keys=True)
            os.replace(tmp, self.path)
            self._dirty = 0

    def clear(self) -> None:
        """Drop every entry (and the disk store, if any)."""
        with self.lock:
            self._records = OrderedDict()
            self._dirty = 0
            if self.path is not None and self.path.exists():
                self.path.unlink()

    def close(self) -> None:
        with self.lock:
            if self._dirty:
                self.flush()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
