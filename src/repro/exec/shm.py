"""Zero-copy shared-memory transport for large ndarray payloads.

Profiling of the parallel campaigns showed the process boundary, not the
math, as the next speed rung: every :meth:`ParallelEvaluator.map` task
is pickled into the executor's pipe, so an 8 MB ndarray payload costs
two full copies plus pipe traffic *per task*.  This module moves those
bytes through ``multiprocessing.shared_memory`` instead:

- the parent-side :class:`ShmArena` **registers** each large array once
  by content digest (one memcpy into a named segment, deduplicated
  across tasks and across retries via an ``(id, nbytes)`` digest memo);
- only a tiny :class:`ShmDescriptor` -- ``(segment name, shape, dtype,
  nbytes, digest)`` -- rides through the pickle boundary;
- the worker **attaches** the segment and hands the kernel a zero-copy
  read-only ndarray view; attachments are memoized per worker process
  for the duration of one map, so every batch item in a chunk (and
  every later chunk of that map) referencing the same digest reuses
  the mapped buffer instead of re-attaching;
- segments are **refcounted** on the parent: each map (or in-flight
  shard request) holds a lease, release drops it, and the arena unlinks
  at zero -- optionally parking a few zero-ref segments in an LRU so
  the next map with the same payload skips the copy-in too.

Crash safety: the *parent* owns every segment, so a worker killed with
SIGKILL mid-chunk cannot orphan anything -- its attachment dies with its
address space and the parent's ``finally``-path release still runs.
Attachments deliberately unregister from the worker's
``resource_tracker`` (which would otherwise unlink shared segments when
the first worker exits -- the well-known bpo-38119 footgun); the owning
process keeps its registration as a last-resort leak net behind
:meth:`ShmArena.close`.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.errors import StateError, ValidationError
from repro.obs.metrics import get_metrics

#: Default auto-transport threshold: arrays at or above this many bytes
#: are worth a shared-memory hop instead of a pickle copy.
DEFAULT_THRESHOLD_BYTES = 1 << 20

#: Worker-side attachment cache bound (segments, LRU-evicted).
MAX_ATTACHMENTS = 32


@dataclass(frozen=True)
class ShmDescriptor:
    """Wire form of one shared ndarray: everything a receiver needs to
    attach a zero-copy view, nothing else crosses the boundary."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    nbytes: int
    digest: str

    def attach(self) -> np.ndarray:
        """A read-only ndarray view of the named segment (memoized per
        process; see :func:`attach_view`)."""
        return attach_view(self)


def array_digest(arr: np.ndarray) -> str:
    """Content digest of *arr* (dtype + shape + raw bytes).

    blake2b rather than sha256: this hash gates the transport hot path
    and carries no cross-run persistence contract, so the faster
    primitive wins.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.dtype).encode("utf-8"))
    h.update(repr(arr.shape).encode("utf-8"))
    h.update(np.ascontiguousarray(arr).view(np.uint8).reshape(-1).data)
    return h.hexdigest()


def _shippable(value: Any, threshold: int) -> bool:
    return (
        isinstance(value, np.ndarray)
        and value.nbytes >= threshold
        and value.nbytes > 0
        and not value.dtype.hasobject
    )


class _Segment:
    """One owned shared-memory segment and its lease count."""

    __slots__ = ("shm", "descriptor", "refcount")

    def __init__(self, shm: shared_memory.SharedMemory,
                 descriptor: ShmDescriptor) -> None:
        self.shm = shm
        self.descriptor = descriptor
        self.refcount = 0


#: Names created by arenas of *this* process; the attach path consults
#: it so a same-process attach never strips the owner's resource-tracker
#: registration (the last-resort leak net).
_OWNED_NAMES: set = set()


class ShmArena:
    """Owner-side registry of content-addressed shared-memory payloads.

    ``cache_segments`` parks up to that many zero-reference segments
    instead of unlinking them, so back-to-back maps over the same
    payload (retries, warm sweeps) skip both the digest's copy-in and
    the segment churn.  All methods are thread-safe: serving shards
    register and release from concurrent submit/pump threads.
    """

    def __init__(
        self,
        cache_segments: int = 8,
        digest_memo_size: int = 64,
    ) -> None:
        if cache_segments < 0:
            raise ValidationError("cache_segments must be >= 0")
        if digest_memo_size < 1:
            raise ValidationError("digest_memo_size must be >= 1")
        self.cache_segments = cache_segments
        self._lock = threading.Lock()
        self._segments: Dict[str, _Segment] = {}
        self._idle: "OrderedDict[str, _Segment]" = OrderedDict()
        self._digest_memo: "OrderedDict[Tuple[int, int], Tuple[Any, str]]" = (
            OrderedDict()
        )
        self._digest_memo_size = digest_memo_size
        self._closed = False
        # Counters (under the lock).
        self._registered = 0
        self._segments_created = 0
        self._segments_reused = 0
        self._digest_memo_hits = 0
        self._bytes_copied_in = 0
        self._bytes_leased = 0
        self._unlinked = 0
        atexit.register(self.close)

    # ---------------------------------------------------------- digesting

    def _content_digest(self, arr: np.ndarray) -> str:
        """:func:`array_digest`, memoized by ``(id, nbytes)`` with a
        strong reference -- a retried or re-mapped payload object never
        re-hashes its gigabytes."""
        key = (id(arr), arr.nbytes)
        entry = self._digest_memo.get(key)
        if entry is not None and entry[0] is arr:
            self._digest_memo_hits += 1
            self._digest_memo.move_to_end(key)
            return entry[1]
        digest = array_digest(arr)
        self._digest_memo[key] = (arr, digest)
        self._digest_memo.move_to_end(key)
        while len(self._digest_memo) > self._digest_memo_size:
            self._digest_memo.popitem(last=False)
        return digest

    # -------------------------------------------------------- registration

    def register(self, arr: np.ndarray) -> ShmDescriptor:
        """Place *arr* in shared memory (or find it there by content)
        and lease it; returns the wire descriptor.  Every successful
        register must be paired with one :meth:`release`."""
        if not isinstance(arr, np.ndarray):
            raise ValidationError("only ndarrays are arena payloads")
        if arr.nbytes == 0 or arr.dtype.hasobject:
            raise ValidationError(
                "empty or object-dtype arrays cannot ride shared memory"
            )
        registry = get_metrics()
        start = time.perf_counter() if registry.enabled else 0.0
        with self._lock:
            if self._closed:
                raise StateError("arena is closed")
            digest = self._content_digest(arr)
            self._registered += 1
            segment = self._segments.get(digest)
            if segment is None:
                segment = self._idle.pop(digest, None)
                if segment is not None:
                    self._segments[digest] = segment
            if segment is None:
                segment = self._create_segment(arr, digest)
                self._segments[digest] = segment
            else:
                self._segments_reused += 1
            segment.refcount += 1
            self._bytes_leased += segment.descriptor.nbytes
            descriptor = segment.descriptor
        if registry.enabled:
            registry.observe("shm.register", time.perf_counter() - start)
            registry.inc("shm.bytes_leased", descriptor.nbytes)
        return descriptor

    def _create_segment(self, arr: np.ndarray, digest: str) -> _Segment:
        contiguous = np.ascontiguousarray(arr)
        shm = shared_memory.SharedMemory(create=True, size=contiguous.nbytes)
        _OWNED_NAMES.add(shm.name)
        view = np.ndarray(
            contiguous.shape, dtype=contiguous.dtype, buffer=shm.buf
        )
        view[...] = contiguous
        del view
        self._segments_created += 1
        self._bytes_copied_in += contiguous.nbytes
        descriptor = ShmDescriptor(
            name=shm.name,
            shape=tuple(int(d) for d in contiguous.shape),
            dtype=str(contiguous.dtype),
            nbytes=int(contiguous.nbytes),
            digest=digest,
        )
        return _Segment(shm, descriptor)

    def release(self, digest: str) -> None:
        """Drop one lease on *digest*; the last lease parks the segment
        in the idle LRU (or unlinks it when the LRU is full/disabled)."""
        with self._lock:
            segment = self._segments.get(digest)
            if segment is None:
                return  # already unlinked (idempotent for crash paths)
            segment.refcount -= 1
            if segment.refcount > 0:
                return
            del self._segments[digest]
            if self.cache_segments > 0 and not self._closed:
                self._idle[digest] = segment
                self._idle.move_to_end(digest)
                while len(self._idle) > self.cache_segments:
                    _, evicted = self._idle.popitem(last=False)
                    self._unlink(evicted)
            else:
                self._unlink(segment)

    def release_all(self, digests: List[str]) -> None:
        for digest in digests:
            self.release(digest)

    def _unlink(self, segment: _Segment) -> None:
        _OWNED_NAMES.discard(segment.shm.name)
        try:
            segment.shm.close()
        except BufferError:  # a live local view pins the mapping
            pass
        try:
            # Workers sharing this process's resource tracker (spawn
            # children inherit the tracker fd) may have stripped the
            # name when their attach path untracked it; re-registering
            # is set-idempotent and keeps unlink's internal unregister
            # from logging a KeyError in the tracker process.
            from multiprocessing import resource_tracker

            resource_tracker.register(segment.shm._name, "shared_memory")
        except Exception:
            pass
        try:
            segment.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass
        self._unlinked += 1

    # ------------------------------------------------------------ payloads

    def encode(
        self, obj: Any, threshold: int = DEFAULT_THRESHOLD_BYTES
    ) -> Tuple[Any, List[str]]:
        """*obj* with every large ndarray swapped for a leased
        :class:`ShmDescriptor`, plus the lease digests to release once
        the receiver is done.

        The walk covers the task vocabulary of the executor (dicts,
        lists, tuples, top-level arrays); anything else pickles as
        before.  Containers are rebuilt only on the spine that actually
        holds a large array.
        """
        leases: List[str] = []
        registry = get_metrics()
        start = time.perf_counter() if registry.enabled else 0.0
        encoded = self._encode(obj, threshold, leases)
        if registry.enabled and leases:
            registry.observe("shm.encode", time.perf_counter() - start)
        return encoded, leases

    def _encode(self, obj: Any, threshold: int, leases: List[str]) -> Any:
        if _shippable(obj, threshold):
            descriptor = self.register(obj)
            leases.append(descriptor.digest)
            return descriptor
        if isinstance(obj, dict):
            items = {
                k: self._encode(v, threshold, leases) for k, v in obj.items()
            }
            if all(items[k] is obj[k] for k in items):
                return obj
            return items
        if isinstance(obj, (list, tuple)):
            items = [self._encode(v, threshold, leases) for v in obj]
            if all(new is old for new, old in zip(items, obj)):
                return obj
            return type(obj)(items)
        return obj

    # ---------------------------------------------------------- accounting

    def active_digests(self) -> List[str]:
        """Digests currently leased (leak checks assert this empties)."""
        with self._lock:
            return sorted(self._segments)

    def active_segment_names(self) -> List[str]:
        """Shared-memory names this arena still owns, leased or idle --
        exactly the set :meth:`close` would unlink."""
        with self._lock:
            names = [s.shm.name for s in self._segments.values()]
            names.extend(s.shm.name for s in self._idle.values())
            return sorted(names)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "registered": self._registered,
                "segments_created": self._segments_created,
                "segments_reused": self._segments_reused,
                "segments_active": len(self._segments),
                "segments_idle": len(self._idle),
                "segments_unlinked": self._unlinked,
                "digest_memo_hits": self._digest_memo_hits,
                "bytes_copied_in": self._bytes_copied_in,
                "bytes_leased": self._bytes_leased,
            }

    # ----------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Unlink every segment (leased or idle).  Idempotent; also
        registered via ``atexit`` so an abandoned arena cannot leak
        ``/dev/shm`` entries past process exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments = list(self._segments.values()) + list(
                self._idle.values()
            )
            self._segments.clear()
            self._idle.clear()
            self._digest_memo.clear()
        for segment in segments:
            self._unlink(segment)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------- receiver side

_ATTACH_LOCK = threading.Lock()
_ATTACHMENTS: "OrderedDict[str, Tuple[shared_memory.SharedMemory, np.ndarray]]" = (
    OrderedDict()
)


def attach_view(descriptor: ShmDescriptor) -> np.ndarray:
    """A zero-copy read-only ndarray over *descriptor*'s segment.

    The underlying mapping is memoized per process and reused across
    batch items in a chunk and across chunks (bounded LRU of
    ``MAX_ATTACHMENTS`` segments), so repeated payloads cost a dict hit,
    not an mmap.  Read-only because the segment is shared by every
    worker: a kernel that wants scratch space copies explicitly.
    """
    registry = get_metrics()
    start = time.perf_counter() if registry.enabled else 0.0
    with _ATTACH_LOCK:
        cached = _ATTACHMENTS.get(descriptor.name)
        if cached is not None:
            _ATTACHMENTS.move_to_end(descriptor.name)
            base = cached[1]
        else:
            shm = shared_memory.SharedMemory(name=descriptor.name)
            if descriptor.name not in _OWNED_NAMES:
                _untrack(shm)
            base = np.ndarray(
                descriptor.shape,
                dtype=np.dtype(descriptor.dtype),
                buffer=shm.buf[: descriptor.nbytes],
            )
            base.flags.writeable = False
            _ATTACHMENTS[descriptor.name] = (shm, base)
            while len(_ATTACHMENTS) > MAX_ATTACHMENTS:
                _evict_oldest_attachment()
    if registry.enabled:
        registry.observe("shm.attach", time.perf_counter() - start)
    view = base.view()
    view.flags.writeable = False
    return view


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach *shm* from this process's resource tracker.

    An attaching process registers the segment with its own tracker,
    which unlinks it when that process exits -- destroying the segment
    for the owner and every sibling worker (bpo-38119).  Attachments are
    views, not owners; the creating arena keeps the only registration.
    """
    try:  # pragma: no cover - exercised only inside pool workers
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _evict_oldest_attachment() -> None:
    name, (shm, base) = _ATTACHMENTS.popitem(last=False)
    del base
    try:
        shm.close()
    except BufferError:
        # A decoded view from an earlier task is still alive; the
        # mapping stays valid until those references drop, we just stop
        # caching it.
        pass


def detach_all() -> None:
    """Drop every cached attachment (tests and worker teardown)."""
    with _ATTACH_LOCK:
        while _ATTACHMENTS:
            _evict_oldest_attachment()


def decode_payload(obj: Any) -> Any:
    """*obj* with every :class:`ShmDescriptor` replaced by its attached
    zero-copy view (inverse of :meth:`ShmArena.encode`)."""
    if isinstance(obj, ShmDescriptor):
        return attach_view(obj)
    if isinstance(obj, dict):
        items = {k: decode_payload(v) for k, v in obj.items()}
        if all(items[k] is obj[k] for k in items):
            return obj
        return items
    if isinstance(obj, (list, tuple)):
        items = [decode_payload(v) for v in obj]
        if all(new is old for new, old in zip(items, obj)):
            return obj
        return type(obj)(items)
    return obj


def payload_bytes(obj: Any, threshold: int = 1) -> int:
    """Total bytes of shippable ndarrays inside *obj* (the auto-transport
    trigger measurement; cheap -- no hashing, no copies)."""
    if _shippable(obj, threshold):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(payload_bytes(v, threshold) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(payload_bytes(v, threshold) for v in obj)
    return 0


_MAP_IDS = itertools.count()
_current_map: Optional[int] = None


def _enter_map(map_id: int) -> None:
    """Scope the attachment cache to one map: a worker outlives many
    maps, and the segments of finished ones are already unlinked by
    their arena, so holding their mappings would only pin memory."""
    global _current_map
    with _ATTACH_LOCK:
        if map_id != _current_map:
            _current_map = map_id
            while _ATTACHMENTS:
                _evict_oldest_attachment()


class ShmFunction:
    """Picklable callable: decode the task's descriptors, then run the
    wrapped function.  This is the worker-side half of the transport --
    the executor submits ``ShmFunction(fn)`` over encoded tasks, one
    instance (and so one ``map_id``) per map."""

    __slots__ = ("fn", "map_id")

    def __init__(self, fn: Any) -> None:
        self.fn = fn
        self.map_id = next(_MAP_IDS)

    def __call__(self, task: Any) -> Any:
        _enter_map(self.map_id)
        return self.fn(decode_payload(task))


__all__ = [
    "DEFAULT_THRESHOLD_BYTES",
    "MAX_ATTACHMENTS",
    "ShmArena",
    "ShmDescriptor",
    "ShmFunction",
    "array_digest",
    "attach_view",
    "decode_payload",
    "detach_all",
    "payload_bytes",
]
