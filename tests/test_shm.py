"""Tests for the zero-copy shared-memory transport.

The transport's contract has three legs: descriptors round-trip any
shippable ndarray bit-exactly (property-tested), the owning arena never
leaks a segment -- not even when a worker is SIGKILLed mid-chunk -- and
:class:`~repro.exec.parallel.ParallelEvaluator` results are
byte-identical whether payloads ride pickle or shared memory (with the
thread/serial backends bypassing the transport entirely).
"""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import StateError, ValidationError
from repro.exec import ParallelEvaluator, ResultCache
from repro.exec.shm import (
    DEFAULT_THRESHOLD_BYTES,
    ShmArena,
    ShmDescriptor,
    ShmFunction,
    array_digest,
    decode_payload,
    detach_all,
    payload_bytes,
)


def _segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name.lstrip('/')}")


def _sum_payload(task):
    """Module-level map target: reduce the shipped array (picklable)."""
    return float(task["payload"].sum())


def _attached_segments(task):
    """The segment names this worker holds mapped while running *task*."""
    from repro.exec import shm

    return sorted(shm._ATTACHMENTS)


def _crash_once_then_sum(task):
    """Kill the worker process on first sight of the sentinel file, then
    behave; models an environmental death with shm leases in flight."""
    if not os.path.exists(task["sentinel"]):
        with open(task["sentinel"], "w", encoding="utf-8"):
            pass
        os._exit(13)
    return float(task["payload"].sum())


_DTYPES = st.sampled_from(
    [np.uint8, np.int32, np.int64, np.float32, np.float64]
)


class TestDescriptorRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        dtype=_DTYPES,
        shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=8),
    )
    def test_register_pickle_attach_is_bit_exact(self, data, dtype, shape):
        arr = data.draw(hnp.arrays(dtype=dtype, shape=shape))
        if arr.nbytes == 0:
            return
        with ShmArena(cache_segments=0) as arena:
            descriptor = arena.register(arr)
            try:
                # The wire hop is pickle of the descriptor, never the data.
                wire = pickle.loads(pickle.dumps(descriptor))
                assert isinstance(wire, ShmDescriptor)
                view = wire.attach()
                assert view.dtype == arr.dtype
                assert view.shape == arr.shape
                assert np.array_equal(view, arr, equal_nan=True)
                assert not view.flags.writeable
            finally:
                detach_all()
                arena.release(descriptor.digest)

    def test_attach_is_zero_copy(self):
        arr = np.arange(64, dtype=np.float64)
        with ShmArena() as arena:
            descriptor = arena.register(arr)
            first = descriptor.attach()
            second = descriptor.attach()
            # Same memoized mapping, not a fresh copy per attach.
            assert first.base is second.base or (
                first.__array_interface__["data"][0]
                == second.__array_interface__["data"][0]
            )
            detach_all()
            arena.release(descriptor.digest)


class TestShmArena:
    def test_content_addressing_dedups_equal_payloads(self):
        arr = np.arange(256, dtype=np.int64)
        clone = arr.copy()  # equal bytes, different object
        with ShmArena() as arena:
            d1 = arena.register(arr)
            d2 = arena.register(clone)
            assert d1 == d2
            stats = arena.stats()
            assert stats["segments_created"] == 1
            assert stats["segments_reused"] == 1
            assert array_digest(arr) == d1.digest
            arena.release_all([d1.digest, d2.digest])

    def test_release_parks_idle_segment_for_reuse(self):
        arr = np.arange(128, dtype=np.float64)
        with ShmArena(cache_segments=2) as arena:
            descriptor = arena.register(arr)
            name = descriptor.name
            arena.release(descriptor.digest)
            assert arena.active_digests() == []
            # Parked, not unlinked: the segment file is still there...
            assert name in arena.active_segment_names()
            assert _segment_exists(name)
            # ...so re-registering the same content skips the copy-in.
            again = arena.register(arr)
            assert again.name == name
            assert arena.stats()["segments_reused"] == 1
            arena.release(again.digest)
        assert not _segment_exists(name)

    def test_zero_cache_unlinks_at_last_release(self):
        arr = np.arange(128, dtype=np.float64)
        arena = ShmArena(cache_segments=0)
        descriptor = arena.register(arr)
        name = descriptor.name
        assert _segment_exists(name)
        arena.release(descriptor.digest)
        assert not _segment_exists(name)
        assert arena.stats()["segments_unlinked"] == 1
        arena.close()

    def test_refcount_outlives_intermediate_release(self):
        arr = np.arange(512, dtype=np.int32)
        with ShmArena(cache_segments=0) as arena:
            d1 = arena.register(arr)
            d2 = arena.register(arr)
            arena.release(d1.digest)
            assert _segment_exists(d1.name)  # second lease still holds
            arena.release(d2.digest)
            assert not _segment_exists(d1.name)

    def test_digest_memo_hits_on_same_object(self):
        arr = np.arange(1024, dtype=np.float64)
        with ShmArena() as arena:
            d1 = arena.register(arr)
            d2 = arena.register(arr)
            assert arena.stats()["digest_memo_hits"] >= 1
            arena.release_all([d1.digest, d2.digest])

    def test_rejects_non_shippable_payloads(self):
        with ShmArena() as arena:
            with pytest.raises(ValidationError):
                arena.register([1, 2, 3])
            with pytest.raises(ValidationError):
                arena.register(np.empty(0))
            with pytest.raises(ValidationError):
                arena.register(np.array([object()]))

    def test_closed_arena_rejects_registration(self):
        arena = ShmArena()
        arena.close()
        arena.close()  # idempotent
        with pytest.raises(StateError):
            arena.register(np.arange(8, dtype=np.int64))

    def test_close_unlinks_everything_even_leased(self):
        arr = np.arange(4096, dtype=np.float64)
        arena = ShmArena()
        descriptor = arena.register(arr)
        name = descriptor.name
        arena.close()
        assert not _segment_exists(name)


class TestEncodeDecode:
    def test_nested_payload_round_trip(self):
        big = np.arange(4096, dtype=np.float64)
        small = np.arange(4, dtype=np.float64)
        task = {"big": big, "small": small, "label": "cell",
                "nest": [{"also_big": big}, (1, 2)]}
        with ShmArena() as arena:
            encoded, leases = arena.encode(task, threshold=1024)
            assert isinstance(encoded["big"], ShmDescriptor)
            assert encoded["small"] is small  # below threshold: untouched
            assert isinstance(encoded["nest"][0]["also_big"], ShmDescriptor)
            # One content digest leased twice (big appears twice).
            assert len(leases) == 2
            assert len(set(leases)) == 1
            decoded = decode_payload(encoded)
            assert np.array_equal(decoded["big"], big)
            assert np.array_equal(decoded["nest"][0]["also_big"], big)
            assert decoded["small"] is small
            assert decoded["label"] == "cell"
            detach_all()
            arena.release_all(leases)

    def test_encode_without_large_arrays_is_identity(self):
        task = {"x": np.arange(4, dtype=np.int64), "y": 7}
        with ShmArena() as arena:
            encoded, leases = arena.encode(task, threshold=1 << 20)
            assert encoded is task
            assert leases == []

    def test_payload_bytes_counts_only_shippable(self):
        big = np.zeros(2048, dtype=np.float64)
        task = {"a": big, "b": np.zeros(2, dtype=np.float64), "c": "x",
                "d": [big]}
        threshold = 1024
        assert payload_bytes(task, threshold) == 2 * big.nbytes
        assert payload_bytes({"only": "strings"}, threshold) == 0

    def test_shm_function_decodes_before_call(self):
        arr = np.arange(2048, dtype=np.float64)
        with ShmArena() as arena:
            encoded, leases = arena.encode({"payload": arr}, threshold=1024)
            wrapped = pickle.loads(pickle.dumps(ShmFunction(_sum_payload)))
            assert wrapped(encoded) == float(arr.sum())
            detach_all()
            arena.release_all(leases)


class TestEvaluatorTransport:
    def _payload_tasks(self, count=6, words=1 << 18):
        payload = np.random.default_rng(7).standard_normal(words)
        return [
            {"payload": payload, "sentinel": "", "cell": i}
            for i in range(count)
        ]

    def test_shm_results_byte_identical_to_pickle_and_serial(self):
        tasks = self._payload_tasks()
        serial = [_sum_payload(task) for task in tasks]
        shm_engine = ParallelEvaluator(
            max_workers=2, mode="process", transport="shm",
            shm_threshold_bytes=1 << 10,
        )
        pickle_engine = ParallelEvaluator(
            max_workers=2, mode="process", transport="pickle",
        )
        try:
            assert shm_engine.map(_sum_payload, tasks) == serial
            assert pickle_engine.map(_sum_payload, tasks) == serial
            assert shm_engine.last_transport == "shm"
            assert shm_engine.shm_maps == 1
            assert shm_engine.shm_tasks == len(tasks)
            assert pickle_engine.last_transport == "pickle"
            # Leases drained: nothing left leased after the map.
            assert shm_engine.arena.active_digests() == []
        finally:
            shm_engine.arena.close()

    def test_auto_threshold_switches_transport(self):
        small = [{"payload": np.arange(8, dtype=np.float64),
                  "sentinel": "", "cell": i} for i in range(4)]
        engine = ParallelEvaluator(
            max_workers=2, mode="process", transport="auto",
            shm_threshold_bytes=1 << 12,
        )
        engine.map(_sum_payload, small)
        assert engine.last_transport == "pickle"
        assert engine.shm_maps == 0
        large = self._payload_tasks(count=4, words=1 << 12)
        try:
            engine.map(_sum_payload, large)
            assert engine.last_transport == "shm"
            assert engine.shm_maps == 1
        finally:
            if engine._arena is not None:
                engine._arena.close()

    @pytest.mark.parametrize("mode", ["thread", "serial"])
    def test_thread_and_serial_modes_bypass_shm(self, mode):
        tasks = self._payload_tasks(count=3)
        engine = ParallelEvaluator(
            max_workers=1 if mode == "serial" else 2, mode=mode,
            transport="shm", shm_threshold_bytes=1,
        )
        assert engine.map(_sum_payload, tasks) == [
            _sum_payload(task) for task in tasks
        ]
        assert engine.last_transport == "pickle"
        assert engine.shm_maps == 0
        assert engine._arena is None  # never even built an arena

    def test_sigkill_mid_chunk_orphans_no_segments(self, tmp_path):
        """A worker killed with leases in flight must not leak: the
        parent owns every segment, crash recovery re-dispatches the
        encoded descriptors, and the final release drains the arena."""
        sentinel = str(tmp_path / "crash-once")
        payload = np.random.default_rng(11).standard_normal(1 << 14)
        tasks = [
            {"payload": payload, "sentinel": sentinel, "cell": i}
            for i in range(4)
        ]
        expected = [float(payload.sum())] * len(tasks)
        engine = ParallelEvaluator(
            max_workers=2, mode="process", transport="shm",
            shm_threshold_bytes=1 << 10, crash_retries=2,
        )
        try:
            assert engine.map(_crash_once_then_sum, tasks) == expected
            assert engine.worker_crashes >= 1
            assert engine.arena.active_digests() == []
            names = engine.arena.active_segment_names()
        finally:
            engine.arena.close()
        for name in names:  # idle-parked segments die with the arena
            assert not _segment_exists(name)

    def test_persistent_workers_hold_only_the_current_maps_segments(self):
        engine = ParallelEvaluator(max_workers=2, mode="process",
                                   transport="shm")
        seen = []
        try:
            for i in range(4):
                payload = np.full(1 << 20, float(i))  # 8 MB, distinct
                tasks = [{"payload": payload, "cell": c} for c in range(2)]
                held = engine.map(_attached_segments, tasks)
                assert all(len(names) == 1 for names in held), held
                seen.append(held[0][0])
        finally:
            engine.close()
            engine.arena.close()
        assert len(set(seen)) == 4


class TestResultCacheNdarrayMemo:
    def test_repeated_array_payload_hits_identity_memo(self):
        cache = ResultCache()
        payload = np.arange(1 << 12, dtype=np.float64)
        first = cache.digest(payload)
        second = cache.digest(payload)
        assert first == second
        assert cache.stats()["ndarray_memo_hits"] >= 1
        assert cache.stats()["digest_time_saved_s"] >= 0.0

    def test_equal_content_fresh_object_redigests_consistently(self):
        cache = ResultCache()
        a = np.arange(64, dtype=np.float64)
        b = a.copy()  # different id: memo miss, same canonical digest
        assert cache.digest(a) == cache.digest(b)
        assert cache.stats()["ndarray_memo_hits"] == 0

    def test_different_arrays_digest_differently(self):
        cache = ResultCache()
        a = np.arange(64, dtype=np.float64)
        b = np.arange(1, 65, dtype=np.float64)
        assert cache.digest(a) != cache.digest(b)
