"""The append-only record store behind ``ResultCache`` and
``CheckpointStore``: one decoder for every file, one recovery rule,
and a put cost that stays flat as the store grows."""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.exec.store as store_module
from repro.campaign import CampaignGraph, GraphRunner
from repro.exec import ResultCache
from repro.obs.ledger import get_ledger
from repro.resilience import CheckpointStore

DATA = Path(__file__).parent / "data"

#: An ``indent=1`` whole-object checkpoint written by ``CheckpointStore``
#: before the line format, for :func:`_legacy_graph`.
_LEGACY_CHECKPOINT = DATA / "checkpoint_c6ca907.json"


def _open_cache(path):
    return ResultCache(path=path)


#: Each reader of a store file, by the name of the class.
_READERS = {"cache": _open_cache, "checkpoint": CheckpointStore}


def _loaded(store):
    return {key: store.peek(key) if isinstance(store, ResultCache)
            else store.get(key) for key in store}


def _recovery_events(fn):
    """``fn()``'s value and the ``checkpoint.recovered`` events it
    emitted."""
    ledger = get_ledger()
    ledger.enable()
    ledger.reset()
    try:
        value = fn()
        events = ledger.events()
    finally:
        ledger.disable()
        ledger.reset()
    return value, [e for e in events if e["event"] == "checkpoint.recovered"]


# ------------------------------------------------------- one decoder


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
#: A put's value: any JSON value but ``null``, the deletion marker.
_values = _json.filter(lambda v: v is not None)
_keys = st.sampled_from(["a", "b", 'q"uote', "sp ace", "é", "k,}"])
#: ``(key, value)`` puts and ``(key, None)`` deletes.
_ops = st.lists(
    st.tuples(_keys, _values | st.none()), min_size=1, max_size=10
)


def _write_ops(writer, path, ops):
    """Apply *ops* through *writer*; the file and the expected map
    after each op (index 0 is before the first)."""
    store = _READERS[writer](path)
    state, states, texts = {}, [{}], [""]
    for key, value in ops:
        if value is None:
            if writer == "cache":
                store.delete(key)
                state.pop(key, None)
        elif writer == "cache":
            store.put(key, value)
            state[key] = value
        else:
            store.save(key, value)
            state[key] = value
        states.append(dict(state))
        texts.append(path.read_text() if path.exists() else "")
    return states, texts


def _reopen_all(path, text):
    """*text* reopened by every reader: their loaded maps (which must
    agree) and whether they recovered."""
    path.write_text(text)
    opened = [reader(path) for reader in _READERS.values()]
    maps = [_loaded(store) for store in opened]
    assert maps[0] == maps[1]
    assert opened[0].stats()["recovered_from_corruption"] == opened[1].recovered
    return maps[0], opened[1].recovered


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=_ops, writer=st.sampled_from(sorted(_READERS)),
       flip=st.tuples(st.integers(0, 10**4), st.integers(1, 255)))
def test_every_cut_loads_a_prefix_state(tmp_path, ops, writer, flip):
    path = tmp_path / f"{writer}.json"
    path.unlink(missing_ok=True)
    states, texts = _write_ops(writer, path, ops)
    final = texts[-1]
    assert _reopen_all(tmp_path / "reopen.json", final) == (states[-1], False)
    # The file grows by appends from its last rewrite on; a cut before
    # that point tears the rewrite itself (which lands by os.replace,
    # so only a partial copy can do that) and keeps a sub-map of what
    # it wrote.
    base = max(j for j in range(len(texts))
               if j == 0 or not texts[j].startswith(texts[j - 1]))
    for cut in range(len(final) + 1):
        loaded, recovered = _reopen_all(tmp_path / "reopen.json", final[:cut])
        whole = cut == 0 or final[cut - 1] == "\n" or final[cut:cut + 1] == "\n"
        assert recovered == (not whole), cut
        if cut >= len(texts[base]):
            assert loaded in states[base:], cut
        else:
            assert loaded.items() <= states[base].items(), cut
    if final:
        flipped = bytearray(final.encode())
        flipped[flip[0] % len(flipped)] ^= flip[1]
        path.write_bytes(bytes(flipped))
        for reader in _READERS.values():
            reader(path)  # must not raise


def test_store_is_one_json_line_per_write(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path=path)
    cache.put("b", {"x": [1, {"y": 2}]})
    cache.put("a", 3)
    cache.put("c", [True])
    cache.delete("b")
    assert path.read_text() == (
        '{"b": {"x": [1, {"y": 2}]}}\n{"a": 3}\n{"c": [true]}\n'
        '{"b": null}\n'
    )
    assert _loaded(ResultCache(path=path)) == {"a": 3, "c": [True]}


def test_dead_lines_compact_and_close_rewrites_only_then(tmp_path):
    path = tmp_path / "ck.json"
    store = CheckpointStore(path)
    store.save("a", {"v": 0})
    store.save("a", {"v": 1})  # one dead line, one live: appended
    assert path.read_text() == '{"a": {"v": 0}}\n{"a": {"v": 1}}\n'
    store.save("a", {"v": 2})  # two dead lines outnumber the live one
    assert path.read_text() == '{"a": {"v": 2}}\n'
    inode = path.stat().st_ino
    store.close()  # no dead line: not rewritten
    assert path.stat().st_ino == inode
    store.save("a", {"v": 3})
    store.close()  # one dead line: rewritten
    assert path.read_text() == '{"a": {"v": 3}}\n'
    assert path.stat().st_ino != inode


def test_put_cost_stays_flat(tmp_path, monkeypatch):
    """2000 puts write at most twice the final file, because a put
    appends its line instead of rewriting the store."""
    written = []

    class Counting:
        def __init__(self, *args, **kwargs):
            self._fh = open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self._fh.close()

        def write(self, text):
            written.append(len(text))
            return self._fh.write(text)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

    monkeypatch.setattr(store_module, "open", Counting, raising=False)
    path = tmp_path / "cache.json"
    cache = ResultCache(path=path)
    times = []
    for i in range(2000):
        record = {"status": "ok", "seed": i,
                  "metrics": {f"m{m}": i / (m + 1) for m in range(10)}}
        start = time.perf_counter()
        cache.put(f"{i:064x}", record)
        times.append(time.perf_counter() - start)
    size = path.stat().st_size
    assert size <= sum(written) <= 2 * size
    print(f"\nput cost, last 500 / first 500: "
          f"{sum(times[-500:]) / sum(times[:500]):.2f}")


# ------------------------------------------------------- legacy files


def _legacy_graph(calls):
    """The campaign :data:`_LEGACY_CHECKPOINT` was written for."""
    graph = CampaignGraph(name="legacy-checkpoint")
    for seed in (0, 1):
        graph.evaluate(
            f"crossbar-{seed}", "imc-crossbar",
            config={"rows": 16, "cols": 16, "num_inputs": 2}, seed=seed,
        )
    graph.evaluate("hls-dot", "hls", config={"kernel": "dot", "size": 8})

    def task(payload):
        calls.append(payload)
        return {"doubled": 2 * payload["value"]}

    graph.task("task", fn=task, payload={"value": 21}, local=True)
    graph.reduce(
        "all", op="collect",
        deps=("crossbar-0", "crossbar-1", "hls-dot", "task"),
    )
    return graph


def test_legacy_checkpoint_resumes_every_recorded_node(tmp_path):
    path = tmp_path / "ck.json"
    shutil.copy(_LEGACY_CHECKPOINT, path)
    stored = json.loads(path.read_text())
    store, events = _recovery_events(lambda: CheckpointStore(path))
    assert not store.recovered and events == []
    assert store.completed_keys() == sorted(stored)

    calls = []
    report = GraphRunner(checkpoint=store).run(_legacy_graph(calls))
    assert calls == []
    assert report.counts()["resumed"] == 4
    for name in ("crossbar-0", "crossbar-1", "hls-dot"):
        assert report.results[name].resumed
        (key,) = [k for k in stored if k.startswith(f"{name}|")]
        assert report.value(name).to_json() == stored[key]
    assert report.value("task") == {"doubled": 42}


def test_legacy_file_is_rewritten_before_the_first_append(tmp_path):
    path = tmp_path / "ck.json"
    shutil.copy(_LEGACY_CHECKPOINT, path)
    store = CheckpointStore(path)
    store.save("new", {"v": 1})
    lines = path.read_text().splitlines()
    assert len(lines) == len(store) == 5
    assert all(len(json.loads(line)) == 1 for line in lines)
    assert _loaded(CheckpointStore(path)) == _loaded(store)


def test_torn_legacy_checkpoint_salvages_intact_records(tmp_path):
    path = tmp_path / "ck.json"
    text = _LEGACY_CHECKPOINT.read_text()
    path.write_text(text[: text.index('"hls-dot|')])
    store = CheckpointStore(path)
    assert store.recovered and store.salvaged == 2
    assert sorted(k.split("|")[0] for k in store) == ["crossbar-0", "crossbar-1"]


# -------------------------------------------------- cache satellites


def test_reopened_bounded_cache_keeps_the_newest_writes(tmp_path):
    path = tmp_path / "cache.json"
    with ResultCache(path=path) as cache:
        cache.put("b-old", {"v": 1})
        cache.put("a-new", {"v": 2})
    bounded = ResultCache(path=path, max_entries=1)
    assert "a-new" in bounded and "b-old" not in bounded
    assert bounded.stats()["evictions"] == 1


def test_bounded_cache_logs_its_evictions(tmp_path):
    path = tmp_path / "cache.json"
    cache = ResultCache(path=path, max_entries=2)
    for key in ("a", "b", "c"):
        cache.put(key, {"k": key})
    assert list(ResultCache(path=path)) == ["b", "c"]


def test_damaged_cache_is_salvaged_and_visible(tmp_path):
    path = tmp_path / "cache.json"
    with ResultCache(path=path) as cache:
        for i in range(3):
            cache.put(f"k{i}", {"metrics": {"value": i}, "status": "ok"})
    text = path.read_text()
    path.write_text(text[: text.rindex('"value"')])  # tear k2
    cache, events = _recovery_events(lambda: ResultCache(path=path))
    assert cache.get("k0") == {"metrics": {"value": 0}, "status": "ok"}
    assert cache.get("k1") == {"metrics": {"value": 1}, "status": "ok"}
    assert cache.get("k2") is None
    assert cache.stats()["recovered_from_corruption"]
    assert cache.salvaged == 2
    assert len(events) == 1
    assert events[0]["salvaged"] == 2
    assert events[0]["error_type"] == "JSONDecodeError"
    # The next put rewrites the salvaged records before appending.
    cache.put("k3", {"status": "ok"})
    reopened = ResultCache(path=path)
    assert not reopened.recovered
    assert sorted(reopened) == ["k0", "k1", "k3"]


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_unreadable_store_recovers_empty(tmp_path, reader):
    path = tmp_path / "store.json"
    path.mkdir()  # a directory: reading it fails with an OSError
    store, events = _recovery_events(lambda: _READERS[reader](path))
    assert len(store) == 0
    assert [e["error_type"] for e in events] == ["IsADirectoryError"]


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_deeply_nested_line_is_damage_not_a_crash(tmp_path, reader):
    path = tmp_path / "store.json"
    with ResultCache(path=path) as cache:
        cache.put("k0", {"status": "ok"})
    deep = "[" * 100_000
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"k1": ' + deep + "\n")
    store, events = _recovery_events(lambda: _READERS[reader](path))
    assert list(store) == ["k0"]
    assert store.recovered
    assert [e["error_type"] for e in events] == ["RecursionError"]
