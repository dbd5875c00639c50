"""Append-only ``{key: record}`` store behind
:class:`~repro.exec.cache.ResultCache` and
:class:`~repro.resilience.checkpoint.CheckpointStore`.

A put appends one JSON line ``{"key": value}`` and a delete or eviction
``{"key": null}``; at open the lines apply in order, the later winning.
One decoder reads every file, whole-object ones from before the line
format included: ``json.loads`` per line, then :func:`_salvage_records`
from the first line that does not parse.  A damaged file keeps its
intact records and reports the loss (``recovered``, ``salvaged``, a
``checkpoint.recovered`` ledger event).
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: A ``"key": `` record prefix inside a (possibly torn) JSON object,
#: and what must follow its value for the record to count as intact.
_RECORD_RE = re.compile(r'"((?:[^"\\]|\\.)*)"\s*:\s*')
_END_RE = re.compile(r"\s*[,}]")
_DECODER = json.JSONDecoder()

Pairs = List[Tuple[str, Any]]


def _salvage_records(text: str) -> Tuple[Pairs, bool]:
    """Every intact top-level ``"key": value`` record in *text*, in
    order, and whether *text* was whole.

    Walks the objects with ``raw_decode``, resuming after each value
    (so nested keys are skipped) and stopping at the first torn record.
    A value counts only when ``,`` or ``}`` follows it, so a number cut
    short is not read as a smaller one.
    """
    records: Pairs = []
    pos, whole = 0, True
    while True:
        match = _RECORD_RE.search(text, pos)
        if match is None:
            break
        try:
            key = json.loads(f'"{match.group(1)}"')
            value, end = _DECODER.raw_decode(text, match.end())
        except (ValueError, RecursionError):
            return records, False
        if _END_RE.match(text, end) is None:
            return records, False
        # A whole file has only an open, a comma, or a close and the
        # next open before and between its records, and a close after.
        gap = "".join(text[pos:match.start()].split())
        whole = whole and gap in ("{", ",", "}{")
        records.append((key, value))
        pos = end
    return records, whole and bool(records) and text[pos:].strip() == "}"


def _decode(text: str) -> Tuple[Pairs, Optional[Exception]]:
    """The ``(key, value)`` records of a store file, in order, and the
    error that made it not whole (``None`` when it was).  A line nested
    too deep to parse is damage like any other."""
    pairs: Pairs = []
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        try:
            line = json.loads(text[pos:end])
            if not isinstance(line, dict):
                raise ValueError("store line is not a JSON object")
        except (ValueError, RecursionError) as exc:
            salvaged, whole = _salvage_records(text[pos:])
            return pairs + salvaged, None if whole else exc
        pairs.extend(line.items())
        pos = end
    return pairs, None


class RecordStore:
    """Keyed JSON records in memory, in the order of their last write,
    logged to a file when there is a ``path``.

    ``None`` is the deletion marker, never a value.  Every operation
    holds :attr:`lock`, a re-entrant lock a caller may also hold to make
    several calls one atomic step; a put serialises its line first.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.lock = threading.RLock()
        self.recovered, self.salvaged = False, 0
        self._records: "OrderedDict[str, Any]" = OrderedDict()
        # Record lines in the file, live or dead; a missing, damaged or
        # legacy file is rewritten before anything is appended to it.
        self._lines, self._rewrite = 0, True
        if self.path is not None:
            self._load(self.path)

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.lock = threading.RLock()

    def _load(self, path: Path) -> None:
        try:
            text = path.read_bytes().decode("utf-8", "replace")
        except FileNotFoundError:
            return
        except OSError as exc:
            text, pairs, error = "", [], exc
        else:
            pairs, error = _decode(text)
        for key, value in pairs:
            self._apply(key, value)
        self._lines = len(pairs)
        clean = text.endswith("\n") and text.count("\n") == len(pairs)
        self._rewrite = error is not None or not clean
        if error is not None:
            from repro.obs.ledger import get_ledger

            self.recovered, self.salvaged = True, len(self._records)
            get_ledger().event(
                "checkpoint.recovered", path=str(path),
                salvaged=self.salvaged, error_type=type(error).__name__,
            )

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    def _line(self, key: str, value: Any) -> str:
        """*key*'s log line (empty for a memory-only store)."""
        if self.path is None:
            return ""
        return json.dumps({key: value}, sort_keys=True) + "\n"

    def _apply(self, key: str, value: Any) -> None:
        if value is None:
            self._records.pop(key, None)
        else:
            self._records[key] = value
            self._records.move_to_end(key)

    def _set(self, key: str, value: Any) -> None:
        """Store *value* under *key* (drop *key* when ``None``)."""
        line = self._line(key, value)
        with self.lock:
            self._apply(key, value)
            self._append(line, 1)

    def _append(self, lines: str, count: int) -> None:
        """Log *count* lines already applied in memory, or rewrite the
        file instead when that is due.  The caller holds :attr:`lock`."""
        if self.path is None:
            return
        self._lines += count
        if self._rewrite or self._lines > 2 * len(self._records):
            self.flush()
        else:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(lines)

    def flush(self) -> None:
        """Atomically rewrite the file as the live records (no-op when
        memory-only), as a put does once dead lines outnumber live ones
        or the opened file was damaged or legacy.  The temp file is
        private to this process and thread, so two writers of one path
        never replace each other's half-written file."""
        if self.path is None:
            return
        tmp = self.path.with_name(
            f"{self.path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        with self.lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(self._line(k, v) for k, v in self._records.items())
            os.replace(tmp, self.path)
            self._lines, self._rewrite = len(self._records), False

    def clear(self) -> None:
        """Drop every record (and the file, if any)."""
        with self.lock:
            self._records = OrderedDict()
            self._lines, self._rewrite = 0, True
            if self.path is not None:
                self.path.unlink(missing_ok=True)

    def close(self) -> None:
        """Rewrite the file if it holds dead lines."""
        with self.lock:
            if self._lines > len(self._records):
                self.flush()

    def __enter__(self) -> "RecordStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
