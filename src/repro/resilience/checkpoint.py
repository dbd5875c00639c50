"""JSON checkpoint/resume for long sweeps.

A campaign or DSE run that takes hours must survive a crash at cell
900/1000.  :class:`CheckpointStore` persists one JSON record per
completed unit of work under a stable string key; on restart the sweep
skips every key already present and recomputes only the remainder.
Each save appends one line to a :class:`~repro.exec.store.RecordStore`
file, and a torn or damaged file is *salvaged*, not refused: a
degraded resume recomputes a few cells, a crashed one the whole
campaign.  The loss is visible as :attr:`~CheckpointStore.recovered`,
:attr:`~CheckpointStore.salvaged` and a ``checkpoint.recovered``
run-ledger event.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.exec.store import RecordStore


class CheckpointStore(RecordStore):
    """Keyed JSON records on disk, loaded eagerly, one line per save.

    Records must be JSON-serializable dictionaries; the store is a flat
    ``{key: record}`` mapping.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__(path)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self._records.get(key)

    def completed_keys(self) -> list:
        return sorted(self._records)

    def save(self, key: str, record: Dict[str, Any]) -> None:
        """Record *key* as completed."""
        self._set(key, record)
