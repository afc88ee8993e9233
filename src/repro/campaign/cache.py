"""Content-addressed result cache for campaign runs.

Records live under ``<root>/<key[:2]>/<key>.json`` (two-level fan-out
keeps directories small for big campaigns).  Keys come from
:attr:`~.spec.RunSpec.key`, which folds in the package version, so a
model change silently invalidates every old entry without any explicit
versioning logic here.  Writes are atomic (temp file + rename) so a
killed campaign can never leave a truncated record behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple


class ResultCache:
    """Disk cache of run records, keyed by RunSpec content hash."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[Tuple[Dict[str, Any], str]]:
        """The cached record and the JSON text it was read from, or None
        on miss or unreadable entry."""
        path = self.path(key)
        try:
            text = path.read_text()
            record = json.loads(text)
        except (OSError, json.JSONDecodeError):
            return None
        # Paranoia: a record filed under the wrong key is worse than a miss.
        if record.get("key") != key:
            return None
        return record, text

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached record, or None on miss or unreadable entry."""
        loaded = self.load(key)
        return None if loaded is None else loaded[0]

    def put(self, key: str, record: Dict[str, Any]) -> str:
        """Atomically store one record; returns the JSON text written
        (``json.dumps(record, sort_keys=True)``)."""
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        text = json.dumps(record, sort_keys=True)
        tmp.write_text(text)
        os.replace(tmp, path)
        return text

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def entries(self) -> Iterator[Path]:
        """Every cache file currently on disk."""
        if not self.root.is_dir():
            return iter(())
        return self.root.glob("*/*.json")

    def count(self) -> int:
        return sum(1 for _ in self.entries())

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.entries()):
            path.unlink(missing_ok=True)
            removed += 1
        for sub in self.root.glob("*"):
            if sub.is_dir():
                try:
                    sub.rmdir()
                except OSError:
                    pass
        return removed
