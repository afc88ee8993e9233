"""JSONL run journal: the campaign's observability log.

Every finished run — executed, cache-served, or failed — appends one
JSON line with its key, status, value and timing; ``repro-campaign
status`` summarizes it.  No answer is read from the journal: a
campaign killed mid-flight resumes from the result cache, which holds
every successful run the moment it completes.  Lines are appended and
flushed as they complete, and a torn final line (the kill landed
mid-write) is skipped, not fatal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List


class Journal:
    """Append-only JSONL record of campaign runs."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record and flush it to disk immediately."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True)
        with self.path.open("a") as fh:
            fh.write(line + "\n")
            fh.flush()

    def entries(self) -> Iterator[Dict[str, Any]]:
        """All well-formed records, oldest first; torn lines skipped."""
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # interrupted mid-write
            if isinstance(record, dict):
                yield record

    def tail(self, n: int = 10) -> List[Dict[str, Any]]:
        """The most recent n records."""
        return list(self.entries())[-n:]

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)
