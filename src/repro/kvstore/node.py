"""The index entry format, shared by the shard, the WAL, the wire and the
Merkle leaves.

A shard maps each key to one :data:`Entry`, an exact tuple: a value, its
logical timestamp, and a tombstone flag. A tombstone records a deletion:
it takes part in last-write-wins like any write (so a delete beats older
writes even when it reaches a replica late, via hints or anti-entropy),
but reads treat it as absence. A :data:`Row` is the same entry with its
key in front, as it is written.
"""

from __future__ import annotations

from typing import Iterable, Optional

# One index entry as it is stored: (value, timestamp, tombstone).
Entry = tuple[str, int, bool]

# One index entry as it is written: (key, value, timestamp, tombstone).
Row = tuple[str, str, int, bool]


def check_row(row) -> Row:
    """``row`` as a :data:`Row` — exactly (str, str, int, bool), what a
    Merkle leaf hashes and the WAL writes back — else ``ValueError``."""
    if (type(row) is list or type(row) is tuple) and len(row) == 4:
        key, value, timestamp, tombstone = row
        if type(key) is str and type(value) is str and type(timestamp) is int:
            if type(tombstone) is bool:
                return key, value, timestamp, tombstone
    raise ValueError(f"a row is [str, str, int, bool], got {row!r:.80}")


def newer(entry: Entry, other: Optional[Entry]) -> bool:
    """True when ``entry`` wins last-write-wins over ``other`` (None when
    absent): a strictly later timestamp."""
    return other is None or entry[1] > other[1]


def merge_newest(shards: Iterable[dict[str, Entry]]) -> dict[str, Entry]:
    """Last-write-wins union of per-replica shards."""
    newest: dict[str, Entry] = {}
    for shard in shards:
        for key, entry in shard.items():
            if newer(entry, newest.get(key)):
                newest[key] = entry
    return newest
