"""File recipes: the dedup read path.

Writing is only half of a dedup system: after chunks are deduplicated away,
a file must still be reconstructable. A *recipe* is the ordered list of
(fingerprint, length) pairs a file was split into; storing the recipe plus
the unique chunks is enough to restore the file byte-for-byte.

:class:`RecipeStore` keeps recipes by file id; :func:`restore_file` walks a
recipe against any chunk source (the central cloud, an erasure-coded
archive, a local cache) and re-assembles the payload, verifying every chunk
against its fingerprint so corrupted or substituted chunks are caught
instead of silently returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.chunking.base import Chunker
from repro.chunking.fixed import FixedSizeChunker
from repro.chunking.hashing import Fingerprinter, default_fingerprint

# Returns a chunk's bytes by fingerprint (raises KeyError when missing).
ChunkFetcher = Callable[[str], bytes]


class RecipeError(Exception):
    """A recipe could not be stored or restored."""


@dataclass(frozen=True)
class RecipeEntry:
    """One chunk of a file: where it is (fingerprint) and how long it is."""

    fingerprint: str
    length: int


@dataclass(frozen=True)
class FileRecipe:
    """The ordered chunk list that reconstructs one file."""

    file_id: str
    entries: tuple[RecipeEntry, ...]

    @property
    def total_bytes(self) -> int:
        return sum(e.length for e in self.entries)

    @property
    def n_chunks(self) -> int:
        return len(self.entries)


def make_recipe(
    file_id: str,
    data: bytes,
    chunker: Optional[Chunker] = None,
    fingerprint: Fingerprinter = default_fingerprint,
) -> FileRecipe:
    """Build the recipe of ``data`` (same chunker the dedup path used)."""
    chunker = chunker if chunker is not None else FixedSizeChunker()
    entries = tuple(
        RecipeEntry(fingerprint=fingerprint(c.data), length=c.length)
        for c in chunker.chunk(data)
    )
    return FileRecipe(file_id=file_id, entries=entries)


def restore_file(
    recipe: FileRecipe,
    fetch: ChunkFetcher,
    fingerprint: Fingerprinter = default_fingerprint,
    verify: bool = True,
) -> bytes:
    """Reassemble a file from its recipe.

    Each distinct fingerprint is fetched and verified once per call, at its
    first entry; a chunk the file repeats reuses those verified bytes.

    Args:
        fetch: chunk source; must raise ``KeyError`` for unknown prints.
        verify: re-fingerprint every fetched chunk (catches corruption).

    Raises:
        RecipeError: a chunk is missing, has the wrong length, or fails
            fingerprint verification.
    """
    parts: list[bytes] = []
    verified: dict[str, bytes] = {}
    for i, entry in enumerate(recipe.entries):
        data = verified.get(entry.fingerprint)
        first = data is None
        if first:
            try:
                data = fetch(entry.fingerprint)
            except KeyError:
                raise RecipeError(
                    f"file {recipe.file_id!r}: chunk {i} ({entry.fingerprint[:12]}…) "
                    "is missing from the chunk store"
                ) from None
        if len(data) != entry.length:
            raise RecipeError(
                f"file {recipe.file_id!r}: chunk {i} has {len(data)} bytes, "
                f"recipe says {entry.length}"
            )
        if first:
            if verify and fingerprint(data) != entry.fingerprint:
                raise RecipeError(
                    f"file {recipe.file_id!r}: chunk {i} failed fingerprint "
                    "verification (corrupt or substituted data)"
                )
            verified[entry.fingerprint] = data
        parts.append(data)
    return b"".join(parts)


class RecipeStore:
    """In-memory recipe catalog keyed by file id."""

    def __init__(self) -> None:
        self._recipes: dict[str, FileRecipe] = {}

    def put(self, recipe: FileRecipe) -> None:
        if recipe.file_id in self._recipes:
            raise RecipeError(f"recipe for {recipe.file_id!r} already stored")
        self._recipes[recipe.file_id] = recipe

    def get(self, file_id: str) -> FileRecipe:
        try:
            return self._recipes[file_id]
        except KeyError:
            raise RecipeError(f"no recipe for {file_id!r}") from None

    def remove(self, file_id: str) -> FileRecipe:
        """Drop and return a recipe (the file-delete path: the caller
        decrements the chunks' refcounts from the returned entries)."""
        try:
            return self._recipes.pop(file_id)
        except KeyError:
            raise RecipeError(f"no recipe for {file_id!r}") from None

    def __contains__(self, file_id: str) -> bool:
        return file_id in self._recipes

    def __len__(self) -> int:
        return len(self._recipes)

    def file_ids(self) -> list[str]:
        return sorted(self._recipes)

    def logical_bytes(self) -> int:
        """Total reconstructable bytes across all recipes (pre-dedup size)."""
        return sum(r.total_bytes for r in self._recipes.values())
