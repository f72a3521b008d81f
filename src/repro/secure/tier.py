"""SecureTier: the deployment-wide secure-dedup facade.

One object bundles the four security mechanisms and is shared by every
ring of a cluster (like the central cloud store):

- a :class:`~repro.secure.crypto.KeyVault` learning each chunk's
  convergent key from its first uploader;
- a :class:`~repro.secure.pow.PoWVerifier` gating every dedup hit on a
  proof of ownership;
- a :class:`~repro.secure.hotindex.SecureCloudIndex` (the WAN key index)
  fronted by a :class:`~repro.secure.hotindex.HotIndexManager` that
  migrates the popular slice to the edge;
- :class:`SecureStats` tying the crypto cost to the ingest hot path.

The ring integration point is :meth:`claim` / :meth:`seal` /
:meth:`register` inside the ring's unique sink,
:func:`repro.system.ring._store_unique_chunks`: a chunk the *ring* index
called unique first claims against the deployment-wide key
index — a proven hit means some other ring already uploaded the identical
ciphertext, so the WAN upload is skipped entirely (cross-ring dedup the
accounting cloud would otherwise count as redundant received bytes). A
miss (or a failed proof) seals the payload and uploads as usual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.hub import series
from repro.secure.crypto import (
    KeyVault,
    convergent_key,
    decrypt,
    encrypt_convergent,
)
from repro.secure.hotindex import HotIndexManager, HotMigrationReport, SecureCloudIndex
from repro.secure.pow import PoWVerifier, make_proof


@dataclass(slots=True)
class SecureStats:
    """Counters for the tier's hot-path work."""

    sealed_chunks: int = 0
    sealed_bytes: int = 0
    opened_chunks: int = 0
    opened_bytes: int = 0
    claims: int = 0
    granted: int = 0
    denied: int = 0
    skipped_upload_bytes: int = 0


class SecureTier:
    """Convergent encryption + PoW + hot key index for one deployment.

    Args:
        hot_index_size: fingerprints in the migratable hot slice (0 keeps
            every claim on the cloud index).
        wan_rtt_s: simulated WAN round-trip paid by each *cloud* index
            lookup — what the hot slice saves; 0 disables the sleep.
        seed: PoW nonce seed (chaos runs stay replayable).
    """

    def __init__(
        self, hot_index_size: int = 0, wan_rtt_s: float = 0.0, seed: int = 0
    ) -> None:
        self.vault = KeyVault()
        self.cloud_index = SecureCloudIndex(rtt_s=wan_rtt_s)
        self.hotindex = HotIndexManager(self.cloud_index, hot_size=hot_index_size)
        self.pow = PoWVerifier(self.vault, seed=seed)
        self.stats = SecureStats()

    # -- ingest hot path -------------------------------------------------- #

    def claim(self, fingerprint: str, plaintext: "bytes | memoryview") -> bool:
        """Claim a ring-unique chunk against the deployment-wide index.

        True means the chunk is already stored (another ring uploaded it)
        *and* the claimant proved ownership — the caller may skip the
        WAN upload. False on a genuine miss or a failed proof; either
        way the caller proceeds as for a unique chunk, which is always
        safe (worst case: one redundant upload, never a lost payload).

        The ownership proof is computed here from ``plaintext`` because
        in this prototype the claimant (the ring agent) holds the chunk
        bytes by construction; a forged claim — fingerprint known,
        plaintext not — cannot produce it (see ``tests/test_secure_crypto``).
        """
        self.stats.claims += 1
        self.hotindex.observe(fingerprint)
        key = self.hotindex.lookup(fingerprint)
        if key is None:
            return False
        challenge = self.pow.challenge(fingerprint)
        proof = make_proof(challenge, convergent_key(plaintext))
        if not self.pow.verify(challenge, proof):
            self.stats.denied += 1
            return False
        self.stats.granted += 1
        self.stats.skipped_upload_bytes += len(plaintext)
        return True

    def seal(self, fingerprint: str, plaintext: "bytes | memoryview") -> bytes:
        """Encrypt one chunk for upload and register its key in the vault."""
        ciphertext, key = encrypt_convergent(plaintext)
        self.vault.put(fingerprint, key)
        self.stats.sealed_chunks += 1
        self.stats.sealed_bytes += len(ciphertext)
        return ciphertext

    def register(self, fingerprint: str) -> bool:
        """Publish an uploaded chunk's key to the claimable cloud index."""
        return self.hotindex.insert(fingerprint, self.vault.get(fingerprint))

    # -- restore path ------------------------------------------------------#

    def open(self, fingerprint: str, ciphertext: bytes) -> bytes:
        """Decrypt one fetched chunk with its vaulted key."""
        plaintext = decrypt(ciphertext, self.vault.get(fingerprint))
        self.stats.opened_chunks += 1
        self.stats.opened_bytes += len(plaintext)
        return plaintext

    # -- hot-slice migration ----------------------------------------------#

    def migrate_hot_slice(self) -> HotMigrationReport:
        """Stream the hot slice to the edge (leaves the window open)."""
        return self.hotindex.begin_migration()

    def close_hot_window(self) -> HotMigrationReport:
        """Delta-restream and commit the hot-slice migration."""
        return self.hotindex.close_window()

    # -- GC integration ----------------------------------------------------#

    def forget(self, fingerprints: Iterable[str]) -> int:
        """Drop reclaimed fingerprints from vault and both index copies.

        Idempotent — the sweep path may reach the shared tier once per
        ring; only first drops are counted.
        """
        fps = list(fingerprints)
        return self.vault.discard_many(fps) + self.hotindex.invalidate(fps)

    # -- observability -----------------------------------------------------#

    def metrics(self) -> dict:
        """The tier's counters, with its parts mounted beneath them as
        ``hotindex.*``, ``pow.*`` and ``vault.*``."""
        return {
            **series(self.stats),
            "hotindex": self.hotindex.metrics(),
            "pow": series(self.pow.stats),
            "vault": {
                "keys": len(self.vault),
                "registrations": self.vault.registrations,
            },
        }
