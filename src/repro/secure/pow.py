"""Proof of ownership (PoW) for dedup claims.

Client-side dedup has a classic leak: if "I have fingerprint X" alone
earns a dedup hit, anyone who learns a fingerprint can both (a) claim
storage of data they never had and later restore it, and (b) probe
whether someone else stores a given file. The fix (Halevi et al., adopted
by PM-Dedup) is to gate every dedup hit on a proof that the claimant
holds the *content*, not just its digest.

Here the proof rides on the convergent key: the server challenges with a
fresh nonce, the claimant answers ``HMAC-SHA256(key = convergent key,
msg = nonce ‖ fingerprint)``, and the server verifies against the key the
*first* uploader registered in the :class:`~repro.secure.crypto.KeyVault`.
Only a party holding the plaintext can derive the key
(:func:`~repro.secure.crypto.convergent_key` is domain-separated from the
public fingerprint), and the nonce makes transcripts non-replayable. A
failed proof simply denies the dedup hit — the claimant is treated as
uploading a unique chunk, which is safe and costs *them* the WAN trip.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

from repro.secure.crypto import KeyVault

_NONCE_BYTES = 16


@dataclass(frozen=True)
class PoWChallenge:
    """One server-issued ownership challenge for a fingerprint."""

    fingerprint: str
    nonce: str  # hex


def make_proof(challenge: PoWChallenge, key_hex: str) -> str:
    """Client side: answer a challenge with the plaintext-derived key."""
    return hmac.new(
        bytes.fromhex(key_hex),
        bytes.fromhex(challenge.nonce) + challenge.fingerprint.encode(),
        hashlib.sha256,
    ).hexdigest()


@dataclass(slots=True)
class PoWStats:
    """Challenge/verdict accounting for one verifier."""

    challenges: int = 0
    accepted: int = 0
    rejected: int = 0
    unknown_fingerprints: int = 0


class PoWVerifier:
    """Server side: issue challenges, verify proofs against the vault.

    Seeded nonce generation keeps chaos runs replayable (the repo-wide
    determinism rule); the nonces still never repeat within a verifier.
    """

    def __init__(self, vault: KeyVault, seed: int = 0) -> None:
        self.vault = vault
        self._rng = random.Random(seed)
        self.stats = PoWStats()

    def challenge(self, fingerprint: str) -> PoWChallenge:
        self.stats.challenges += 1
        return PoWChallenge(
            fingerprint=fingerprint, nonce=self._rng.randbytes(_NONCE_BYTES).hex()
        )

    def verify(self, challenge: PoWChallenge, proof: str) -> bool:
        """True only when the proof matches the registered key exactly.

        A fingerprint with no vault entry always rejects — there is no
        chunk to deduplicate against, so granting would be meaningless
        and, worse, would leak whether the fingerprint exists.
        """
        try:
            key_hex = self.vault.get(challenge.fingerprint)
        except KeyError:
            self.stats.unknown_fingerprints += 1
            self.stats.rejected += 1
            return False
        expected = make_proof(challenge, key_hex)
        if hmac.compare_digest(expected, proof):
            self.stats.accepted += 1
            return True
        self.stats.rejected += 1
        return False
