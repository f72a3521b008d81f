"""Convergent encryption + proof-of-ownership unit and property tests."""

import random

import pytest

from repro.chunking import FixedSizeChunker
from repro.chunking.hashing import default_fingerprint
from repro.dedup.engine import measure_dedup_ratio
from repro.secure import (
    KeyVault,
    PoWVerifier,
    SecureTier,
    convergent_key,
    decrypt,
    encrypt,
    encrypt_convergent,
    make_proof,
)


class TestConvergentCipher:
    def test_key_is_deterministic(self):
        assert convergent_key(b"same bytes") == convergent_key(b"same bytes")
        assert convergent_key(b"same bytes") != convergent_key(b"other bytes")

    def test_key_differs_from_dedup_fingerprint(self):
        # The public index fingerprint must never reveal the decryption
        # key — that separation is what makes PoW meaningful.
        data = b"a chunk of sensitive payload"
        key = convergent_key(data)
        fp = default_fingerprint(data)
        assert key != fp
        assert not key.startswith(fp)

    def test_roundtrip(self):
        rng = random.Random(7)
        for size in (0, 1, 63, 64, 65, 4096, 100_000):
            data = rng.randbytes(size)
            ciphertext, key = encrypt_convergent(data)
            assert decrypt(ciphertext, key) == data

    def test_ciphertext_is_deterministic_and_length_preserving(self):
        data = b"x" * 4096
        c1, k1 = encrypt_convergent(data)
        c2, k2 = encrypt_convergent(bytes(data))
        assert c1 == c2 and k1 == k2
        assert len(c1) == len(data)
        assert c1 != data  # actually encrypted

    def test_decrypt_is_encrypt(self):
        assert decrypt is encrypt

    def test_accepts_memoryview(self):
        data = bytes(range(256)) * 8
        view = memoryview(data)
        assert convergent_key(view) == convergent_key(data)
        assert encrypt(view, convergent_key(data)) == encrypt(
            data, convergent_key(data)
        )

    def test_dedup_ratio_preserved_bit_for_bit(self):
        # The property the whole tier rests on: fingerprinting the
        # *ciphertext* yields exactly the ratio of fingerprinting the
        # plaintext, because identical plaintexts map to identical
        # ciphertexts and distinct plaintexts to distinct ones.
        rng = random.Random(13)
        pool = [rng.randbytes(4096) for _ in range(16)]
        inputs = [
            b"".join(rng.choice(pool) for _ in range(24)) for _ in range(8)
        ]
        chunker = FixedSizeChunker(4096)
        plain = measure_dedup_ratio(inputs, chunker=chunker)
        sealed = measure_dedup_ratio(
            inputs,
            chunker=chunker,
            fingerprint=lambda d: default_fingerprint(encrypt_convergent(d)[0]),
        )
        assert plain > 1.0  # the workload actually contains duplicates
        assert sealed == plain


class TestKeyVault:
    def test_first_registration_wins(self):
        vault = KeyVault()
        assert vault.put("fp", "aa" * 32) is True
        assert vault.put("fp", "bb" * 32) is False
        assert vault.get("fp") == "aa" * 32
        assert vault.registrations == 1

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="no convergent key"):
            KeyVault().get("missing")

    def test_discard_many(self):
        vault = KeyVault()
        vault.put("a", "aa" * 32)
        vault.put("b", "bb" * 32)
        assert vault.discard_many(["a", "ghost", "b"]) == 2
        assert len(vault) == 0
        assert vault.discard_many(["a"]) == 0  # idempotent


class TestProofOfOwnership:
    def _setup(self):
        data = b"the actual chunk content the claimant must hold" * 80
        fp = default_fingerprint(data)
        vault = KeyVault()
        vault.put(fp, convergent_key(data))
        return data, fp, PoWVerifier(vault, seed=3)

    def test_honest_owner_accepted(self):
        data, fp, verifier = self._setup()
        challenge = verifier.challenge(fp)
        proof = make_proof(challenge, convergent_key(data))
        assert verifier.verify(challenge, proof) is True
        assert verifier.stats.accepted == 1

    def test_fingerprint_only_forgery_rejected(self):
        # The attack PoW exists to stop: the adversary knows the public
        # fingerprint but not the plaintext. Every key they can derive
        # from the fingerprint alone must fail.
        _data, fp, verifier = self._setup()
        import hashlib

        for forged_key in (
            hashlib.sha256(fp.encode()).hexdigest(),  # H(fingerprint)
            fp * 2,  # fingerprint stretched to key length
            "00" * 32,  # constant guess
        ):
            challenge = verifier.challenge(fp)
            assert verifier.verify(challenge, make_proof(challenge, forged_key)) is False
        assert verifier.stats.accepted == 0
        assert verifier.stats.rejected == 3

    def test_proof_not_replayable_across_challenges(self):
        data, fp, verifier = self._setup()
        old = verifier.challenge(fp)
        old_proof = make_proof(old, convergent_key(data))
        fresh = verifier.challenge(fp)
        assert fresh.nonce != old.nonce
        assert verifier.verify(fresh, old_proof) is False

    def test_unknown_fingerprint_rejected(self):
        _data, _fp, verifier = self._setup()
        challenge = verifier.challenge("not-registered")
        assert verifier.verify(challenge, "ab" * 32) is False
        assert verifier.stats.unknown_fingerprints == 1


class TestSecureTier:
    def test_seal_claim_open_cycle(self):
        tier = SecureTier()
        data = b"payload" * 1000
        fp = default_fingerprint(data)
        # First owner: claim misses, seal + register.
        assert tier.claim(fp, data) is False
        sealed = tier.seal(fp, data)
        assert sealed != data
        assert tier.register(fp) is True
        # Second owner (another ring): proven claim skips the upload.
        assert tier.claim(fp, data) is True
        assert tier.stats.granted == 1
        assert tier.stats.skipped_upload_bytes == len(data)
        # Restore decrypts with the vaulted key.
        assert tier.open(fp, sealed) == data

    def test_forged_claim_denied_and_safe(self):
        tier = SecureTier()
        data = b"secret" * 1000
        fp = default_fingerprint(data)
        tier.seal(fp, data)
        tier.register(fp)
        # A claimant holding different bytes under the same fingerprint
        # claim (i.e. lying about ownership) is denied: the dedup hit is
        # refused and they are treated as a unique upload.
        assert tier.claim(fp, b"not the real content") is False
        assert tier.stats.denied == 1
        assert tier.pow.stats.rejected == 1

    def test_forget_is_idempotent(self):
        tier = SecureTier()
        data = b"gc me" * 500
        fp = default_fingerprint(data)
        tier.seal(fp, data)
        tier.register(fp)
        assert tier.forget([fp]) > 0
        assert tier.forget([fp]) == 0  # second ring's sweep call: no-op
        assert tier.claim(fp, data) is False  # key gone -> no hit

    def test_metrics_names(self):
        from repro.obs import MetricsHub

        tier = SecureTier(hot_index_size=4)
        hub = MetricsHub()
        hub.register("secure", tier.metrics)
        metrics = hub.collect()
        for key in (
            "sealed_chunks",
            "claims",
            "granted",
            "denied",
            "pow.challenges",
            "vault.keys",
            "hotindex.state",
            "hotindex.edge_hits",
        ):
            assert f"secure.{key}" in metrics
