"""Tests for the per-node write-ahead log + snapshot durability layer."""

import io
import os
import json
import random
from gc import collect, is_tracked

import pytest

from repro.content.gc import RefcountGC
from repro.kvstore.replica import Replica
from repro.kvstore.wal import WriteAheadLog


def test_append_load_roundtrip(tmp_path):
    wal = WriteAheadLog(tmp_path, "n0")
    wal.append("k1", "v1", 10, False)
    wal.append("k2", "v2", 20, False)
    wal.close()

    restored = WriteAheadLog(tmp_path, "n0").load()
    assert restored["k1"] == ("v1", 10, False)
    assert restored["k2"] == ("v2", 20, False)


def test_replay_is_last_write_wins(tmp_path):
    wal = WriteAheadLog(tmp_path, "n0")
    wal.append("k", "old", 10, False)
    wal.append("k", "new", 20, False)
    wal.append("k", "stale", 15, False)  # older record later in the log
    wal.close()

    restored = WriteAheadLog(tmp_path, "n0").load()
    assert restored["k"] == ("new", 20, False)


def test_tombstone_survives_restart(tmp_path):
    wal = WriteAheadLog(tmp_path, "n0")
    wal.append("k", "v", 10, False)
    wal.append("k", "", 20, True)
    wal.close()

    restored = WriteAheadLog(tmp_path, "n0").load()
    assert restored["k"] == ("", 20, True)


def test_snapshot_truncates_log_and_loads(tmp_path):
    wal = WriteAheadLog(tmp_path, "n0", snapshot_every=3)
    data = {}
    for i in range(3):
        data[f"k{i}"] = (f"v{i}", i + 1, False)
        wal.append(f"k{i}", f"v{i}", i + 1, False)
    assert not wal.due_for_snapshot(len(data) + 1)  # the log has not outgrown it
    assert wal.due_for_snapshot(len(data))
    assert wal.maybe_snapshot(data)
    assert wal.log_path.read_text() == ""  # truncated after replace
    assert wal.snap_path.exists()
    wal.append("k9", "v9", 99, False)  # post-snapshot write goes to the log
    wal.close()

    fresh = WriteAheadLog(tmp_path, "n0")
    restored = fresh.load()
    assert len(restored) == 4
    assert fresh.stats.snapshot_entries_loaded == 3
    assert fresh.stats.log_entries_replayed == 1


def test_snapshot_file_is_the_json_dump_form(tmp_path):
    """write_snapshot encodes in one C-encoder call; the file must stay
    byte-identical to what ``json.dump`` streamed, and load() reads it back."""
    data = {
        "plain": ("v", 1, False),
        "gone": ("", 2**40, True),
        'quote"\\back\nslash': ("ünï\u2603cödé \U0001f600", 3, False),
        "": ("empty key", 0, False),
    }
    wal = WriteAheadLog(tmp_path, "n0")
    wal.write_snapshot(data)
    wal.close()
    expected = io.StringIO()
    json.dump({k: list(entry) for k, entry in data.items()}, expected)
    assert wal.snap_path.read_bytes() == expected.getvalue().encode("utf-8")
    assert WriteAheadLog(tmp_path, "n0").load() == data

    wal = WriteAheadLog(tmp_path, "empty")
    wal.write_snapshot({})
    wal.close()
    assert wal.snap_path.read_bytes() == b"{}"
    assert WriteAheadLog(tmp_path, "empty").load() == {}


@pytest.mark.parametrize("fsync", [True, False])
def test_snapshot_makes_the_rename_durable_before_truncating(tmp_path, monkeypatch, fsync):
    """Under ``fsync=True`` a power loss must not keep the log truncate and
    lose the snapshot rename: the directory is fsync'd between the two.
    Without fsync (the ledger's and every live ring's setting) the snapshot
    issues exactly the calls it did before."""
    wal = WriteAheadLog(tmp_path, "n0", snapshot_every=0, fsync=fsync)
    wal.append("k", "v", 1, False)
    ops: list[tuple[str, str]] = []
    dir_fds: set[int] = set()
    real_open, real_os_open = open, os.open
    real_fsync, real_replace = os.fsync, os.replace

    def recording_open(path, mode="r", *args, **kwargs):
        ops.append((f"open:{mode}", os.path.basename(path)))
        return real_open(path, mode, *args, **kwargs)

    def recording_os_open(path, flags, *args):
        fd = real_os_open(path, flags, *args)
        if os.path.isdir(path):
            dir_fds.add(fd)
        return fd

    def recording_fsync(fd):
        ops.append(("fsync", "dir" if fd in dir_fds else "file"))
        real_fsync(fd)

    def recording_replace(src, dst):
        ops.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr("repro.kvstore.wal.open", recording_open, raising=False)
    monkeypatch.setattr(os, "open", recording_os_open)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    wal.write_snapshot({"k": ("v", 1, False)})
    monkeypatch.undo()

    replace = ("replace", "n0.snap.json")
    truncate = ("open:w", "n0.wal.jsonl")
    if fsync:
        assert ops == [
            ("open:w", "n0.snap.tmp"), ("fsync", "file"),
            replace, ("fsync", "dir"), truncate,
        ]
    else:
        assert ops == [("open:w", "n0.snap.tmp"), replace, truncate]
        assert not dir_fds
    wal.close()
    assert WriteAheadLog(tmp_path, "n0").load() == {"k": ("v", 1, False)}


def test_torn_final_record_dropped(tmp_path):
    wal = WriteAheadLog(tmp_path, "n0")
    wal.append("k1", "v1", 10, False)
    wal.close()
    # Simulate a crash mid-append: a partial JSON line at the tail.
    with open(wal.log_path, "a", encoding="utf-8") as fh:
        fh.write('["k2", "v2", 2')

    fresh = WriteAheadLog(tmp_path, "n0")
    restored = fresh.load()
    assert restored == {"k1": ("v1", 10, False)}
    assert fresh.stats.torn_records_dropped == 1


# A record is a newline-terminated line: an unterminated tail was never
# acknowledged, and load() cuts it off so the next append starts clean.
# ``cut`` 8 tears the last record; ``cut`` 1 loses only its newline.


@pytest.mark.parametrize("cut", [8, 1])
def test_a_torn_tail_never_swallows_the_next_acknowledged_write(tmp_path, cut):
    wal = WriteAheadLog(tmp_path, "n0")
    replica = Replica("n0", wal=wal)
    replica.multi_put([("a", "1", 1, False)])
    replica.multi_put([("b", "2", 2, False)])
    wal.close()
    log = wal.log_path.read_bytes()
    wal.log_path.write_bytes(log[:-cut])

    wal = WriteAheadLog(tmp_path, "n0")
    replica = Replica("n0", wal=wal)
    assert dict(replica.dump()) == {"a": ("1", 1, False)}
    assert wal.stats.torn_records_dropped == 1
    assert wal.log_path.read_bytes() == log[: log.index(b"\n") + 1]
    replica.multi_put([("c", "3", 3, False)])
    wal.close()

    reborn = Replica("n0", wal=WriteAheadLog(tmp_path, "n0"))
    assert dict(reborn.dump()) == {"a": ("1", 1, False), "c": ("3", 3, False)}
    assert reborn.wal.stats.torn_records_dropped == 0


@pytest.mark.parametrize("cut", [8, 1])
def test_a_torn_journal_tail_never_swallows_the_next_reference(tmp_path, cut):
    with RefcountGC(journal_dir=tmp_path) as ledger:
        ledger.incr("a")
        ledger.incr("b")
    log_path = ledger.wal.log_path
    log = log_path.read_bytes()
    log_path.write_bytes(log[:-cut])

    with RefcountGC(journal_dir=tmp_path) as ledger:
        assert ledger.counts == {"a": 1}
        assert ledger.wal.stats.torn_records_dropped == 1
        ledger.incr("c")
    with RefcountGC(journal_dir=tmp_path) as ledger:
        assert ledger.counts == {"a": 1, "c": 1}
        assert ledger.wal.stats.torn_records_dropped == 0


def test_a_torn_tail_is_cut_durably_under_fsync(tmp_path, monkeypatch):
    wal = WriteAheadLog(tmp_path, "n0")
    wal.append("a", "1", 1, False)
    wal.close()
    wal.log_path.write_bytes(wal.log_path.read_bytes() + b'["b", "2"')
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
    assert WriteAheadLog(tmp_path, "n0", fsync=True).load() == {"a": ("1", 1, False)}
    assert len(synced) == 1
    assert wal.log_path.read_bytes() == b'["a", "1", 1, false]\n'


def test_log_records_are_greppable_json(tmp_path):
    wal = WriteAheadLog(tmp_path, "n0")
    wal.append("k", "v", 7, False)
    wal.close()
    line = wal.log_path.read_text().strip()
    assert json.loads(line) == ["k", "v", 7, False]


def test_closed_wal_rejects_appends_but_reopens(tmp_path):
    wal = WriteAheadLog(tmp_path, "n0")
    wal.append("k", "v", 1, False)
    wal.close()
    wal.close()  # idempotent
    with pytest.raises(ValueError, match="closed"):
        wal.append("k2", "v2", 2, False)
    assert WriteAheadLog(tmp_path, "n0").load()["k"] == ("v", 1, False)


def test_a_loaded_shard_is_untracked_exact_tuples(tmp_path):
    """Entries rebuilt from the snapshot and from the log are exact tuples
    of atoms, which the cyclic collector untracks."""
    wal = WriteAheadLog(tmp_path, "n0", snapshot_every=4)
    Replica("n0", wal=wal).multi_put([(f"k{i}", "v", i + 1, i == 2) for i in range(6)])
    wal.append("k1", "new", 10, False)
    wal.append("k9", "v", 11, True)
    wal.close()
    reborn = Replica("n0", wal=WriteAheadLog(tmp_path, "n0", snapshot_every=0))
    loaded = (reborn.wal.stats.snapshot_entries_loaded, reborn.wal.stats.log_entries_replayed)
    assert loaded == (6, 2)
    collect()
    assert len(reborn.dump()) == 7
    for entry in reborn.dump().values():
        assert type(entry) is tuple and not is_tracked(entry), entry


def test_param_validation(tmp_path):
    with pytest.raises(ValueError):
        WriteAheadLog(tmp_path, "n0", snapshot_every=-1)
    with pytest.raises(ValueError):
        WriteAheadLog(tmp_path, "../escape")
    with pytest.raises(ValueError):
        WriteAheadLog(tmp_path, "")


class TestNodeIntegration:
    def test_node_writes_reach_wal_and_restore(self, tmp_path):
        node = Replica("n0", wal=WriteAheadLog(tmp_path, "n0"))
        for i in range(5):
            node.multi_put([(f"k{i}", f"v{i}", i + 1, False)])
        node.wal.close()

        reborn = Replica("n0", wal=WriteAheadLog(tmp_path, "n0"))
        assert reborn.multi_get(["k3"]) == {"k3": ("v3", 4, False)}
        assert len(reborn._data) == 5

    def test_rejected_stale_write_not_logged(self, tmp_path):
        wal = WriteAheadLog(tmp_path, "n0")
        node = Replica("n0", wal=wal)
        node.multi_put([("k", "new", 10, False)])
        node.multi_put([("k", "stale", 5, False)])  # LWW rejects
        assert wal.stats.appends == 1

    def test_periodic_snapshot_via_node(self, tmp_path):
        wal = WriteAheadLog(tmp_path, "n0", snapshot_every=4)
        node = Replica("n0", wal=wal)
        for i in range(10):
            node.multi_put([(f"k{i}", "v", i + 1, False)])
        # Puts 1-4 reach snapshot_every with a 4-key shard; after that the
        # shard grows with every put, so the log (6 records) never catches
        # up with it (10 keys) and no second snapshot is due.
        assert wal.stats.snapshots == 1
        assert wal.stats.flushes == 10  # one commit per put, as ever
        node.wal.close()

        fresh = WriteAheadLog(tmp_path, "n0")
        assert len(fresh.load()) == 10
        # The snapshot holds the first four, the log the six since.
        assert fresh.stats.snapshot_entries_loaded == 4
        assert fresh.stats.log_entries_replayed == 6


# --------------------------------------------------------------------- #
# damaged tails
# --------------------------------------------------------------------- #


def _fp(i: int) -> str:
    """Fingerprint-like keys many bits apart, so one flipped bit can damage
    a record but never turn it into another record's key."""
    import hashlib

    return hashlib.sha1(str(i).encode()).hexdigest()


def _five_records(directory, name="n0"):
    wal = WriteAheadLog(directory, name)
    for i in range(5):
        wal.append(_fp(i), f"meta-{i}", i + 1, i == 3)
    wal.close()
    return wal.log_path.read_bytes()


def test_single_bit_flips_of_the_final_record_never_stop_a_restart(tmp_path):
    """3 000 seeded single-bit flips of the last log line: ``load`` never
    raises, the four records before it always come back, and the damaged
    one is either dropped (and counted) or — when the flip left valid JSON
    of the right shape, e.g. in a key character — replayed as written."""
    import random

    intact = _five_records(tmp_path)
    lines = intact.splitlines(keepends=True)
    head, last = b"".join(lines[:4]), lines[4]
    before = {_fp(i): (f"meta-{i}", i + 1, i == 3) for i in range(4)}
    rng = random.Random(24)
    dropped = undecodable = 0
    for trial in range(3000):
        bit = rng.randrange(len(last) * 8)
        damaged = bytearray(last)
        damaged[bit // 8] ^= 1 << (bit % 8)
        wal = WriteAheadLog(tmp_path, f"flip{trial % 4}")
        wal.log_path.write_bytes(head + bytes(damaged))
        restored = wal.load()
        for key, stored in before.items():
            assert restored[key] == stored
        assert wal.stats.torn_records_dropped + wal.stats.log_entries_replayed == 5
        assert wal.stats.torn_records_dropped in (0, 1)
        dropped += wal.stats.torn_records_dropped
        try:
            bytes(damaged).decode("utf-8")
        except UnicodeDecodeError:
            undecodable += 1
            assert wal.stats.torn_records_dropped == 1
    assert undecodable > 300  # the flips that used to kill the file iterator
    assert dropped > undecodable  # plus the ones that broke the JSON


def test_flipped_record_in_the_middle_costs_only_itself(tmp_path):
    intact = _five_records(tmp_path)
    lines = intact.splitlines(keepends=True)
    lines[2] = bytes([lines[2][0], lines[2][1] | 0x80]) + lines[2][2:]
    wal = WriteAheadLog(tmp_path, "mid")
    wal.log_path.write_bytes(b"".join(lines))
    restored = wal.load()
    assert sorted(restored) == sorted(_fp(i) for i in (0, 1, 3, 4))
    assert wal.stats.torn_records_dropped == 1


def test_wrong_shaped_records_are_dropped_not_raised(tmp_path):
    wal = WriteAheadLog(tmp_path, "n0")
    wal.log_path.write_text(
        '["k", "v", 1, false]\n'
        '["short", 2]\n'
        '7\n'
        '["k2", "v", "not-a-number", false]\n'
        '[["unhashable"], "v", 3, false]\n'
        '["k3", "v", 4, false]\n'
    )
    assert sorted(wal.load()) == ["k", "k3"]
    assert wal.stats.torn_records_dropped == 4
    assert wal.stats.log_entries_replayed == 2


def test_ill_typed_records_are_dropped_not_replayed(tmp_path):
    """A record must be a row a replica could have accepted: an int key
    used to load and then break every Merkle tree of the shard."""
    wal = WriteAheadLog(tmp_path, "n0")
    wal.log_path.write_text(
        '["a", "v", 1, false]\n'
        '[123, "v", 2, false]\n'
        '["b", ["v"], 3, false]\n'
        '["c", "v", 4.5, false]\n'
        '["d", "v", 5, 0]\n'
        '["e", "v", true, false]\n'
    )
    node = Replica("n0", wal=wal)
    assert sorted(node.dump()) == ["a"]
    assert wal.stats.torn_records_dropped == 5
    assert wal.stats.log_entries_replayed == 1
    assert node.merkle_tree(4).root


# --------------------------------------------------------------------- #
# group commit
# --------------------------------------------------------------------- #


class TestBatchScope:
    def _counting_flushes(self, wal):
        """Wrap the open handle so real ``flush()`` calls are counted."""
        fh = wal._handle()
        calls = []
        real = fh.flush

        class Counted:
            def __getattr__(self, name):
                return getattr(fh, name)

            def flush(self):
                calls.append(1)
                return real()

        wal._fh = Counted()
        return calls

    def test_log_bytes_are_what_json_dumps_writes(self, tmp_path):
        rows = [
            ("plain", "", 1, False),
            ('quo"te\\back', "tab\there", 2, True),
            ("snow☃man", "\x00\x1f\x7f", 2**70, False),
            ("\ud800lone-surrogate", "é" * 40, 0, True),
            ("neg", "v", -5, False),
        ]
        odd = [("k", None, 1, False), ("k", "v", 1.5, False), ("k", "v", True, 0)]
        wal = WriteAheadLog(tmp_path, "n0")
        with wal.batch():
            for row in rows + odd:
                wal.append(*row)
        wal.close()
        expected = "".join(json.dumps(list(row)) + "\n" for row in rows + odd)
        assert wal.log_path.read_text() == expected

    def test_one_message_is_k_appends_and_one_flush(self, tmp_path):
        from repro.kvstore.replica import Replica

        wal = WriteAheadLog(tmp_path, "n0", snapshot_every=0)
        replica = Replica("n0", wal=wal)
        flushes = self._counting_flushes(wal)
        rows = [(f"k{i}", "v", i + 1, False) for i in range(43)]
        replica.multi_put(rows)
        assert (wal.stats.appends, wal.stats.flushes, wal.stats.fsyncs) == (43, 1, 0)
        assert len(flushes) == 1
        # On the OS side before multi_put returned: a second handle sees all.
        assert len(wal.log_path.read_text().splitlines()) == 43
        replica.multi_put(rows)  # nothing newer: nothing logged, nothing flushed
        assert (wal.stats.appends, wal.stats.flushes) == (43, 1)
        replica.multi_put([("solo", "v", 99, False)])  # a message of one: its own commit
        assert (wal.stats.appends, wal.stats.flushes) == (44, 2)
        assert len(flushes) == 2

    def test_fsync_deployment_gets_group_commit(self, tmp_path, monkeypatch):
        from repro.kvstore.replica import Replica

        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        wal = WriteAheadLog(tmp_path, "n0", snapshot_every=0, fsync=True)
        Replica("n0", wal=wal).multi_put([(f"k{i}", "v", i + 1, False) for i in range(9)])
        assert (wal.stats.appends, wal.stats.flushes, wal.stats.fsyncs) == (9, 1, 1)
        assert len(synced) == 1

    def test_exception_mid_batch_still_commits_what_was_applied(self, tmp_path):
        from repro.kvstore.replica import Replica

        wal = WriteAheadLog(tmp_path, "n0", snapshot_every=0)
        replica = Replica("n0", wal=wal)

        def rows():
            yield ("a", "v", 1, False)
            yield ("b", "v", 2, False)
            raise RuntimeError("sender died mid-message")

        with pytest.raises(RuntimeError):
            replica.multi_put(rows())
        assert (wal.stats.appends, wal.stats.flushes) == (2, 1)
        # Applied in memory and already readable through a second handle.
        assert sorted(replica.dump()) == ["a", "b"]
        assert sorted(WriteAheadLog(tmp_path, "n0").load()) == ["a", "b"]
        wal.append("c", "v", 3, False)  # the scope is closed again: its own commit
        assert wal.stats.flushes == 2

    def test_snapshot_inside_a_batch_loses_nothing(self, tmp_path):
        from repro.kvstore.replica import Replica

        wal = WriteAheadLog(tmp_path, "n0", snapshot_every=4)
        replica = Replica("n0", wal=wal)
        replica.multi_put([(f"k{i}", "v", i + 1, False) for i in range(10)])
        # The message commits first, then takes the one snapshot it made
        # due (10 appends, a 10-key shard) — never one in mid-batch.
        assert wal.stats.snapshots == 1
        assert wal.stats.flushes == 1
        assert wal.log_path.read_text() == ""
        fresh = WriteAheadLog(tmp_path, "n0")
        assert len(fresh.load()) == 10
        assert (fresh.stats.snapshot_entries_loaded, fresh.stats.log_entries_replayed) == (10, 0)
        # A batch the 10-key shard still outgrows is logged and flushed once.
        replica.multi_put([(f"j{i}", "v", 20 + i, False) for i in range(2)])
        assert wal.stats.snapshots == 1 and wal.stats.flushes == 2
        fresh = WriteAheadLog(tmp_path, "n0")
        assert len(fresh.load()) == 12
        assert (fresh.stats.snapshot_entries_loaded, fresh.stats.log_entries_replayed) == (10, 2)

    def test_torn_tail_inside_a_group_committed_batch(self, tmp_path):
        """A crash mid-batch after the io layer spilled part of its buffer:
        whole records before the tear load, the torn one is dropped, and
        nothing of the batch was ever acknowledged."""
        from repro.kvstore.replica import Replica

        wal = WriteAheadLog(tmp_path, "n0", snapshot_every=0)
        replica = Replica("n0", wal=wal)
        replica.multi_put([(f"old{i}", "v", i + 1, False) for i in range(3)])
        committed = wal.log_path.read_bytes()
        replica.multi_put([(f"new{i:03d}", "x" * 64, 10 + i, False) for i in range(200)])
        wal.close()
        batch = wal.log_path.read_bytes()[len(committed):]
        for cut in (1, len(batch) // 3, 8192, len(batch) - 2):
            crashed = WriteAheadLog(tmp_path, f"crash{cut}")
            crashed.log_path.write_bytes(committed + batch[:cut])
            restored = crashed.load()
            whole = batch[:cut].count(b"\n")
            assert sorted(k for k in restored if k.startswith("old")) == ["old0", "old1", "old2"]
            assert len(restored) == 3 + whole
            assert crashed.stats.torn_records_dropped == 1


# --------------------------------------------------------------------- #
# the snapshot rule: a snapshot once the log has outgrown the shard
# --------------------------------------------------------------------- #


class TestSnapshotRule:
    def test_logging_cost_does_not_grow_with_the_shard(self, tmp_path, monkeypatch):
        # N distinct rows in messages of 16: the snapshots may hold O(N)
        # entries in total. A snapshot every snapshot_every appends wrote
        # the whole growing shard each time — O(N^2 / snapshot_every).
        n, every = 4096, 64
        snapshot_entries = []
        wal = WriteAheadLog(tmp_path, "n0", snapshot_every=every)
        real_write = wal.write_snapshot

        def counting_write(data):
            snapshot_entries.append(len(data))
            real_write(data)

        monkeypatch.setattr(wal, "write_snapshot", counting_write)
        replica = Replica("n0", wal=wal)
        for start in range(0, n, 16):
            replica.multi_put([(f"k{i}", "v", i + 1, False) for i in range(start, start + 16)])
        wal.close()
        assert wal.stats.appends == n
        assert snapshot_entries and sum(snapshot_entries) <= 2 * n
        reborn = Replica("n0", wal=WriteAheadLog(tmp_path, "n0", snapshot_every=every))
        assert dict(reborn.dump()) == dict(replica.dump())
        # snapshot + log read back: at most about twice the shard
        replayed = (
            reborn.wal.stats.snapshot_entries_loaded + reborn.wal.stats.log_entries_replayed
        )
        assert replayed <= 2 * max(n, every)

    def test_small_shard_still_snapshots_every_snapshot_every(self, tmp_path):
        # A shard smaller than snapshot_every keeps the fixed cadence, so
        # the log of a hot, small key set stays bounded.
        wal = WriteAheadLog(tmp_path, "n0", snapshot_every=8)
        node = Replica("n0", wal=wal)
        for i in range(80):
            node.multi_put([(f"k{i % 4}", "v", i + 1, False)])
        assert wal.stats.snapshots == 10

    def test_crash_after_every_message_replays_the_acknowledged_shard(self, tmp_path):
        # Crash after every multi_put (snapshots and log truncations
        # included): a restart lands on the shard as acknowledged. A crash
        # tearing the next message's first record loads the same shard.
        import shutil

        messages = (
            [[(f"k{(3 * m + j) % 11}", f"v{m}", 10 * m + j, False) for j in range(1 + m % 4)]
             for m in range(12)]
            + [[("k1", "stale", 1, False), ("k2", "", 500, True)]]
            + [[(f"new{m}{j}", "w", 600 + 10 * m + j, j == 2) for j in range(5)] for m in range(6)]
            + [[("k2", "back", 700, False)]]
        )
        live = tmp_path / "live"
        wal = WriteAheadLog(live, "n0", snapshot_every=5)
        replica = Replica("n0", wal=wal)
        history = [{}]
        log_before = b""
        torn_checked = 0
        for step, rows in enumerate(messages, start=1):
            snapshots = wal.stats.snapshots
            replica.multi_put(rows)
            history.append(dict(replica.dump()))
            crashed = tmp_path / f"crash-{step}"
            shutil.copytree(live, crashed)
            reborn = Replica("n0", wal=WriteAheadLog(crashed, "n0"))
            assert dict(reborn.dump()) == history[step], step
            log = wal.log_path.read_bytes()
            if wal.stats.snapshots == snapshots and len(log) > len(log_before):
                # This message only appended: cut the log inside its first
                # record, as a crash in mid-append would have left it.
                first_end = log.index(b"\n", len(log_before))
                torn = tmp_path / f"torn-{step}"
                shutil.copytree(live, torn)
                (torn / wal.log_path.name).write_bytes(log[: (len(log_before) + first_end) // 2])
                reborn = Replica("n0", wal=WriteAheadLog(torn, "n0"))
                assert reborn.wal.stats.torn_records_dropped == 1, step
                assert dict(reborn.dump()) == history[step - 1], step
                torn_checked += 1
            log_before = log
        wal.close()
        assert wal.stats.snapshots >= 3 and torn_checked >= 10

    # A WAL directory as the fixed every-snapshot_every cadence left it
    # (snapshot_every=4, ten puts: snapshots at 4 and 8), byte for byte.
    _FIXED_CADENCE_SNAPSHOT = (
        '{"k0": ["v0", 1, false], "k1": ["v1", 2, false], "k2": ["v2", 3, false], '
        '"k3": ["v3", 4, false], "k4": ["v4", 5, false], "k5": ["v5", 6, false], '
        '"k6": ["v6", 7, true], "k7": ["v7", 8, false]}'
    )
    _FIXED_CADENCE_LOG = '["k8", "v8", 9, false]\n["k9", "v9", 10, false]\n'

    def test_fixed_cadence_directory_loads_and_appends_unchanged(self, tmp_path):
        (tmp_path / "n0.snap.json").write_text(self._FIXED_CADENCE_SNAPSHOT)
        (tmp_path / "n0.wal.jsonl").write_text(self._FIXED_CADENCE_LOG)
        wal = WriteAheadLog(tmp_path, "n0", snapshot_every=4)
        replica = Replica("n0", wal=wal)
        assert sorted(replica.dump()) == [f"k{i}" for i in range(10)]
        assert replica.dump()["k6"] == ("v6", 7, True)
        assert (wal.stats.snapshot_entries_loaded, wal.stats.log_entries_replayed) == (8, 2)
        replica.multi_put([("k3", "new", 20, False), ("k1", "stale", 1, False), ("k10", "v10", 21, False)])
        wal.close()
        assert wal.stats.snapshots == 0
        assert (tmp_path / "n0.snap.json").read_text() == self._FIXED_CADENCE_SNAPSHOT
        assert (tmp_path / "n0.wal.jsonl").read_text() == (
            self._FIXED_CADENCE_LOG + '["k3", "new", 20, false]\n["k10", "v10", 21, false]\n'
        )


# --------------------------------------------------------------------- #
# restarts: load compacts a log that already outgrew the shard
# --------------------------------------------------------------------- #


def _log_at_restart(directory, name) -> tuple[int, int]:
    """(records the log holds, entries in the shard) of a WAL directory,
    read by a probe that never compacts (``snapshot_every=0``)."""
    probe = WriteAheadLog(directory, name, snapshot_every=0)
    shard = probe.load()
    probe.close()
    return probe.stats.log_entries_replayed, len(shard)


class TestRestartCompaction:
    def test_a_node_restarted_often_still_snapshots(self, tmp_path):
        # 40 restarts x 50 puts over 100 keys: no single instance appends
        # the 100 records a snapshot waits for, so without compaction at
        # load the log grew to all 2 000 records.
        every, ts = 64, 0
        for _ in range(40):
            wal = WriteAheadLog(tmp_path, "n0", snapshot_every=every)
            replica = Replica("n0", wal=wal)
            for _ in range(50):
                ts += 1
                replica.multi_put([(f"k{ts % 100}", f"v{ts}", ts, False)])
            wal.close()
        records, shard = _log_at_restart(tmp_path, "n0")
        assert shard == 100
        assert records <= 2 * max(every, shard)

    @pytest.mark.parametrize("seed", range(4))
    def test_index_log_restarts_stay_within_twice_the_shard(self, tmp_path, seed):
        rng = random.Random(seed)
        every = rng.choice([4, 16, 64])
        model: dict[str, tuple] = {}
        replica = Replica("n0", wal=WriteAheadLog(tmp_path, "n0", snapshot_every=every))
        ts = 0
        for _ in range(400):
            roll = rng.random()
            if roll < 0.1:
                replica.wal.close()
                records, shard = _log_at_restart(tmp_path, "n0")
                assert records <= 2 * max(every, shard)
                replica = Replica("n0", wal=WriteAheadLog(tmp_path, "n0", snapshot_every=every))
                assert dict(replica.dump()) == model
                continue
            rows = []
            for _ in range(rng.randint(1, 6)):
                ts += 1
                if roll < 0.5 or not model:  # insert
                    key = f"k{len(model) + len(rows)}"
                else:  # overwrite, sometimes with a tombstone
                    key = rng.choice(sorted(model))
                rows.append((key, f"v{ts}", ts, rng.random() < 0.2))
            replica.multi_put(rows)
            for key, value, stamp, tombstone in rows:
                model[key] = (value, stamp, tombstone)
        replica.wal.close()

    @pytest.mark.parametrize("seed", range(4))
    def test_refcount_journal_restarts_stay_within_twice_the_ledger(self, tmp_path, seed):
        rng = random.Random(seed)
        every = rng.choice([4, 16, 64])
        model: dict[str, int] = {}
        gc = RefcountGC(journal_dir=tmp_path, snapshot_every=every)
        fresh = 0
        for _ in range(600):
            roll = rng.random()
            if roll < 0.1:
                gc.close()
                records, shard = _log_at_restart(tmp_path, "refcounts")
                assert records <= 2 * max(every, shard)
                gc = RefcountGC(journal_dir=tmp_path, snapshot_every=every)
                assert gc.counts == model
            elif roll < 0.45 or not model:  # insert
                fresh += 1
                model[f"fp{fresh}"] = gc.incr(f"fp{fresh}")
            else:  # overwrite: more or fewer references, or forgotten
                fingerprint = rng.choice(sorted(model))
                if roll < 0.7:
                    model[fingerprint] = gc.incr(fingerprint)
                elif roll < 0.9:
                    model[fingerprint] = gc.decr(fingerprint)
                else:
                    gc.forget(fingerprint)
                    del model[fingerprint]
        gc.close()
