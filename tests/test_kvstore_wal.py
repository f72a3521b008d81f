"""Tests for the per-node write-ahead log + snapshot durability layer."""

import io
import json

import pytest

from repro.kvstore.node import StorageNode, VersionedValue
from repro.kvstore.wal import WriteAheadLog


def test_append_load_roundtrip(tmp_path):
    wal = WriteAheadLog(tmp_path, "n0")
    wal.append("k1", "v1", 10, False)
    wal.append("k2", "v2", 20, False)
    wal.close()

    restored = WriteAheadLog(tmp_path, "n0").load()
    assert restored["k1"] == VersionedValue("v1", 10, False)
    assert restored["k2"] == VersionedValue("v2", 20, False)


def test_replay_is_last_write_wins(tmp_path):
    wal = WriteAheadLog(tmp_path, "n0")
    wal.append("k", "old", 10, False)
    wal.append("k", "new", 20, False)
    wal.append("k", "stale", 15, False)  # older record later in the log
    wal.close()

    restored = WriteAheadLog(tmp_path, "n0").load()
    assert restored["k"].value == "new"
    assert restored["k"].timestamp == 20


def test_tombstone_survives_restart(tmp_path):
    wal = WriteAheadLog(tmp_path, "n0")
    wal.append("k", "v", 10, False)
    wal.append("k", "", 20, True)
    wal.close()

    restored = WriteAheadLog(tmp_path, "n0").load()
    assert restored["k"].tombstone


def test_snapshot_truncates_log_and_loads(tmp_path):
    wal = WriteAheadLog(tmp_path, "n0", snapshot_every=3)
    data = {}
    for i in range(3):
        data[f"k{i}"] = VersionedValue(f"v{i}", i + 1, False)
        wal.append(f"k{i}", f"v{i}", i + 1, False)
    assert wal.due_for_snapshot()
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
        "plain": VersionedValue("v", 1, False),
        "gone": VersionedValue("", 2**40, True),
        'quote"\\back\nslash': VersionedValue("ünï\u2603cödé \U0001f600", 3, False),
        "": VersionedValue("empty key", 0, False),
    }
    wal = WriteAheadLog(tmp_path, "n0")
    wal.write_snapshot(data)
    wal.close()
    expected = io.StringIO()
    json.dump({k: [v.value, v.timestamp, v.tombstone] for k, v in data.items()}, expected)
    assert wal.snap_path.read_bytes() == expected.getvalue().encode("utf-8")
    assert WriteAheadLog(tmp_path, "n0").load() == data

    wal = WriteAheadLog(tmp_path, "empty")
    wal.write_snapshot({})
    wal.close()
    assert wal.snap_path.read_bytes() == b"{}"
    assert WriteAheadLog(tmp_path, "empty").load() == {}


def test_torn_final_record_dropped(tmp_path):
    wal = WriteAheadLog(tmp_path, "n0")
    wal.append("k1", "v1", 10, False)
    wal.close()
    # Simulate a crash mid-append: a partial JSON line at the tail.
    with open(wal.log_path, "a", encoding="utf-8") as fh:
        fh.write('["k2", "v2", 2')

    fresh = WriteAheadLog(tmp_path, "n0")
    restored = fresh.load()
    assert restored == {"k1": VersionedValue("v1", 10, False)}
    assert fresh.stats.torn_records_dropped == 1


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
    assert WriteAheadLog(tmp_path, "n0").load()["k"].value == "v"


def test_param_validation(tmp_path):
    with pytest.raises(ValueError):
        WriteAheadLog(tmp_path, "n0", snapshot_every=-1)
    with pytest.raises(ValueError):
        WriteAheadLog(tmp_path, "../escape")
    with pytest.raises(ValueError):
        WriteAheadLog(tmp_path, "")


class TestNodeIntegration:
    def test_node_writes_reach_wal_and_restore(self, tmp_path):
        node = StorageNode("n0", wal=WriteAheadLog(tmp_path, "n0"))
        for i in range(5):
            node.local_put(f"k{i}", f"v{i}", timestamp=i + 1)
        node.wal.close()

        reborn = StorageNode("n0", wal=WriteAheadLog(tmp_path, "n0"))
        assert reborn.local_get("k3").value == "v3"
        assert len(reborn._data) == 5

    def test_rejected_stale_write_not_logged(self, tmp_path):
        wal = WriteAheadLog(tmp_path, "n0")
        node = StorageNode("n0", wal=wal)
        node.local_put("k", "new", timestamp=10)
        node.local_put("k", "stale", timestamp=5)  # LWW rejects
        assert wal.stats.appends == 1

    def test_periodic_snapshot_via_node(self, tmp_path):
        wal = WriteAheadLog(tmp_path, "n0", snapshot_every=4)
        node = StorageNode("n0", wal=wal)
        for i in range(10):
            node.local_put(f"k{i}", "v", timestamp=i + 1)
        assert wal.stats.snapshots == 2
        node.wal.close()

        fresh = WriteAheadLog(tmp_path, "n0")
        assert len(fresh.load()) == 10
        # Most entries came from snapshots, only the tail from the log.
        assert fresh.stats.snapshot_entries_loaded == 8
        assert fresh.stats.log_entries_replayed == 2
