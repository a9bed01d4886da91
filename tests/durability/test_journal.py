"""Journal framing: roundtrip, torn tails, CRC damage, epochs."""

import gc
import os
import warnings

import pytest

from repro.durability import JOURNAL_NAME, Journal, JournalReader


@pytest.fixture()
def path(tmp_path):
    return str(tmp_path / JOURNAL_NAME)


def read_all(path):
    reader = JournalReader(path)
    return list(reader.records()), reader


class TestRoundtrip:
    def test_records_come_back_in_order(self, path):
        journal = Journal(path, sync="none")
        journal.append({"t": "det", "id": "e:1", "xml": "<d/>"})
        journal.append({"t": "done", "id": "e:1", "s": "completed"})
        journal.commit()
        journal.close()
        records, reader = read_all(path)
        assert records == [{"t": "det", "id": "e:1", "xml": "<d/>"},
                           {"t": "done", "id": "e:1", "s": "completed"}]
        assert not reader.truncated

    def test_epoch_record_is_consumed_not_yielded(self, path):
        Journal(path, sync="always", epoch=3).close()
        records, reader = read_all(path)
        assert records == []
        assert reader.epoch == 3

    def test_missing_file_reads_as_empty(self, path):
        records, reader = read_all(path)
        assert records == []
        assert not reader.truncated

    def test_unicode_payload_survives(self, path):
        journal = Journal(path, sync="always")
        journal.append({"t": "det", "id": "e:1", "xml": "<d x='è—ß'/>"})
        journal.close()
        records, _ = read_all(path)
        assert records[0]["xml"] == "<d x='è—ß'/>"

    def test_reading_closes_the_file(self, path):
        journal = Journal(path, sync="none")
        journal.append({"t": "det", "id": "e:1", "xml": "<d/>"})
        journal.close()
        gc.collect()  # earlier tests' garbage warns on its own account
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert len(list(JournalReader(path).records())) == 1
            gc.collect()
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)
                and path in str(w.message)] == []

    def test_unknown_sync_policy_rejected(self, path):
        with pytest.raises(ValueError, match="sync policy"):
            Journal(path, sync="sometimes")


class TestCrashTolerance:
    def test_torn_tail_is_discarded(self, path):
        journal = Journal(path, sync="always")
        journal.append({"t": "det", "id": "e:1", "xml": "<d/>"})
        journal.close()
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x40\xde\xad")  # header + no payload
        records, reader = read_all(path)
        assert [r["t"] for r in records] == ["det"]
        assert reader.truncated

    def test_crc_mismatch_stops_replay(self, path):
        journal = Journal(path, sync="always")
        journal.append({"t": "det", "id": "e:1", "xml": "<d/>"})
        journal.append({"t": "done", "id": "e:1", "s": "completed"})
        journal.close()
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0xFF  # flip a byte inside the last payload
        open(path, "wb").write(bytes(data))
        records, reader = read_all(path)
        assert [r["t"] for r in records] == ["det"]
        assert reader.truncated

    def test_reopen_truncates_torn_tail_before_appending(self, path):
        journal = Journal(path, sync="always")
        journal.append({"t": "det", "id": "e:1", "xml": "<d/>"})
        journal.close()
        with open(path, "ab") as handle:
            handle.write(b"\x13\x37")  # torn frame from a crash
        journal = Journal(path, sync="always")
        journal.append({"t": "done", "id": "e:1", "s": "completed"})
        journal.close()
        records, reader = read_all(path)
        assert [r["t"] for r in records] == ["det", "done"]
        assert not reader.truncated

    def test_reopen_preserves_existing_epoch(self, path):
        Journal(path, sync="always", epoch=7).close()
        journal = Journal(path, sync="always", epoch=0)
        assert journal.epoch == 7
        journal.close()


class TestRestart:
    def test_restart_truncates_and_bumps_epoch(self, path):
        journal = Journal(path, sync="always")
        journal.append({"t": "det", "id": "e:1", "xml": "<d/>"})
        journal.restart(epoch=1)
        journal.append({"t": "det", "id": "e:2", "xml": "<d/>"})
        journal.close()
        records, reader = read_all(path)
        assert [r["id"] for r in records] == ["e:2"]
        assert reader.epoch == 1

    def test_commit_flushes_buffered_appends(self, path):
        journal = Journal(path, sync="commit")
        journal.append({"t": "det", "id": "e:1", "xml": "<d/>"})
        journal.commit()
        assert os.path.getsize(path) > 0
        records, _ = read_all(path)
        assert [r["t"] for r in records] == ["det"]
        journal.close()
