"""Page images stay isolated from buffer frames.

The volume's payload store is the durable page image.  A frame's payload
is mutated in place, so every write and every read copies containers;
only plain tuples of immutable scalars are shared.  These tests pin both
halves of that rule.
"""

import collections
import copy

import pytest

from repro.buffer import BufferPool
from repro.common import SimClock
from repro.storage import FlashDisk, Volume
from repro.storage.btree import BTree
from repro.storage.exthash import ExtensibleHashTable
from repro.storage.rowstore import RowId


@pytest.fixture
def volume():
    return Volume(FlashDisk(SimClock(), 500_000))


def make_pool(volume, capacity=256):
    return BufferPool(volume.create_file("temp"), capacity_pages=capacity)


def durable(file, page_no):
    return file.volume.peek_payload(file.global_page(page_no))


def write_slots(volume, rows):
    file = volume.create_file("t")
    page = file.allocate_page()
    file.write(page, {"lsn": 7, "slots": list(rows)})
    return file, page


class TestMutationNeverReachesTheImage:
    def test_mutating_written_payload(self, volume):
        file = volume.create_file("t")
        page = file.allocate_page()
        payload = {"lsn": 7, "slots": [(1, "a"), None]}
        file.write(page, payload)
        payload["lsn"] = 99
        payload["slots"][0] = (9, "z")
        payload["slots"][1] = (2, "b")
        payload["slots"].append((3, "c"))
        assert durable(file, page) == {"lsn": 7, "slots": [(1, "a"), None]}

    def test_mutating_read_payload(self, volume):
        file, page = write_slots(volume, [(1, "a"), None])
        payload = file.read(page)
        payload["lsn"] = 99
        payload["slots"][0] = None
        payload["slots"].append((3, "c"))
        assert durable(file, page) == {"lsn": 7, "slots": [(1, "a"), None]}
        assert file.read(page) == {"lsn": 7, "slots": [(1, "a"), None]}

    def test_rowstore_frame_after_writeback(self, volume):
        pool = make_pool(volume)
        file = volume.create_file("t")
        frame = pool.new_page(file, payload={"lsn": 1, "slots": [(1, "a")]})
        pool.unpin(frame, dirty=True)
        pool.flush_all()
        frame.payload["slots"][0] = (5, "e")
        frame.payload["lsn"] = 2
        assert durable(file, frame.page_no) == {"lsn": 1, "slots": [(1, "a")]}

    def test_btree_keys_and_children(self, volume):
        pool = make_pool(volume)
        tree = BTree(volume.create_file("idx"), pool, fanout=4)
        for i in range(20):
            tree.insert((i,), RowId(0, i))
        assert tree.height > 1
        pool.flush_all()
        file = tree.file
        images = {
            page: copy.deepcopy(durable(file, page))
            for page in range(file.page_count)
        }
        for page in range(file.page_count):
            with pool.pin_guard(pool.fetch(file, page)) as frame:
                node = frame.payload
                node["keys"].append(((1, "x"),))
                if node["leaf"]:
                    node["values"][0].append(RowId(9, 9))
                else:
                    node["children"].append(999)
        for page, image in images.items():
            assert durable(file, page) == image

    def test_exthash_entries(self, volume):
        pool = make_pool(volume)
        table = ExtensibleHashTable(
            volume.create_file("hash"), pool, bucket_capacity=4
        )
        for i in range(12):
            table.put(i, (i, "v"))
        pool.flush_all()
        file = table.file
        images = {
            page: copy.deepcopy(durable(file, page))
            for page in range(file.page_count)
        }
        for page in range(file.page_count):
            with pool.pin_guard(pool.fetch(file, page)) as frame:
                entries = frame.payload["entries"]
                if entries:
                    del entries[next(iter(entries))]
                entries["planted"] = 1
        for page, image in images.items():
            assert durable(file, page) == image


class TestSharing:
    def test_scalar_row_is_shared(self, volume):
        row = (1, 2.5, "s", b"b", True, None)
        file, page = write_slots(volume, [row])
        assert durable(file, page)["slots"][0] is row
        assert file.read(page)["slots"][0] is row

    def test_containers_around_rows_are_copied(self, volume):
        row = (1, "a")
        file, page = write_slots(volume, [row])
        image = durable(file, page)
        read = file.read(page)
        assert read is not image
        assert read["slots"] is not image["slots"]
        assert read["slots"][0] is row

    @pytest.mark.parametrize("inner", [[2, 3], {"k": 2}], ids=["list", "dict"])
    def test_tuple_holding_a_container_is_copied(self, volume, inner):
        row = (1, inner)
        file, page = write_slots(volume, [row])
        stored = durable(file, page)["slots"][0]
        assert stored == row
        assert stored is not row
        assert stored[1] is not inner
        read = file.read(page)["slots"][0]
        assert read is not stored and read[1] is not stored[1]

    def test_tuple_holding_a_rowid_is_copied(self, volume):
        row_id = RowId(3, 4)
        row = (row_id, 5)
        file, page = write_slots(volume, [row])
        stored = durable(file, page)["slots"][0]
        assert stored == row and stored is not row
        assert stored[0] is row_id  # value objects are shared, as before

    def test_namedtuple_is_copied(self, volume):
        Point = collections.namedtuple("Point", ["x", "y"])
        row = Point(1, 2)
        file, page = write_slots(volume, [row])
        stored = durable(file, page)["slots"][0]
        assert stored == row and stored is not row
        assert type(stored) is tuple  # rebuilt as a plain tuple, as before
