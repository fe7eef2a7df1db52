"""Guest page table semantics."""

from hypothesis import given
from hypothesis import strategies as st

from repro.hw.page_table import PageTable


class TestPageTable:
    def test_install_lookup(self):
        table = PageTable()
        table.install(10, frame=3, writable=False)
        pte = table.lookup(10)
        assert pte is not None
        assert pte.frame == 3
        assert not pte.writable
        assert pte.accessed

    def test_missing_lookup(self):
        assert PageTable().lookup(99) is None

    def test_dirty_tracking_protocol(self):
        """Read fault installs read-only; first write upgrades + dirties."""
        table = PageTable()
        table.install(5, frame=1, writable=False)
        assert not table.lookup(5).dirty
        table.set_writable(5)
        table.mark_dirty(5)
        pte = table.lookup(5)
        assert pte.writable and pte.dirty
        table.clear_dirty(5)
        assert not table.lookup(5).dirty

    def test_remove(self):
        table = PageTable()
        table.install(1, frame=9)
        removed = table.remove(1)
        assert removed.frame == 9
        assert table.lookup(1) is None
        assert table.remove(1) is None
        assert table.removals == 1

    def test_remove_many(self):
        table = PageTable()
        for vpn in (1, 2, 3):
            table.install(vpn, frame=vpn)
        table.remove_many([1, 3, 4])
        assert table.lookup(2).frame == 2 and len(table) == 1
        assert table.removals == 2

    def test_reinstall_replaces(self):
        table = PageTable()
        table.install(1, frame=5)
        table.install(1, frame=7)
        assert table.lookup(1).frame == 7

    def test_mapped_range(self):
        table = PageTable()
        for vpn in (10, 12, 20):
            table.install(vpn, frame=vpn)
        found = dict(table.mapped_range(10, 5))   # [10, 15)
        assert set(found) == {10, 12}

    def test_mapped_range_large_window(self):
        """The sparse-table path (range larger than table)."""
        table = PageTable()
        table.install(1000, frame=1)
        table.install(2000, frame=2)
        found = dict(table.mapped_range(0, 10_000))
        assert set(found) == {1000, 2000}

    def test_frames_in_use(self):
        table = PageTable()
        table.install(3, frame=30)
        table.install(4, frame=40)
        assert table.frames_in_use() == {30: 3, 40: 4}

    @given(st.sets(st.integers(min_value=0, max_value=10_000), max_size=100))
    def test_install_remove_roundtrip(self, vpns):
        table = PageTable()
        for vpn in vpns:
            table.install(vpn, frame=vpn * 2)
        assert len(table) == len(vpns)
        for vpn in vpns:
            assert table.lookup(vpn).frame == vpn * 2
            table.remove(vpn)
        assert len(table) == 0
