"""VMA stores: Linux rb-tree + mmap_sem vs Aquila radix + per-entry locks."""

import pytest

from repro.common import units
from repro.devices.pmem import PmemDevice
from repro.mmio.files import ExtentFile
from repro.mmio.vma import (
    MADV_NORMAL,
    PROT_READ,
    PROT_WRITE,
    VMA,
    AquilaVMAStore,
    LinuxVMAStore,
)
from repro.sim.clock import CycleClock


def _file(pages=64, name="f"):
    device = PmemDevice(capacity_bytes=64 * units.MIB)
    return ExtentFile(1, name, device, 0, pages * units.PAGE_SIZE)


@pytest.fixture(params=[LinuxVMAStore, AquilaVMAStore])
def store(request):
    return request.param()


class TestVMA:
    def test_contains(self):
        vma = VMA(1, start_vpn=100, num_pages=10, file=_file())
        assert vma.contains(100)
        assert vma.contains(109)
        assert not vma.contains(110)
        assert not vma.contains(99)

    def test_file_page_of(self):
        vma = VMA(1, start_vpn=100, num_pages=10, file=_file(), file_start_page=5)
        assert vma.file_page_of(100) == 5
        assert vma.file_page_of(109) == 14

    def test_file_page_outside_raises(self):
        from repro.common.errors import SegmentationFault

        vma = VMA(1, start_vpn=100, num_pages=10, file=_file())
        with pytest.raises(SegmentationFault):
            vma.file_page_of(110)


class TestVMAStoreCommon:
    def test_mmap_creates_valid_area(self, store):
        clock = CycleClock()
        vma = store.mmap(clock, _file(16))
        assert vma.num_pages == 16
        assert store.lookup(clock, vma.start_vpn) is vma
        assert store.lookup(clock, vma.end_vpn - 1) is vma

    def test_lookup_outside_returns_none(self, store):
        clock = CycleClock()
        vma = store.mmap(clock, _file(16))
        assert store.lookup(clock, vma.start_vpn - 1) is None
        assert store.lookup(clock, vma.end_vpn) is None

    def test_multiple_areas_disjoint(self, store):
        clock = CycleClock()
        a = store.mmap(clock, _file(8, "a"))
        b = store.mmap(clock, _file(8, "b"))
        assert a.end_vpn <= b.start_vpn
        assert store.lookup(clock, a.start_vpn) is a
        assert store.lookup(clock, b.start_vpn) is b

    def test_remove(self, store):
        clock = CycleClock()
        vma = store.mmap(clock, _file(8))
        store.remove(clock, vma)
        assert store.lookup(clock, vma.start_vpn) is None

    def test_partial_file_mapping(self, store):
        clock = CycleClock()
        vma = store.mmap(clock, _file(16), num_pages=4, file_start_page=8)
        assert vma.num_pages == 4
        assert vma.file_page_of(vma.start_vpn) == 8

    def test_mapping_past_eof_rejected(self, store):
        with pytest.raises(ValueError):
            store.mmap(CycleClock(), _file(4), num_pages=8)
        with pytest.raises(ValueError):
            store.mmap(CycleClock(), _file(4), num_pages=2, file_start_page=3)

    def test_zero_pages_rejected(self, store):
        with pytest.raises(ValueError):
            store.mmap(CycleClock(), _file(4), num_pages=0)

    def test_default_prot(self, store):
        vma = store.mmap(CycleClock(), _file(4))
        assert vma.prot & PROT_READ
        assert vma.prot & PROT_WRITE
        assert vma.advice == MADV_NORMAL


class TestLinuxStoreSpecifics:
    def test_lookup_takes_mmap_sem_read(self):
        store = LinuxVMAStore()
        clock = CycleClock()
        vma = store.mmap(clock, _file(4))
        before = store.mmap_sem.read_acquisitions
        store.lookup(clock, vma.start_vpn)
        assert store.mmap_sem.read_acquisitions == before + 1

    def test_updates_take_write_lock(self):
        store = LinuxVMAStore()
        clock = CycleClock()
        before = store.mmap_sem.write_acquisitions
        vma = store.mmap(clock, _file(4))
        store.remove(clock, vma)
        assert store.mmap_sem.write_acquisitions == before + 2


class TestAquilaStoreSpecifics:
    def test_refcount_tracks_areas(self):
        store = AquilaVMAStore()
        clock = CycleClock()
        a = store.mmap(clock, _file(4, "a"))
        b = store.mmap(clock, _file(4, "b"))
        assert store.refcount == 2
        store.remove(clock, a)
        assert store.refcount == 1

    def test_lookup_cheaper_than_linux(self):
        """Radix validity check vs trap + mmap_sem + rb-tree walk."""
        linux, aquila = LinuxVMAStore(), AquilaVMAStore()
        c1, c2 = CycleClock(), CycleClock()
        v1 = linux.mmap(c1, _file(4))
        v2 = aquila.mmap(c2, _file(4))
        c1, c2 = CycleClock(), CycleClock()
        linux.lookup(c1, v1.start_vpn)
        aquila.lookup(c2, v2.start_vpn)
        assert c2.now < c1.now
