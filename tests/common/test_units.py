"""Unit helpers: sizes, alignment, cycle/time conversions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import units


class TestSizes:
    def test_size_constants(self):
        assert units.KIB == 1024
        assert units.MIB == 1024 * 1024
        assert units.GIB == 1024 ** 3
        assert units.PAGE_SIZE == 4096
        assert 1 << units.PAGE_SHIFT == units.PAGE_SIZE

    def test_pages_rounds_up(self):
        assert units.pages(0) == 0
        assert units.pages(1) == 1
        assert units.pages(4096) == 1
        assert units.pages(4097) == 2
        assert units.pages(units.MIB) == 256

    @given(st.integers(min_value=0, max_value=1 << 48))
    def test_pages_covers_bytes(self, nbytes):
        assert units.pages(nbytes) * units.PAGE_SIZE >= nbytes
        if nbytes:
            assert (units.pages(nbytes) - 1) * units.PAGE_SIZE < nbytes


class TestAlignment:
    @given(st.integers(min_value=0, max_value=1 << 48))
    def test_align_down_up_bracket(self, addr):
        down = addr - units.page_offset(addr)
        up = units.page_align_up(addr)
        assert down <= addr <= up
        assert down % units.PAGE_SIZE == 0
        assert up % units.PAGE_SIZE == 0
        assert up - down in (0, units.PAGE_SIZE)

    @given(st.integers(min_value=0, max_value=1 << 48))
    def test_page_number_offset_roundtrip(self, addr):
        reconstructed = (addr >> units.PAGE_SHIFT) * units.PAGE_SIZE + units.page_offset(addr)
        assert reconstructed == addr


class TestTimeConversions:
    def test_frequency(self):
        assert units.CPU_FREQ_HZ == 2_400_000_000

    def test_known_conversions(self):
        # 2400 cycles at 2.4 GHz is exactly 1 microsecond.
        assert units.cycles_to_us(2400) == pytest.approx(1.0)
        assert units.cycles_to_seconds(units.CPU_FREQ_HZ) == pytest.approx(1.0)

    @given(st.floats(min_value=0, max_value=1e9, allow_nan=False))
    def test_roundtrip_us(self, us):
        assert units.cycles_to_us(units.us_to_cycles(us)) == pytest.approx(us, rel=1e-9)
