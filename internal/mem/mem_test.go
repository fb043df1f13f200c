package mem

import (
	"testing"
	"testing/quick"
)

func TestRefKindString(t *testing.T) {
	cases := []struct {
		k    RefKind
		want string
	}{
		{IFetch, "ifetch"},
		{Load, "load"},
		{Store, "store"},
		{RefKind(9), "RefKind(9)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("RefKind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestRefKindIsData(t *testing.T) {
	if IFetch.IsData() {
		t.Error("IFetch.IsData() = true, want false")
	}
	if !Load.IsData() {
		t.Error("Load.IsData() = false, want true")
	}
	if !Store.IsData() {
		t.Error("Store.IsData() = false, want true")
	}
}

func TestRefString(t *testing.T) {
	r := Ref{PID: 3, Kind: Store, Addr: 0x1000}
	if got, want := r.String(), "p3 store 0x1000"; got != want {
		t.Errorf("Ref.String() = %q, want %q", got, want)
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []uint64{1, 2, 4, 128, 4096, 1 << 40} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false, want true", v)
		}
	}
	for _, v := range []uint64{0, 3, 6, 100, 4097} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true, want false", v)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint64]uint{1: 0, 2: 1, 4: 2, 128: 7, 4096: 12, 5: 2}
	for v, want := range cases {
		if got := Log2(v); got != want {
			t.Errorf("Log2(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestLog2RoundTrip(t *testing.T) {
	f := func(shift uint8) bool {
		s := uint(shift % 63)
		return Log2(1<<s) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlign(t *testing.T) {
	if got := AlignDown(0x1234, 0x100); got != 0x1200 {
		t.Errorf("AlignDown = %#x, want 0x1200", got)
	}
	if got := AlignUp(0x1234, 0x100); got != 0x1300 {
		t.Errorf("AlignUp = %#x, want 0x1300", got)
	}
	if got := AlignUp(0x1200, 0x100); got != 0x1200 {
		t.Errorf("AlignUp aligned = %#x, want 0x1200", got)
	}
}

func TestAlignProperties(t *testing.T) {
	f := func(addr uint64, shift uint8) bool {
		align := uint64(1) << (shift % 20)
		d, u := AlignDown(addr, align), AlignUp(addr, align)
		if d%align != 0 || d > addr {
			return false
		}
		// AlignUp may wrap at the very top of the address space;
		// restrict to addresses where it cannot.
		if addr < 1<<50 {
			if u%align != 0 || u < addr || u-d >= 2*align {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatSize(t *testing.T) {
	cases := map[uint64]string{
		128:             "128B",
		4096:            "4KB",
		4 << 20:         "4MB",
		4<<20 + 128<<10: "4.12MB",
		1 << 30:         "1GB",
	}
	for v, want := range cases {
		if got := FormatSize(v); got != want {
			t.Errorf("FormatSize(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestNewClock(t *testing.T) {
	c, err := NewClock(200)
	if err != nil {
		t.Fatalf("NewClock(200): %v", err)
	}
	if c.CycleTime() != 5000*Picosecond {
		t.Errorf("200MHz cycle time = %d ps, want 5000", c.CycleTime())
	}
	c4, err := NewClock(4000)
	if err != nil {
		t.Fatalf("NewClock(4000): %v", err)
	}
	if c4.CycleTime() != 250*Picosecond {
		t.Errorf("4GHz cycle time = %d ps, want 250", c4.CycleTime())
	}
	if _, err := NewClock(0); err == nil {
		t.Error("NewClock(0) succeeded, want error")
	}
	if _, err := NewClock(333); err == nil {
		t.Error("NewClock(333) succeeded, want error for non-integral cycle time")
	}
}

func TestClockCyclesFrom(t *testing.T) {
	c := MustClock(1000) // 1 GHz, 1000 ps/cycle
	cases := []struct {
		d    Picos
		want Cycles
	}{
		{0, 0},
		{1, 1},
		{999, 1},
		{1000, 1},
		{1001, 2},
		{50 * Nanosecond, 50},
	}
	for _, tc := range cases {
		if got := c.CyclesFrom(tc.d); got != tc.want {
			t.Errorf("CyclesFrom(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestClockRambusLatencyScales(t *testing.T) {
	// The 50ns Rambus startup costs 10 cycles at 200MHz, 200 at 4GHz:
	// the paper's CPU-DRAM gap in miniature.
	if got := MustClock(200).CyclesFrom(50 * Nanosecond); got != 10 {
		t.Errorf("200MHz: 50ns = %d cycles, want 10", got)
	}
	if got := MustClock(4000).CyclesFrom(50 * Nanosecond); got != 200 {
		t.Errorf("4GHz: 50ns = %d cycles, want 200", got)
	}
}

func TestClockSeconds(t *testing.T) {
	c := MustClock(200)
	if got := c.Seconds(200_000_000); got != 1.0 {
		t.Errorf("Seconds(200M cycles @200MHz) = %g, want 1.0", got)
	}
}

func TestClockString(t *testing.T) {
	cases := map[uint64]string{200: "200MHz", 800: "800MHz", 1000: "1GHz", 4000: "4GHz"}
	for mhz, want := range cases {
		if got := MustClock(mhz).String(); got != want {
			t.Errorf("Clock(%d).String() = %q, want %q", mhz, got, want)
		}
	}
}

func TestClockRoundTripProperty(t *testing.T) {
	c := MustClock(800)
	f := func(n uint32) bool {
		cy := Cycles(n)
		return c.CyclesFrom(c.PicosFrom(cy)) == cy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
