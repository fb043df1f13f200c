package trace

import (
	"io"
	"testing"

	"rampage/internal/mem"
	"rampage/internal/synth"
)

// FuzzColumnarRoundTrip proves the columnar capture/replay pipeline is
// lossless against the per-reference generator: capturing a synthetic
// workload into a ColumnarBuffer and replaying it through a
// ColumnarReader (read through ReadColumns in fuzzed batch sizes) must
// reproduce exactly the reference sequence an identical generator
// delivers one Next() call at a time. The fuzzer varies the seed, the Table 2 profile, the
// stream length, the capture limit, and the replay batch size.
func FuzzColumnarRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(4000), uint16(0), uint8(64))
	f.Add(uint64(42), uint8(3), uint16(1), uint16(1), uint8(0))
	f.Add(uint64(0xdead), uint8(7), uint16(9999), uint16(512), uint8(255))
	f.Add(uint64(7), uint8(1), uint16(333), uint16(4096), uint8(13))

	profiles := synth.Table2()
	f.Fuzz(func(t *testing.T, seed uint64, profIdx uint8, refSel uint16, limitSel uint16, batchSel uint8) {
		p := profiles[int(profIdx)%len(profiles)]
		wantRefs := uint64(refSel)%20000 + 1
		opts := synth.Options{
			Seed:      seed,
			RefScale:  float64(wantRefs) / (p.TotalMillions * 1e6),
			SizeScale: 1.0 / 1024,
			PID:       7,
		}
		gen, err := synth.NewGenerator(p, opts)
		if err != nil {
			t.Skip("degenerate profile/scale combination")
		}

		limit := uint64(limitSel)
		buf, err := CaptureColumnar(gen, limit)
		if err != nil {
			t.Fatalf("capture: %v", err)
		}
		total := uint64(buf.Len()) + gen.Remaining()
		want := total
		if limit > 0 && limit < total {
			want = limit
		}
		if uint64(buf.Len()) != want {
			t.Fatalf("captured %d refs, want %d (limit %d, stream %d)", buf.Len(), want, limit, total)
		}

		replay := NewColumnarReader(buf)
		if replay.Remaining() != uint64(buf.Len()) {
			t.Fatalf("fresh reader Remaining() = %d, want %d", replay.Remaining(), buf.Len())
		}
		batch := int(batchSel)%256 + 1
		oracle, err := synth.NewGenerator(p, opts)
		if err != nil {
			t.Fatalf("second generator with identical options failed: %v", err)
		}
		drainAndCompare(t, replay, oracle, batch, buf.Len())

		// A reset reader must replay the identical stream again.
		replay.Reset()
		oracle2, err := synth.NewGenerator(p, opts)
		if err != nil {
			t.Fatalf("third generator: %v", err)
		}
		drainAndCompare(t, replay, oracle2, batch, buf.Len())
	})
}

// drainAndCompare drains replay through ReadColumns in fixed-size
// windows and compares every reference, tagged with the buffer's PID,
// against the oracle generator's per-reference Next() stream.
func drainAndCompare(t *testing.T, replay *ColumnarReader, oracle *synth.Generator, batch, total int) {
	t.Helper()
	kinds, addrs := make([]mem.RefKind, batch), make([]mem.VAddr, batch)
	seen := 0
	for {
		n, err := ReadColumns(replay, kinds, addrs)
		for i := 0; i < n; i++ {
			want, oerr := oracle.Next()
			if oerr != nil {
				t.Fatalf("oracle ended early at ref %d: %v", seen+i, oerr)
			}
			if got := (mem.Ref{PID: replay.buf.PID, Kind: kinds[i], Addr: addrs[i]}); got != want {
				t.Fatalf("ref %d: replay %+v, oracle %+v", seen+i, got, want)
			}
		}
		seen += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("replay error after %d refs: %v", seen, err)
		}
	}
	if seen != total {
		t.Fatalf("replayed %d refs, captured buffer holds %d", seen, total)
	}
	if replay.Remaining() != 0 {
		t.Fatalf("drained reader still reports %d remaining", replay.Remaining())
	}
}
