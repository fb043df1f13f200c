package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rampage/internal/harness"
	"rampage/internal/sim"
	"rampage/internal/trace"
)

// System and scale parsing moved into internal/harness (shared with
// rampage-bench and rampage-server); the exhaustive tables live there.
// This smoke test pins that the CLI still reaches them.

func TestSharedParsersReachable(t *testing.T) {
	if kind, err := harness.ParseSystemKind("rampage-cs"); err != nil || kind != harness.RAMpageCS {
		t.Errorf("ParseSystemKind(rampage-cs) = (%v, %v)", kind, err)
	}
	if _, err := harness.ConfigForScale("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

// TestReplayBuildsTheHarnessMachine replays an interleaved trace with
// -system 2way and requires the report sim.Replay gives over the
// machine harness.NewMachine builds for the same configuration and
// spec: the paper's random-replacement 2-way L2 (§4.7), at the
// requested scale's capacity. The default scale's L2 has the capacity
// a hand-built replay machine used to have, so there only the
// replacement policy can tell them apart.
func TestReplayBuildsTheHarnessMachine(t *testing.T) {
	for _, scale := range []string{"quick", "default"} {
		cfg, err := harness.ConfigForScale(scale)
		if err != nil {
			t.Fatal(err)
		}
		cfg.RefScale = 1.0 / 1000 // the whole quick-scale workload, ~1.1 M refs
		readers, err := cfg.Readers()
		if err != nil {
			t.Fatal(err)
		}
		il, err := trace.NewInterleaver(readers, cfg.Quantum)
		if err != nil {
			t.Fatal(err)
		}
		refs, err := trace.Drain(il)
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		fw, err := trace.NewFileWriter(&file)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Copy(fw, trace.NewSliceReader(refs)); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "mix.rmpt")
		if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}

		spec := harness.RunSpec{System: harness.TwoWayL2, IssueMHz: 1000, SizeBytes: 128}
		var got bytes.Buffer
		if err := replayFile(&got, path, cfg, spec, "text", 0); err != nil {
			t.Fatal(err)
		}
		m, err := harness.NewMachine(cfg, spec, len(readers))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Replay(m, trace.NewSliceReader(refs)); err != nil {
			t.Fatal(err)
		}
		if want := m.Report().String(); got.String() != want {
			t.Errorf("%s: replayed report differs from the harness machine's:\n got: %s\nwant: %s", scale, got.String(), want)
		}
	}
}
