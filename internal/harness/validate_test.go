package harness

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	base := QuickScaled()
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // substring; "" means valid
	}{
		{"quick default", func(c *Config) {}, ""},
		{"paper default", func(c *Config) { *c = DefaultScaled() }, ""},
		{"full scale", func(c *Config) { *c = FullScale() }, ""},
		{"zero ref scale", func(c *Config) { c.RefScale = 0 }, "scales must be positive"},
		{"negative size scale", func(c *Config) { c.SizeScale = -1 }, "scales must be positive"},
		{"nan scale", func(c *Config) { c.RefScale = math.NaN() }, "scales must be finite"},
		{"inf scale", func(c *Config) { c.SizeScale = math.Inf(1) }, "scales must be finite"},
		{"zero L2", func(c *Config) { c.L2Bytes = 0 }, "not a positive power of two"},
		{"non-pow2 L2", func(c *Config) { c.L2Bytes = 3 << 10 }, "not a positive power of two"},
		{"non-pow2 DRAM", func(c *Config) { c.DRAMBytes = 100 << 20 }, "not a power of two"},
		{"zero DRAM ok", func(c *Config) { c.DRAMBytes = 0 }, ""},
		{"zero quantum", func(c *Config) { c.Quantum = 0 }, "zero scheduling quantum"},
		{"negative processes", func(c *Config) { c.Processes = -2 }, "negative process count"},
		{"negative workers", func(c *Config) { c.Workers = -1 }, "negative sweep worker count"},
		{"unknown profile", func(c *Config) { c.ProfileName = "doom" }, "unknown profile"},
		{"known profile", func(c *Config) { c.ProfileName = "compress" }, ""},
		{"phased workload", func(c *Config) { c.ProfileName = "phased" }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := cfg.Validate()
			checkValidation(t, err, tc.wantErr)
		})
	}
}

// TestValidateDefaultWorkloadAllocatesNothing pins that Validate,
// which the service runs on every request (memory hits included),
// builds no profile set for the default workload.
func TestValidateDefaultWorkloadAllocatesNothing(t *testing.T) {
	cfg := DefaultScaled()
	if n := testing.AllocsPerRun(100, func() { cfg.Validate() }); n != 0 {
		t.Errorf("Validate allocates %v times per call on the default workload", n)
	}
}

func TestRunSpecValidate(t *testing.T) {
	base := RunSpec{System: RAMpage, IssueMHz: 800, SizeBytes: 4096}
	cases := []struct {
		name    string
		mutate  func(*RunSpec)
		wantErr string
	}{
		{"valid rampage", func(s *RunSpec) {}, ""},
		{"valid baseline", func(s *RunSpec) { s.System = BaselineDM; s.SizeBytes = 128 }, ""},
		{"unknown system", func(s *RunSpec) { s.System = SystemKind(99) }, "unknown system kind"},
		{"zero issue rate", func(s *RunSpec) { s.IssueMHz = 0 }, "bad issue rate"},
		{"zero size", func(s *RunSpec) { s.SizeBytes = 0 }, "not a positive power of two"},
		{"non-pow2 size", func(s *RunSpec) { s.SizeBytes = 3000 }, "not a positive power of two"},
		{"negative victim", func(s *RunSpec) { s.VictimEntries = -1 }, "negative victim-cache entries"},
		{"negative TLB entries", func(s *RunSpec) { s.TLBEntries = -4 }, "negative TLB geometry"},
		{"negative TLB assoc", func(s *RunSpec) { s.TLBAssoc = -1 }, "negative TLB geometry"},
		{"non-pow2 L1", func(s *RunSpec) { s.L1Bytes = 3 << 10 }, "not a power of two"},
		{"zero L1 ok", func(s *RunSpec) { s.L1Bytes = 0 }, ""},
		{"negative L1 assoc", func(s *RunSpec) { s.L1Assoc = -2 }, "negative L1 associativity"},
		{"negative channels", func(s *RunSpec) { s.DRAMChannels = -1 }, "negative DRAM channel count"},
		{"two DRAM models", func(s *RunSpec) { s.SDRAM = true; s.BankedDRAM = true }, "pick one DRAM model"},
		{"adaptive on baseline", func(s *RunSpec) { s.System = BaselineDM; s.AdaptivePages = true }, "adaptive pages require a RAMpage system"},
		{"adaptive on rampage-cs", func(s *RunSpec) { s.System = RAMpageCS; s.AdaptivePages = true }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.mutate(&spec)
			err := spec.Validate()
			checkValidation(t, err, tc.wantErr)
		})
	}
}

// TestRunRejectsInvalid pins that validation actually gates execution:
// a malformed config or spec fails fast with the descriptive error, not
// with a panic from the machine layers.
func TestRunRejectsInvalid(t *testing.T) {
	cfg := QuickScaled()
	cfg.Quantum = 0
	if _, err := Run(context.Background(), cfg, RunSpec{System: RAMpage, IssueMHz: 800, SizeBytes: 4096}); err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Errorf("Run with zero quantum: err = %v, want quantum error", err)
	}
	if _, err := Run(context.Background(), QuickScaled(), RunSpec{System: RAMpage, IssueMHz: 800, SizeBytes: 3000}); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Errorf("Run with bad size: err = %v, want size error", err)
	}
}

func checkValidation(t *testing.T, err error, want string) {
	t.Helper()
	if want == "" {
		if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
		return
	}
	if err == nil {
		t.Errorf("no error, want one containing %q", want)
	} else if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}
