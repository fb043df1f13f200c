package harness

import "testing"

func validSpec() RunSpec {
	return RunSpec{System: RAMpage, IssueMHz: 800, SizeBytes: 4096}
}

func TestRunKeyStableAndHex(t *testing.T) {
	cfg := QuickScaled()
	k1 := RunKey(cfg, validSpec())
	k2 := RunKey(cfg, validSpec())
	if k1 != k2 {
		t.Errorf("identical requests hash differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a hex SHA-256", k1)
	}
}

func TestRunKeyCoversResultAffectingFields(t *testing.T) {
	cfg := QuickScaled()
	base := RunKey(cfg, validSpec())
	mutations := map[string]func(*Config, *RunSpec){
		"seed":       func(c *Config, s *RunSpec) { c.Seed++ },
		"ref scale":  func(c *Config, s *RunSpec) { c.RefScale *= 2 },
		"size scale": func(c *Config, s *RunSpec) { c.SizeScale *= 2 },
		"l2 bytes":   func(c *Config, s *RunSpec) { c.L2Bytes *= 2 },
		"dram bytes": func(c *Config, s *RunSpec) { c.DRAMBytes *= 2 },
		"quantum":    func(c *Config, s *RunSpec) { c.Quantum *= 2 },
		"processes":  func(c *Config, s *RunSpec) { c.Processes = 4 },
		"profile":    func(c *Config, s *RunSpec) { c.ProfileName = "compress" },
		"max refs":   func(c *Config, s *RunSpec) { c.MaxRefs = 1000 },
		"system":     func(c *Config, s *RunSpec) { s.System = RAMpageCS },
		"issue rate": func(c *Config, s *RunSpec) { s.IssueMHz = 400 },
		"size bytes": func(c *Config, s *RunSpec) { s.SizeBytes = 2048 },
		"switch":     func(c *Config, s *RunSpec) { s.SwitchTrace = true },
		"sdram":      func(c *Config, s *RunSpec) { s.SDRAM = true },
		"adaptive":   func(c *Config, s *RunSpec) { s.AdaptivePages = true },
	}
	for name, mutate := range mutations {
		c, s := cfg, validSpec()
		mutate(&c, &s)
		if RunKey(c, s) == base {
			t.Errorf("changing %s did not change the cache key", name)
		}
	}
}

// TestRunKeyIgnoresExecutionKnobs pins the cache-safety contract: the
// knobs the equivalence tests prove have no effect on reports must not
// split the cache, so a cached result can answer requests that differ
// only in how they would have executed.
func TestRunKeyIgnoresExecutionKnobs(t *testing.T) {
	cfg := QuickScaled()
	base := RunKey(cfg, validSpec())
	for name, mutate := range map[string]func(*Config){
		"workers": func(c *Config) { c.Workers = 7 },
		"verify":  func(c *Config) { c.Verify = true },
	} {
		c := cfg
		mutate(&c)
		if RunKey(c, validSpec()) != base {
			t.Errorf("execution knob %s changed the cache key", name)
		}
	}
}

func TestRunAndExperimentKeysDisjoint(t *testing.T) {
	cfg := QuickScaled()
	if RunKey(cfg, validSpec()) == ExperimentKey(cfg, "table3", nil, nil) {
		t.Error("run and experiment keys collide")
	}
	if ExperimentKey(cfg, "table3", nil, nil) == ExperimentKey(cfg, "table4", nil, nil) {
		t.Error("different experiments share a key")
	}
}

// TestExperimentKeyNormalizesGrid pins that a request eliding the paper
// defaults and one spelling them out are the same cache entry.
func TestExperimentKeyNormalizesGrid(t *testing.T) {
	cfg := QuickScaled()
	elided := ExperimentKey(cfg, "table3", nil, nil)
	spelled := ExperimentKey(cfg, "table3", IssueRatesMHz, BlockSizes)
	if elided != spelled {
		t.Error("defaulted and explicit paper grids hash differently")
	}
	custom := ExperimentKey(cfg, "table3", []uint64{800}, []uint64{4096})
	if custom == elided {
		t.Error("custom grid shares the default grid's key")
	}
	// The figure experiments pin their issue rate; a caller-specified
	// rate list is overridden, so it must not split the cache either.
	f1 := ExperimentKey(cfg, "fig2", nil, nil)
	f2 := ExperimentKey(cfg, "fig2", []uint64{123}, nil)
	if f1 != f2 {
		t.Error("fig2 rates are fixed, but the key depends on the request's rates")
	}
}
