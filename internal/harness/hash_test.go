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

// TestContentAddressesPinned pins every content address byte for byte:
// results and checkpoints already stored stay addressable only if a
// change to the key encoding leaves these hexes as they are. Each row
// is RunKey, CellKey, ExperimentKey("table3") and CheckpointPrefixKey
// for one spec under one configuration. The checkpoint prefix is
// salted with checkpoint.FormatVersion, so its hexes change, by
// design, with every format bump (last: version 2).
func TestContentAddressesPinned(t *testing.T) {
	spec := validSpec()
	program := QuickScaled()
	program.ProfileName = "compress"
	budget := QuickScaled()
	budget.Processes, budget.MaxRefs = 4, 1000
	for _, tc := range []struct {
		name                        string
		cfg                         Config
		run, cell, experiment, ckpt string
	}{
		{"quick", QuickScaled(),
			"78d2debed8ccaaf5ad9550538295df6072c0988d1629f8e7d35aab51903c4011",
			"7f695fa81c8b56515261a277dd7dc44f36ae4803f49953d540d2745df37e52cd",
			"fdf868bfc8b7b0c94cf439696263a11b0382dd046995d0c56b25b042c6cc8a61",
			"be4e294e4acfc265c15a32bea5fa36235713c1600788c5f160a132e6e4086931"},
		{"one program", program,
			"f2ec4a392455cad8b7d9f1934a39fdc3b09d637fbea1725957c6663bab6ceb3f",
			"cad721cfbc80f5442d4345b6dc532645fbfcef1f7ae68201234a457849cfa78e",
			"d8d17552d80f04acc43795127f8edd5911df9067e0310cef7f03effefc866ff4",
			"1dbcc569887864bc823e873ac22d1cb820cd86de70dde18a40470bd66957df61"},
		{"processes and budget", budget,
			"2c526145871c72349fda7dcf0c4f33df1be114df2afcb3bda72cd1885ffe4543",
			"78cb3f82fae87ae268096429f0bc8a5a5101384ccf91efcbc0548d2a70965c8d",
			"2c9a801311f3e6afed3c7c0d7d20e919fba97de92dff48c8b30f3092a1d61ca1",
			"6a5ce9f44160c99ac74443697e76608bd037aa0c0875632c5032c96e38cf5678"},
	} {
		for _, got := range []struct{ kind, key, want string }{
			{"RunKey", RunKey(tc.cfg, spec), tc.run},
			{"CellKey", CellKey(tc.cfg, spec), tc.cell},
			{"ExperimentKey", ExperimentKey(tc.cfg, "table3", nil, nil), tc.experiment},
			{"CheckpointPrefixKey", CheckpointPrefixKey(tc.cfg, spec), tc.ckpt},
		} {
			if got.key != got.want {
				t.Errorf("%s: %s = %s, want %s", tc.name, got.kind, got.key, got.want)
			}
		}
	}
}
