package harness

import (
	"math"
	"testing"
)

// FuzzConfigHash guards the service's content-addressed result cache:
// a stale cache hit silently serves wrong results, so the canonical key
// must be (a) stable for identical requests and (b) different whenever
// any result-affecting field differs. The fuzzer drives the
// result-affecting surface of Config and RunSpec; for every generated
// request it asserts stability, that each single-field mutation moves
// the key, and that the execution knobs never do.
func FuzzConfigHash(f *testing.F) {
	f.Add(uint64(42), 1.0/48, 1.0/8, uint64(512<<10), uint64(64<<20),
		uint64(62_500), 0, "", uint64(0), uint8(0), uint64(800), uint64(4096), false)
	f.Add(uint64(7), 1.0, 1.0, uint64(4<<20), uint64(256<<20),
		uint64(500_000), 3, "compress", uint64(1_000_000), uint8(3), uint64(4000), uint64(128), true)
	f.Add(uint64(0), 0.001, 0.25, uint64(1<<10), uint64(0),
		uint64(1), 18, "gcc", uint64(1), uint8(2), uint64(200), uint64(512), false)
	f.Fuzz(func(t *testing.T, seed uint64, refScale, sizeScale float64,
		l2, dram, quantum uint64, processes int, profile string,
		maxRefs uint64, system uint8, mhz, size uint64, switchTrace bool) {
		// Keys are only computed for validated configs; non-finite scales
		// never reach the hasher (Config.Validate rejects them), and JSON
		// cannot encode them.
		if math.IsNaN(refScale) || math.IsInf(refScale, 0) ||
			math.IsNaN(sizeScale) || math.IsInf(sizeScale, 0) {
			t.Skip("non-finite scales are rejected before hashing")
		}
		cfg := Config{
			Seed:        seed,
			RefScale:    refScale,
			SizeScale:   sizeScale,
			L2Bytes:     l2,
			DRAMBytes:   dram,
			Quantum:     quantum,
			Processes:   processes,
			ProfileName: profile,
			MaxRefs:     maxRefs,
		}
		spec := RunSpec{
			System:      SystemKind(system % 4),
			IssueMHz:    mhz,
			SizeBytes:   size,
			SwitchTrace: switchTrace,
		}
		key := RunKey(cfg, spec)
		if key != RunKey(cfg, spec) {
			t.Fatalf("hash not stable for identical request: %s vs %s", key, RunKey(cfg, spec))
		}
		if len(key) != 64 {
			t.Fatalf("key %q is not a hex SHA-256", key)
		}

		// Execution knobs must not split the cache.
		knobs := cfg
		knobs.Workers = 7
		knobs.Verify = true
		if RunKey(knobs, spec) != key {
			t.Error("execution knobs changed the cache key")
		}

		// Every result-affecting field mutation must move the key. A
		// mutation that happens to produce the same value (float
		// saturation) proves nothing and is skipped.
		type mutated struct {
			name string
			cfg  Config
			spec RunSpec
		}
		var cases []mutated
		add := func(name string, mc Config, ms RunSpec) {
			cases = append(cases, mutated{name, mc, ms})
		}
		{
			c := cfg
			c.Seed++
			add("seed", c, spec)
		}
		if c := cfg; c.RefScale*2 != c.RefScale {
			c.RefScale *= 2
			add("ref scale", c, spec)
		}
		if c := cfg; c.SizeScale*2 != c.SizeScale {
			c.SizeScale *= 2
			add("size scale", c, spec)
		}
		{
			c := cfg
			c.L2Bytes++
			add("l2 bytes", c, spec)
		}
		{
			c := cfg
			c.DRAMBytes++
			add("dram bytes", c, spec)
		}
		{
			c := cfg
			c.Quantum++
			add("quantum", c, spec)
		}
		{
			c := cfg
			c.Processes++
			add("processes", c, spec)
		}
		{
			c := cfg
			c.ProfileName += "x"
			add("profile", c, spec)
		}
		{
			c := cfg
			c.MaxRefs++
			add("max refs", c, spec)
		}
		{
			s := spec
			s.System = SystemKind((system + 1) % 4)
			add("system", cfg, s)
		}
		{
			s := spec
			s.IssueMHz++
			add("issue rate", cfg, s)
		}
		{
			s := spec
			s.SizeBytes++
			add("size bytes", cfg, s)
		}
		{
			s := spec
			s.SwitchTrace = !s.SwitchTrace
			add("switch trace", cfg, s)
		}
		{
			s := spec
			s.VictimEntries++
			add("victim entries", cfg, s)
		}
		{
			s := spec
			s.PipelinedDRAM = !s.PipelinedDRAM
			add("pipelined dram", cfg, s)
		}
		{
			s := spec
			s.SDRAM = !s.SDRAM
			add("sdram", cfg, s)
		}
		{
			s := spec
			s.AdaptivePages = !s.AdaptivePages
			add("adaptive pages", cfg, s)
		}
		for _, m := range cases {
			if RunKey(m.cfg, m.spec) == key {
				t.Errorf("changing %s did not change the cache key", m.name)
			}
		}
	})
}
