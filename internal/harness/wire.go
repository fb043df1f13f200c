package harness

// WireConfig is the result-affecting projection of a Config, in a
// fixed field order so its JSON encoding is byte-stable. It is the one
// identity of a configuration: hashed, it is the config part of every
// content address (RunKey, CellKey, ExperimentKey and, with MaxRefs
// zeroed, CheckpointPrefixKey); on the wire, it is how sweep cells
// travel between a fleet coordinator and its workers; and with its
// workload fields alone, it keys the workload cache. A worker
// reconstructing a Config from a WireConfig is guaranteed the same
// report bytes the coordinator would have produced locally, because
// everything excluded (execution knobs, observers, stores) is pinned
// by the equivalence tests as having no effect on results. No field
// is omitted when empty: the hashed encoding must stay byte for byte.
type WireConfig struct {
	Seed        uint64  `json:"seed"`
	RefScale    float64 `json:"ref_scale"`
	SizeScale   float64 `json:"size_scale"`
	L2Bytes     uint64  `json:"l2_bytes"`
	DRAMBytes   uint64  `json:"dram_bytes"`
	Quantum     uint64  `json:"quantum"`
	Processes   int     `json:"processes"`
	ProfileName string  `json:"profile"`
	MaxRefs     uint64  `json:"max_refs"`
}

// NewWireConfig projects a Config onto its wire form.
func NewWireConfig(cfg Config) WireConfig {
	return WireConfig{
		Seed:        cfg.Seed,
		RefScale:    cfg.RefScale,
		SizeScale:   cfg.SizeScale,
		L2Bytes:     cfg.L2Bytes,
		DRAMBytes:   cfg.DRAMBytes,
		Quantum:     cfg.Quantum,
		Processes:   cfg.Processes,
		ProfileName: cfg.ProfileName,
		MaxRefs:     cfg.MaxRefs,
	}
}

// Config reconstructs the harness configuration: the canonical fields
// verbatim, every execution knob zero. Callers attach their own local
// checkpoint store and parallelism before running.
func (w WireConfig) Config() Config {
	return Config{
		Seed:        w.Seed,
		RefScale:    w.RefScale,
		SizeScale:   w.SizeScale,
		L2Bytes:     w.L2Bytes,
		DRAMBytes:   w.DRAMBytes,
		Quantum:     w.Quantum,
		Processes:   w.Processes,
		ProfileName: w.ProfileName,
		MaxRefs:     w.MaxRefs,
	}
}
