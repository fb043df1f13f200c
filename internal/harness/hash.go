package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Canonical request hashing for the experiment service's
// content-addressed result cache. Two requests share a key exactly when
// the harness guarantees them bit-identical result documents: the key
// covers every result-affecting field and deliberately excludes the
// execution knobs (Workers, Observer, Verify) that the equivalence
// tests pin as having no effect on reports.

// canonicalConfig is the result-affecting projection of a Config, in a
// fixed field order so its JSON encoding is byte-stable.
type canonicalConfig struct {
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

func canonicalOf(cfg Config) canonicalConfig {
	return canonicalConfig{
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

// keyDoc is the hashed request shape. Version salts the key with the
// report schema version so a schema bump can never serve a stale
// cached document.
type keyDoc struct {
	Version int             `json:"v"`
	Kind    string          `json:"kind"`
	Config  canonicalConfig `json:"config"`
	Spec    *RunSpec        `json:"spec,omitempty"`
	ID      string          `json:"id,omitempty"`
	Rates   []uint64        `json:"rates,omitempty"`
	Sizes   []uint64        `json:"sizes,omitempty"`
}

func hashKey(doc keyDoc) string {
	// Struct fields marshal in declaration order and the doc contains
	// no maps, so the encoding — and therefore the hash — is canonical.
	b, err := json.Marshal(doc)
	if err != nil {
		// Only unsupported types can fail here, and keyDoc has none.
		panic("harness: cache key encoding failed: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// RunKey returns the content-address of one single-run request's
// document: the hex SHA-256 of the canonical (config, spec) encoding.
func RunKey(cfg Config, spec RunSpec) string { return specKey("run", cfg, spec) }

// CellKey returns the content-address of one cell's bare ReportJSON
// bytes, which fleet workers return and the results store keeps. It
// hashes the same fields as RunKey under a kind of its own, so a cell's
// report and a run job's document never share an address.
func CellKey(cfg Config, spec RunSpec) string { return specKey("cell", cfg, spec) }

func specKey(kind string, cfg Config, spec RunSpec) string {
	spec = spec.Normalized()
	return hashKey(keyDoc{Version: ReportVersion, Kind: kind, Config: canonicalOf(cfg), Spec: &spec})
}

// ExperimentKey returns the content-address of one experiment-sweep
// request. The grid is normalized exactly as ShapeOf normalizes it
// (paper defaults for empty slices, then the experiment's rate rule,
// which pins the rate of the figure experiments and the policy lab),
// so requests that elide the defaults and requests that spell them out
// share a key.
func ExperimentKey(cfg Config, id string, rates, sizes []uint64) string {
	e, _ := FindExperiment(id)
	rates, sizes = e.grid(rates, sizes)
	return hashKey(keyDoc{Version: ReportVersion, Kind: "experiment", Config: canonicalOf(cfg), ID: id, Rates: rates, Sizes: sizes})
}
