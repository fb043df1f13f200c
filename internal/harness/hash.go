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

// keyDoc is the hashed request shape. Version salts the key with the
// report schema version so a schema bump can never serve a stale
// cached document.
type keyDoc struct {
	Version int        `json:"v"`
	Kind    string     `json:"kind"`
	Config  WireConfig `json:"config"`
	Spec    *RunSpec   `json:"spec,omitempty"`
	ID      string     `json:"id,omitempty"`
	Rates   []uint64   `json:"rates,omitempty"`
	Sizes   []uint64   `json:"sizes,omitempty"`
}

// hashKey returns the hex SHA-256 of a key document's JSON encoding:
// a keyDoc, or a ckptPrefixDoc for checkpoint prefixes.
func hashKey(doc any) string {
	// Struct fields marshal in declaration order and the docs contain
	// no maps, so the encoding — and therefore the hash — is canonical.
	b, err := json.Marshal(doc)
	if err != nil {
		// Only unsupported types can fail here, and the docs have none.
		panic("harness: key encoding failed: " + err.Error())
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
	return hashKey(keyDoc{Version: ReportVersion, Kind: kind, Config: NewWireConfig(cfg), Spec: &spec})
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
	return hashKey(keyDoc{Version: ReportVersion, Kind: "experiment", Config: NewWireConfig(cfg), ID: id, Rates: rates, Sizes: sizes})
}
