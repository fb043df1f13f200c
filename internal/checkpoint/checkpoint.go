package checkpoint

import "fmt"

// Component sentinel markers. Each serialized component opens with its
// marker so a stream that drifts out of alignment fails at the next
// boundary with a precise error. Values are arbitrary but fixed.
const (
	MarkCache     uint32 = 0xC0DE0001
	MarkVictim    uint32 = 0xC0DE0002
	MarkTLB       uint32 = 0xC0DE0003
	MarkPageTable uint32 = 0xC0DE0004
	MarkCore      uint32 = 0xC0DE0005
	MarkDRAM      uint32 = 0xC0DE0006
	MarkReport    uint32 = 0xC0DE0007
	MarkBaseline  uint32 = 0xC0DE0008
	MarkRAMpage   uint32 = 0xC0DE0009
	MarkAdaptive  uint32 = 0xC0DE000A
	MarkScheduler uint32 = 0xC0DE000B
	MarkEnd       uint32 = 0xC0DE00FF
)

// Meta identifies a checkpoint within the content-addressed store.
type Meta struct {
	// Prefix is the warm-up prefix hash: the canonical hash of every
	// configuration field that shapes machine state up to the capture
	// point (config sans reference budget, the run spec, and the
	// workload identity), salted with FormatVersion.
	Prefix string
	// Refs is the cumulative number of application references executed
	// at the capture point.
	Refs uint64
	// Final is true when the run drained its workload to end-of-stream
	// (rather than stopping at a reference budget). A final checkpoint
	// is a complete answer for any larger budget; a non-final one can
	// be resumed toward any budget at or beyond Refs.
	Final bool
}

// Checkpoint is one captured machine+scheduler state.
type Checkpoint struct {
	Meta Meta
	// System is the machine's report name, recorded for diagnostics and
	// cross-checked on restore.
	System string
	// Payload is the component-encoded state (see internal/sim).
	Payload []byte
}

// Encode serializes the checkpoint with its versioned header.
func (c *Checkpoint) Encode() []byte {
	e := NewEnc()
	e.U32(magic)
	e.U32(FormatVersion)
	e.String(c.Meta.Prefix)
	e.U64(c.Meta.Refs)
	e.Bool(c.Meta.Final)
	e.String(c.System)
	e.U32(uint32(len(c.Payload)))
	e.buf = append(e.buf, c.Payload...)
	e.Marker(MarkEnd)
	return e.Bytes()
}

// Decode parses an encoded checkpoint, rejecting truncated or corrupt
// input without panicking. Unknown format versions are refused —
// old checkpoints are invalidated, never misread. The payload is a
// sub-slice of b, not a copy: a restore only reads it, and the store
// never mutates the records it hands out.
func Decode(b []byte) (*Checkpoint, error) {
	d := NewDec(b)
	if m := d.U32(); d.Err() == nil && m != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %#x", m)
	}
	if v := d.U32(); d.Err() == nil && v != FormatVersion {
		return nil, fmt.Errorf("checkpoint: format version %d, want %d", v, FormatVersion)
	}
	c := &Checkpoint{}
	c.Meta.Prefix = d.String()
	c.Meta.Refs = d.U64()
	c.Meta.Final = d.Bool()
	c.System = d.String()
	n := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() < n {
		return nil, fmt.Errorf("checkpoint: truncated payload: need %d bytes, have %d", n, d.Remaining())
	}
	c.Payload = d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	d.Marker(MarkEnd)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", d.Remaining())
	}
	return c, nil
}
