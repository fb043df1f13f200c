package trace

import (
	"fmt"
	"io"

	"rampage/internal/mem"
)

// Interleaver merges per-process streams round-robin with a fixed
// reference quantum, reproducing the multiprogramming workload of
// §4.2: "the traces were interleaved, switching to a different trace
// every 500,000 references". Every reference is tagged with its
// stream's index as the PID. A stream that runs dry drops out of the
// rotation; the interleaver is exhausted when every stream is.
//
// The interleaver reports quantum boundaries through SwitchCount so
// callers (the simulator's scheduler and the context-switch trace
// inserter) can charge context-switch costs.
type Interleaver struct {
	streams  []Reader
	live     []bool
	liveN    int
	quantum  uint64
	cur      int
	inSlice  uint64
	switches uint64
}

// DefaultQuantum is the paper's time slice: 500,000 references.
const DefaultQuantum = 500_000

// NewInterleaver builds an interleaver over streams with the given
// quantum (references per time slice). Stream i's references carry
// PID i.
func NewInterleaver(streams []Reader, quantum uint64) (*Interleaver, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("trace: interleaver needs at least one stream")
	}
	if quantum == 0 {
		return nil, fmt.Errorf("trace: interleaver quantum must be positive")
	}
	live := make([]bool, len(streams))
	for i := range live {
		live[i] = true
	}
	return &Interleaver{
		streams: streams,
		live:    live,
		liveN:   len(streams),
		quantum: quantum,
	}, nil
}

// Next implements Reader. At each quantum boundary it rotates to the
// next live stream.
func (il *Interleaver) Next() (mem.Ref, error) {
	for il.liveN > 0 {
		if il.inSlice == il.quantum {
			il.rotate()
		}
		if !il.live[il.cur] {
			il.rotate()
			continue
		}
		ref, err := il.streams[il.cur].Next()
		if err == io.EOF {
			il.live[il.cur] = false
			il.liveN--
			continue
		}
		if err != nil {
			return mem.Ref{}, err
		}
		il.inSlice++
		ref.PID = mem.PID(il.cur)
		return ref, nil
	}
	return mem.Ref{}, io.EOF
}

// rotate advances to the next live stream and counts the switch.
func (il *Interleaver) rotate() {
	il.inSlice = 0
	il.switches++
	for i := 1; i <= len(il.streams); i++ {
		next := (il.cur + i) % len(il.streams)
		if il.live[next] {
			il.cur = next
			return
		}
	}
}

// SwitchCount returns the number of quantum-boundary rotations that
// have occurred so far.
func (il *Interleaver) SwitchCount() uint64 { return il.switches }

// CurrentPID returns the PID of the stream the interleaver is currently
// draining.
func (il *Interleaver) CurrentPID() mem.PID { return mem.PID(il.cur) }
