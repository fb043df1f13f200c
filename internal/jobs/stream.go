package jobs

import (
	"encoding/json"
	"sync"
)

// Event is one entry in a job's live event stream. Sequence numbers
// start at 1 and are dense, so a client that saw sequence n can resume
// from n and miss nothing. Cell events carry the serialized cell
// payload the job's Do closure handed to progress (for sweep jobs, a
// cell document tagged with its canonical grid index); the terminal
// event's Type mirrors the job's final state.
type Event struct {
	Seq   uint64          `json:"seq"`
	Type  string          `json:"type"` // "cell", "done", "failed" or "canceled"
	Cell  json.RawMessage `json:"cell,omitempty"`
	Error string          `json:"error,omitempty"`
}

// Terminal reports whether the event ends the stream.
func (e Event) Terminal() bool {
	return e.Type == string(StateDone) || e.Type == string(StateFailed) || e.Type == string(StateCanceled)
}

// EventStream is a job's broadcast channel: the full event history
// plus the set of live subscribers. History is bounded by construction
// — a job publishes at most Cells cell events plus one terminal event
// — so retaining it costs little and makes resume-from-sequence
// trivial: Subscribe replays history beyond the cursor and registers
// for the live tail under one lock, so a subscriber sees every event
// exactly once, in order, with no gap between replay and tail.
type EventStream struct {
	mu     sync.Mutex
	events []Event // events[i].Seq == uint64(i+1)
	closed bool    // terminal event published; no more will follow
	subs   map[chan Event]struct{}
}

func newEventStream() *EventStream {
	return &EventStream{subs: make(map[chan Event]struct{})}
}

// publish appends an event (assigning its sequence number) and fans it
// out. A subscriber whose buffer is full is dropped — its channel is
// closed without a terminal event, which tells the reader to resume
// from its last seen sequence rather than stalling the publisher.
func (s *EventStream) publish(typ string, cell json.RawMessage, errText string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	e := Event{Seq: uint64(len(s.events) + 1), Type: typ, Cell: cell, Error: errText}
	s.events = append(s.events, e)
	terminal := e.Terminal()
	if terminal {
		s.closed = true
	}
	for ch := range s.subs {
		select {
		case ch <- e:
		default: // slow subscriber: drop it, it can resume by sequence
			delete(s.subs, ch)
			close(ch)
			continue
		}
		if terminal {
			delete(s.subs, ch)
			close(ch)
		}
	}
}

// Subscribe returns the event history beyond the from cursor (0 =
// everything) and, unless the stream has already ended, a live channel
// for the tail plus a cancel function that must be called when the
// reader stops. The channel is closed after the terminal event is
// delivered, or earlier if the reader falls more than buf events
// behind (resume with from = last seen sequence).
func (s *EventStream) Subscribe(from uint64, buf int) (replay []Event, tail <-chan Event, cancel func()) {
	if buf < 1 {
		buf = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < uint64(len(s.events)) {
		replay = append(replay, s.events[from:]...)
	}
	if s.closed {
		return replay, nil, func() {}
	}
	ch := make(chan Event, buf)
	s.subs[ch] = struct{}{}
	return replay, ch, func() {
		s.mu.Lock()
		if _, ok := s.subs[ch]; ok {
			delete(s.subs, ch)
			close(ch)
		}
		s.mu.Unlock()
	}
}

// Len returns the number of published events (the latest sequence
// number).
func (s *EventStream) Len() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(len(s.events))
}

// Events returns the job's event stream. A job answered straight from
// the result cache fills its stream on first use: the cell payloads
// its request's Replay derives from the cached document, then the
// terminal done event (carrying the error when the document could not
// be replayed).
func (j *Job) Events() *EventStream {
	if j.cached {
		j.replayOnce.Do(j.publishCached)
	}
	return j.events
}

// publishCached replays a cache-hit job's cell events.
func (j *Job) publishCached() {
	var errText string
	if j.replay != nil {
		cells, err := j.replay(j.data)
		for _, cell := range cells {
			if cell != nil {
				j.events.publish("cell", cell, "")
			}
		}
		if err != nil {
			errText = "replaying cached document: " + err.Error()
		}
	}
	j.events.publish(string(StateDone), nil, errText)
}
