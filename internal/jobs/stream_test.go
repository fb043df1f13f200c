package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
)

// TestEventStreamReplayAndTail checks the core subscribe contract:
// history beyond the cursor is replayed, the live tail follows in
// order, and the channel closes after the terminal event.
func TestEventStreamReplayAndTail(t *testing.T) {
	s := newEventStream()
	s.publish("cell", json.RawMessage(`{"index":0}`), "")
	s.publish("cell", json.RawMessage(`{"index":1}`), "")

	replay, tail, cancel := s.Subscribe(0, 8)
	defer cancel()
	if len(replay) != 2 || replay[0].Seq != 1 || replay[1].Seq != 2 {
		t.Fatalf("replay = %+v, want seqs 1,2", replay)
	}
	s.publish("cell", json.RawMessage(`{"index":2}`), "")
	s.publish(string(StateDone), nil, "")

	e := <-tail
	if e.Seq != 3 || e.Type != "cell" {
		t.Fatalf("tail event = %+v, want cell seq 3", e)
	}
	e = <-tail
	if e.Seq != 4 || !e.Terminal() {
		t.Fatalf("tail event = %+v, want terminal seq 4", e)
	}
	if _, ok := <-tail; ok {
		t.Fatal("channel still open after the terminal event")
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
}

// TestEventStreamResume checks a cursor skips already-seen history and
// that subscribing to an ended stream returns no live tail.
func TestEventStreamResume(t *testing.T) {
	s := newEventStream()
	for i := 0; i < 3; i++ {
		s.publish("cell", json.RawMessage(fmt.Sprintf(`{"index":%d}`, i)), "")
	}
	s.publish(string(StateDone), nil, "")

	replay, tail, cancel := s.Subscribe(2, 8)
	defer cancel()
	if tail != nil {
		t.Fatal("ended stream returned a live tail")
	}
	if len(replay) != 2 || replay[0].Seq != 3 || !replay[1].Terminal() {
		t.Fatalf("resumed replay = %+v, want seqs 3,4 ending terminal", replay)
	}
	// Publishing after the terminal event is a no-op.
	s.publish("cell", nil, "")
	if s.Len() != 4 {
		t.Fatalf("Len after post-terminal publish = %d, want 4", s.Len())
	}
}

// TestEventStreamSlowSubscriberDropped checks the backpressure rule: a
// subscriber that falls more than its buffer behind is dropped (its
// channel closes without a terminal event) and can resume by sequence
// without missing anything.
func TestEventStreamSlowSubscriberDropped(t *testing.T) {
	s := newEventStream()
	_, tail, cancel := s.Subscribe(0, 1)
	defer cancel()

	s.publish("cell", json.RawMessage(`{"index":0}`), "") // fills the buffer
	s.publish("cell", json.RawMessage(`{"index":1}`), "") // overflows: subscriber dropped

	e, ok := <-tail
	if !ok || e.Seq != 1 {
		t.Fatalf("first receive = (%+v, %v), want seq 1", e, ok)
	}
	if _, ok := <-tail; ok {
		t.Fatal("dropped subscriber's channel still open")
	}

	// Resume from the last seen sequence: nothing is missed.
	replay, _, cancel2 := s.Subscribe(e.Seq, 8)
	defer cancel2()
	if len(replay) != 1 || replay[0].Seq != 2 {
		t.Fatalf("resumed replay = %+v, want seq 2", replay)
	}
}

// TestJobPublishesCellsAndTerminal runs a job through the manager and
// checks its stream carries the cell payloads in order plus the done
// terminal event, while count-only progress (nil payload) bumps the
// counter without an event.
func TestJobPublishesCellsAndTerminal(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	defer m.Drain(waitCtx(t))

	j, err := m.Submit(Request{Key: "stream-job", Cells: 3,
		Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
			progress([]byte(`{"index":0}`))
			progress(nil) // count-only
			progress([]byte(`{"index":2}`))
			return []byte("doc"), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(waitCtx(t), j); err != nil {
		t.Fatal(err)
	}
	replay, _, cancel := j.Events().Subscribe(0, 8)
	defer cancel()
	if len(replay) != 3 {
		t.Fatalf("events = %+v, want 2 cells + terminal", replay)
	}
	if replay[0].Type != "cell" || string(replay[0].Cell) != `{"index":0}` {
		t.Errorf("event 1 = %+v", replay[0])
	}
	if replay[1].Type != "cell" || string(replay[1].Cell) != `{"index":2}` {
		t.Errorf("event 2 = %+v", replay[1])
	}
	if replay[2].Type != string(StateDone) {
		t.Errorf("terminal event = %+v", replay[2])
	}
	if st := j.Status(); st.CellsDone != 3 {
		t.Errorf("cells done = %d, want 3 (nil progress still counts)", st.CellsDone)
	}
}

// TestJobFailurePublishesError checks the terminal event of a failed
// job carries the error text.
func TestJobFailurePublishesError(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	defer m.Drain(waitCtx(t))

	j, err := m.Submit(Request{Key: "fail-job", Cells: 1,
		Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
			return nil, fmt.Errorf("boom")
		}})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	replay, _, cancel := j.Events().Subscribe(0, 4)
	defer cancel()
	if len(replay) != 1 || replay[0].Type != string(StateFailed) || replay[0].Error != "boom" {
		t.Fatalf("failed job events = %+v, want one failed event carrying the error", replay)
	}
}

// TestCachedJobReplaysEvents checks a job answered from the result
// cache: its request's Replay derives the cell events from the cached
// document (nil payloads skipped, as with progress), the terminal done
// event follows, and concurrent first subscribers all see the one
// replayed stream. A document the encoder rejects still ends the
// stream, with the error on the terminal event.
func TestCachedJobReplaysEvents(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	defer m.Drain(waitCtx(t))
	replay := func(doc []byte) ([][]byte, error) {
		if string(doc) != "doc" {
			return nil, fmt.Errorf("unreadable document %q", doc)
		}
		return [][]byte{[]byte(`{"index":0}`), nil, []byte(`{"index":2}`)}, nil
	}
	req := Request{Key: "cached-job", Cells: 3, Replay: replay,
		Do: func(ctx context.Context, progress func(cell []byte)) ([]byte, error) {
			return []byte("doc"), nil
		}}
	live, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(waitCtx(t), live); err != nil {
		t.Fatal(err)
	}
	hit, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if hit == live || hit.Status().State != StateDone {
		t.Fatalf("second submission is not a cache hit: %+v", hit.Status())
	}

	const readers = 8
	got := make([][]Event, readers)
	done := make(chan int)
	for i := 0; i < readers; i++ {
		go func(i int) {
			replay, _, cancel := hit.Events().Subscribe(0, 8)
			cancel()
			got[i] = replay
			done <- i
		}(i)
	}
	for i := 0; i < readers; i++ {
		<-done
	}
	for i, events := range got {
		if len(events) != 3 || string(events[0].Cell) != `{"index":0}` ||
			string(events[1].Cell) != `{"index":2}` || events[2].Type != string(StateDone) {
			t.Fatalf("subscriber %d saw %+v, want 2 cells + done", i, events)
		}
	}

	m.Cache().Put("bad-doc", []byte("garbage"))
	bad, err := m.Submit(Request{Key: "bad-doc", Cells: 1, Replay: replay})
	if err != nil {
		t.Fatal(err)
	}
	events, _, cancel := bad.Events().Subscribe(0, 4)
	cancel()
	if len(events) != 1 || events[0].Type != string(StateDone) || events[0].Error == "" {
		t.Fatalf("unreplayable hit events = %+v, want one done event carrying the error", events)
	}
}
