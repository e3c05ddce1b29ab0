package stream

import (
	"runtime"
	"strings"
	"testing"

	"seprivgemb/internal/spec"
)

func epoch(n int) spec.JobEvent {
	return spec.JobEvent{Type: "epoch", Progress: &spec.ProgressInfo{Epoch: n}}
}

func collect(ch <-chan spec.JobEvent) []spec.JobEvent {
	var out []spec.JobEvent
	for ev := range ch {
		out = append(out, ev)
	}
	return out
}

// TestPublishOrderAndSeq: subscribers see events in publish order with
// Job stamped and Seq numbering from 0, and the stream closes after the
// terminal event.
func TestPublishOrderAndSeq(t *testing.T) {
	b := NewBroker()
	ch, cancel := b.Subscribe("j1")
	defer cancel()

	b.Publish("j1", epoch(0))
	b.Publish("j1", epoch(1))
	b.Publish("j1", spec.JobEvent{Type: "done", Status: "done", EmbeddingHash: "abc"})

	got := collect(ch)
	if len(got) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(got), got)
	}
	for i, ev := range got {
		if ev.Job != "j1" || ev.Seq != i {
			t.Errorf("event %d: Job=%q Seq=%d, want j1/%d", i, ev.Job, ev.Seq, i)
		}
	}
	if !got[2].Terminal() || got[2].EmbeddingHash != "abc" {
		t.Errorf("last event not the terminal: %+v", got[2])
	}
}

// TestLateSubscriber: after the terminal, a new subscriber still gets
// the last epoch event then the terminal on an already-closed channel,
// and post-terminal publishes are dropped.
func TestLateSubscriber(t *testing.T) {
	b := NewBroker()
	b.Publish("j1", epoch(0))
	b.Publish("j1", epoch(1))
	b.Publish("j1", spec.JobEvent{Type: "done", Status: "done"})
	b.Publish("j1", epoch(99)) // must be dropped: the job ended

	ch, cancel := b.Subscribe("j1")
	defer cancel()
	got := collect(ch)
	if len(got) != 2 {
		t.Fatalf("late subscriber got %d events, want 2 (last epoch + terminal): %+v", len(got), got)
	}
	if got[0].Type != "epoch" || got[0].Progress == nil || got[0].Progress.Epoch != 1 {
		t.Errorf("replayed epoch = %+v, want epoch 1", got[0])
	}
	if got[1].Type != "done" {
		t.Errorf("second event = %+v, want the terminal", got[1])
	}
	if ev, ok := b.Terminal("j1"); !ok || ev.Type != "done" {
		t.Errorf("Terminal = (%+v, %v), want the done event", ev, ok)
	}
}

// TestSlowSubscriberDropsOldest: a subscriber that never drains loses
// old epoch events, not the terminal — and Publish never blocks.
func TestSlowSubscriberDropsOldest(t *testing.T) {
	b := NewBroker()
	ch, cancel := b.Subscribe("j1")
	defer cancel()
	total := subBuffer * 3
	for i := 0; i < total; i++ {
		b.Publish("j1", epoch(i)) // must not block despite no reader
	}
	b.Publish("j1", spec.JobEvent{Type: "done"})
	got := collect(ch)
	if len(got) > subBuffer {
		t.Fatalf("slow subscriber buffered %d events, cap is %d", len(got), subBuffer)
	}
	last := got[len(got)-1]
	if !last.Terminal() {
		t.Fatalf("terminal event was dropped; stream ended with %+v", last)
	}
	// What survives must still be in order.
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("events out of order: %+v", got)
		}
	}
}

// TestCancelIdempotent: cancel closes the channel once and survives
// double calls and publish-after-cancel.
func TestCancelIdempotent(t *testing.T) {
	b := NewBroker()
	ch, cancel := b.Subscribe("j1")
	cancel()
	cancel()
	b.Publish("j1", epoch(0))
	if _, open := <-ch; open {
		t.Fatal("canceled subscription still delivered an event")
	}
}

// TestSSERoundTrip: WriteEvent/WriteComment through ReadEvents
// reproduces the event sequence, skipping comments, including a trailing
// event unterminated at EOF.
func TestSSERoundTrip(t *testing.T) {
	var sb strings.Builder
	events := []spec.JobEvent{
		{Type: "epoch", Job: "j1", Seq: 0, Progress: &spec.ProgressInfo{Epoch: 0, Loss: 1.5}},
		{Type: "epoch", Job: "j1", Seq: 1, Progress: &spec.ProgressInfo{Epoch: 1, Loss: 0.7}},
		{Type: "done", Job: "j1", Seq: 2, Status: "done", EmbeddingHash: "0123456789abcdef"},
	}
	for i, ev := range events {
		if i == 1 {
			if err := WriteComment(&sb, "ping"); err != nil {
				t.Fatal(err)
			}
		}
		if err := WriteEvent(&sb, ev); err != nil {
			t.Fatal(err)
		}
	}
	wire := strings.TrimSuffix(sb.String(), "\n\n") // truncate the final dispatch: EOF must still deliver

	var got []spec.JobEvent
	err := ReadEvents(strings.NewReader(wire), func(ev spec.JobEvent) bool {
		got = append(got, ev)
		return true
	})
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("round-tripped %d events, want %d: %+v", len(got), len(events), got)
	}
	for i := range events {
		if got[i].Type != events[i].Type || got[i].Seq != events[i].Seq || got[i].Job != events[i].Job {
			t.Errorf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
	if got[2].EmbeddingHash != "0123456789abcdef" {
		t.Errorf("terminal lost its hash: %+v", got[2])
	}
}

// TestReadEventsEarlyStop: fn returning false ends the read without
// error.
func TestReadEventsEarlyStop(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 5; i++ {
		if err := WriteEvent(&sb, spec.JobEvent{Type: "epoch", Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	err := ReadEvents(strings.NewReader(sb.String()), func(spec.JobEvent) bool {
		n++
		return n < 2
	})
	if err != nil || n != 2 {
		t.Fatalf("early stop: n=%d err=%v, want 2, nil", n, err)
	}
}

// TestReadEventsNameMismatch: an SSE event name disagreeing with the
// payload type is a protocol error, not a silent skew.
func TestReadEventsNameMismatch(t *testing.T) {
	wire := "event: done\ndata: {\"type\":\"epoch\",\"job\":\"j1\",\"seq\":0}\n\n"
	err := ReadEvents(strings.NewReader(wire), func(spec.JobEvent) bool { return true })
	if err == nil {
		t.Fatal("mismatched event name accepted")
	}
}

// FuzzReadEvents feeds arbitrary bytes to the SSE reader, which parses a
// peer's or server's event stream. It returns an error or delivers events
// whose type agrees with their SSE name — never a panic, and memory
// within a fixed allowance plus a constant multiple of the input.
func FuzzReadEvents(f *testing.F) {
	var sb strings.Builder
	_ = WriteEvent(&sb, epoch(0))
	_ = WriteComment(&sb, "ping")
	_ = WriteEvent(&sb, spec.JobEvent{Type: "done", Job: "j1", Seq: 1, Status: "done", EmbeddingHash: "0123456789abcdef"})
	for _, s := range []string{
		sb.String(),
		"event: done\ndata: {\"type\":\"epoch\",\"job\":\"j1\",\"seq\":0}\n\n",
		"data: {\n\n",
		"data: {\"type\":\"epoch\"}",
		":only a comment\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = ReadEvents(strings.NewReader(input), func(spec.JobEvent) bool { return true })
		runtime.ReadMemStats(&after)
		if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(input)); n > bound {
			t.Fatalf("reading %d bytes allocated %d, want <= %d", len(input), n, bound)
		}
	})
}
