package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// round share its round number; replays made after the session carry
// round -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: none
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced pass's spans in memory until the pass ends.
// Safe for concurrent use; a nil tracer records nothing, so untraced
// passes run the same code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	rounds map[int]int // round → its "round" span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), rounds: make(map[int]int)}
}

// start opens a span and returns its ID (-1 on a nil tracer).
func (t *tracer) start(name string, round, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: round, Start: now, End: -1})
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// beginRound opens the span that parents every other span of a round.
func (t *tracer) beginRound(round int) int {
	id := t.start("round", round, -1)
	if id >= 0 {
		t.mu.Lock()
		t.rounds[round] = id
		t.mu.Unlock()
	}
	return id
}

// roundSpan returns the span of a round, or -1.
func (t *tracer) roundSpan(round int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.rounds[round]; ok {
		return id
	}
	return -1
}

// total sums the durations of the closed spans with the given name
// whose round lies in [from, to), and counts them.
func (t *tracer) total(name string, from, to int) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && s.Round >= from && s.Round < to {
			sum += s.End - s.Start
			n++
		}
	}
	return time.Duration(sum), n
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
