package main

import (
	"strings"
	"sync"

	"vstore"
)

// collectEvery is how many traced calls run between two collections of
// DB.Traces. The tracer keeps only the last 64 finished roots and a
// call leaves at most two (its client root and a linked propagate
// root), so every 8 calls keeps a root in the ring until the next
// collection, unless propagate roots finish in a burst as a backlog
// drains; roots lost that way are counted in trace.roots_lost.
const collectEvery = 8

// traceSink gathers the retained span trees of a traced run. A root is
// aggregated the second time a collection sees it, so replica spans
// still running when the first snapshot was taken (a quorum returns
// before the slowest replica) have finished by then; the last
// collection aggregates everything left.
type traceSink struct {
	db *vstore.DB

	mu      sync.Mutex
	calls   int // traced calls since the last collection
	issued  int64
	pending map[uint64]bool // seen once, not yet aggregated
	done    map[uint64]bool
	agg     *spanAgg
	// clientRoots counts aggregated client.* roots: one per traced call
	// that was not lost from the ring.
	clientRoots int64
}

func newTraceSink(db *vstore.DB) *traceSink {
	return &traceSink{db: db, pending: map[uint64]bool{}, done: map[uint64]bool{}, agg: newSpanAgg()}
}

// called notes one traced client call and collects when due. Safe for
// concurrent use; a nil sink does nothing.
func (t *traceSink) called() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.issued++
	t.calls++
	if t.calls >= collectEvery {
		t.collectLocked(false)
	}
}

// finish collects everything still retained, after the drain.
func (t *traceSink) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.collectLocked(true)
}

func (t *traceSink) collectLocked(final bool) {
	t.calls = 0
	for _, root := range t.db.Traces() {
		id := root.TraceID
		if t.done[id] {
			continue
		}
		if !final && !t.pending[id] {
			t.pending[id] = true
			continue
		}
		delete(t.pending, id)
		t.done[id] = true
		t.agg.add(root)
		if strings.HasPrefix(root.Op, "client.") {
			t.clientRoots++
		}
	}
}

// rootsLost is how many traced calls' roots never reached the sink.
func (t *traceSink) rootsLost() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.issued - t.clientRoots
}
