package core_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"vstore/internal/core"
	"vstore/internal/model"
	"vstore/internal/transport"
)

// redirectFault makes every replica reject the step-3 redirect of one
// promotion: a Put to the view row `row` that moves its Next pointer to
// `to`. hit is closed at the first rejection.
type redirectFault struct {
	view, row, qNext, to string

	mu      sync.Mutex
	hits    int
	hit     chan struct{}
	handler map[transport.NodeID]transport.Handler
}

// faultyNode is one node's handler behind the fault.
type faultyNode struct {
	id transport.NodeID
	f  *redirectFault
}

func (n faultyNode) HandleRequest(from transport.NodeID, req transport.Request) (transport.Response, error) {
	if put, ok := req.(transport.PutReq); ok && put.Table == n.f.view && put.Row == n.f.row {
		for _, u := range put.Updates {
			if u.Column == n.f.qNext && string(u.Cell.Value) == n.f.to {
				n.f.mu.Lock()
				if n.f.hits++; n.f.hits == 1 {
					close(n.f.hit)
				}
				n.f.mu.Unlock()
				return nil, errors.New("injected: redirect rejected")
			}
		}
	}
	return n.f.handler[n.id].HandleRequest(from, req)
}

// injectRedirectFault wraps every node of h with the fault.
func injectRedirectFault(h *harness, view, baseKey, row, to string) *redirectFault {
	f := &redirectFault{
		view: view, row: row, qNext: model.Qualify(baseKey, core.ColNext), to: to,
		hit:     make(chan struct{}),
		handler: map[transport.NodeID]transport.Handler{},
	}
	for _, n := range h.c.Nodes {
		f.handler[n.ID()] = n
	}
	for _, n := range h.c.Nodes {
		h.c.Trans.Register(n.ID(), faultyNode{id: n.ID(), f: f})
	}
	return f
}

// TestInterruptedPromotionIsRedoSafe fails a promotion between its
// create (step 1) and its publish (step 4) by rejecting the step-3
// redirect at every replica, leaves the self-pointing, unpublished
// "ghost" row in place, and lets a second update of the same base row
// propagate over it before the failed propagation retries. The second
// update must supersede the row that is really live (not the ghost),
// and once everything drains the versioned view must satisfy
// Definition 3 with no read spinning on a leftover ghost.
//
// Two shapes: the promoted key is fresh, or it is an old stale key of
// the same base row, whose re-promotion severs the chain (the anchor's
// walk dead-ends at the ghost).
func TestInterruptedPromotionIsRedoSafe(t *testing.T) {
	cases := []struct {
		name string
		// history is the base row's view-key writes before the
		// interrupted one, each fully propagated; the last is live.
		history []string
		// promoted is the interrupted update's view key; next is the
		// second update's.
		promoted, next string
	}{
		{name: "fresh key", history: []string{"lee"}, promoted: "xu", next: "yang"},
		{name: "re-promoted stale key", history: []string{"ava", "bo"}, promoted: "ava", next: "cruz"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The long backoff holds the failed propagation's retry
			// back until the second update has propagated.
			h := newHarness(t, core.Options{RetryBackoff: 500 * time.Millisecond}, 4)
			mustDefine(t, h, ticketDef())
			m := h.mgrs[0]
			put := func(key string, ts int64, onPropagated func(string, error)) {
				t.Helper()
				err := m.Put(ctxT(t), "ticket", "1", []model.ColumnUpdate{
					model.Update("assignedto", []byte(key), ts),
					model.Update("status", []byte(key+"-status"), ts),
				}, 2, onPropagated)
				if err != nil {
					t.Fatal(err)
				}
			}
			ts := int64(0)
			for _, key := range tc.history {
				ts++
				put(key, ts, nil)
				h.quiesce(t)
			}
			live := tc.history[len(tc.history)-1]

			f := injectRedirectFault(h, "assignedto", "1", live, tc.promoted)
			ts++
			put(tc.promoted, ts, nil)
			<-f.hit

			propagated := make(chan error, 1)
			ts++
			put(tc.next, ts, func(_ string, err error) { propagated <- err })
			if err := <-propagated; err != nil {
				t.Fatalf("second update: %v", err)
			}
			if got, want := m.Stats().Propagations.Load(), int64(len(tc.history)+1); got != want {
				t.Fatalf("%d propagations done after the second update, want %d: the interrupted one must still be waiting to retry", got, want)
			}
			// The second update superseded the row that was really live.
			if rows := getView(t, m, "assignedto", live); len(rows) != 0 {
				t.Fatalf("GetView(%q) = %v after %q propagated, want no rows", live, rows, tc.next)
			}
			if rows := getView(t, m, "assignedto", tc.next); len(rows) != 1 || string(rows[0].Cells["status"].Value) != tc.next+"-status" {
				t.Fatalf("GetView(%q) = %v, want ticket 1 with status %q", tc.next, rows, tc.next+"-status")
			}

			h.quiesce(t)
			vrows, err := core.DecodeVersionedView(h.viewEntries("assignedto"))
			if err != nil {
				t.Fatal(err)
			}
			if err := core.CheckVersionedInvariants(vrows, map[string]string{"1": tc.next}); err != nil {
				t.Fatal(err)
			}
			for _, r := range vrows {
				if string(r.Next.Value) == r.ViewKey && (r.Ready.IsNull() || r.Ready.TS < r.Next.TS) {
					t.Fatalf("row %q is an unpublished self-pointing ghost after quiesce", r.ViewKey)
				}
			}
			spins := m.Stats().ReadSpins.Load()
			for _, key := range append(tc.history, tc.promoted, tc.next) {
				rows := getView(t, m, "assignedto", key)
				if want := key == tc.next; want != (len(rows) == 1) || len(rows) > 1 {
					t.Fatalf("GetView(%q) = %v after quiesce", key, rows)
				}
			}
			if got := m.Stats().ReadSpins.Load(); got != spins {
				t.Fatalf("view reads spun %d times after quiesce, want 0", got-spins)
			}
		})
	}
}
