package sim

// The simulator's side of view maintenance: the per-base-key lock and
// the retry loop of Algorithm 1 (lines 5-7) with the simulator's
// epoch, liveness and stuck checks. Each round runs internal/core's
// Propagator — the same Algorithms 2-3 code that ships — over
// procQuorum, which maps core's quorum reads and writes onto the
// simulated fabric.

import (
	"context"
	"fmt"
	"time"

	"vstore/internal/coord"
	"vstore/internal/core"
	"vstore/internal/model"
	"vstore/internal/transport"
)

// simLock serializes propagation rounds per base key, standing in for
// the registry's lock service. Grants are FIFO and always delivered via
// a scheduled event, keeping acquisition order deterministic.
type simLock struct {
	held    bool
	waiters []func(interface{})
}

func (w *world) lock(p *Proc, key string) {
	l := w.locks[key]
	if l == nil {
		l = &simLock{}
		w.locks[key] = l
	}
	if !l.held {
		l.held = true
		return
	}
	p.Await(func(resolve func(interface{})) {
		l.waiters = append(l.waiters, resolve)
	})
}

func (w *world) unlock(key string) {
	l := w.locks[key]
	if len(l.waiters) == 0 {
		l.held = false
		return
	}
	grant := l.waiters[0]
	l.waiters = l.waiters[1:]
	w.s.Schedule(0, "lock-grant", key, func() { grant(nil) })
}

// Propagation outcomes. Crashed and dropped differ for intent
// bookkeeping: a crashed propagation is still owed to its view (the
// re-enqueued intent redoes it), while a dropped view owes nothing.
const (
	propDone = iota
	propCrashed
	propDropped
)

// runPropagation is the retry loop of Algorithm 1 lines 5-7: try the
// collected guesses, and while none resolves, back off and augment the
// guess pool from fresh replica reads. The sim never abandons — faults
// heal at cfg.Duration, so every propagation eventually completes (a
// propagation stuck past its attempt budget is itself a violation).
//
// def is the target view (byview, or a backfilled-view generation).
// epoch is the coordinator's restart epoch at the time this
// propagation was started (always 0 in memory mode). In durable runs a
// CrashRestart bumps the node's epoch, and a propagation thread whose
// epoch has passed aborts at its next step — it died with its process;
// the intent the coordinator logged before acking was recovered from
// disk and re-enqueued by the restart. alive, when non-nil, is the
// target view's liveness check: a dropped view's propagations abort as
// propDropped (there is nothing left to maintain).
func (w *world) runPropagation(p *Proc, coordID transport.NodeID, def *core.Def, bk string, u model.ColumnUpdate, vers *versionSet, epoch int, alive func() bool) int {
	prop := core.NewPropagator(procQuorum{w: w, p: p, coordID: coordID},
		core.Options{PathCompression: w.cfg.PathCompression, MaxChainHops: w.cfg.MaxChainHops}, &w.stats, &w.chainLen)
	backoff := time.Millisecond
	status := propCrashed
	for attempt := 0; ; attempt++ {
		if alive != nil && !alive() {
			w.s.Record("prop-dropped", fmt.Sprintf("view=%s base=%s col=%s ts=%d", def.Name, bk, u.Column, u.Cell.TS))
			status = propDropped
			break
		}
		if w.durable && w.epochs[coordID] != epoch {
			w.s.Record("prop-aborted", fmt.Sprintf("view=%s base=%s col=%s ts=%d coord=%d crashed", def.Name, bk, u.Column, u.Cell.TS, coordID))
			status = propCrashed
			break
		}
		if attempt > 2000 {
			w.s.Fail(fmt.Errorf("propagation for view %q base %q (col %s, ts %d) stuck after %d attempts", def.Name, bk, u.Column, u.Cell.TS, attempt))
			status = propCrashed
			break
		}
		if w.tryPropRound(p, prop, def, bk, u, vers) {
			w.report.Propagations++
			status = propDone
			break
		}
		p.Sleep(backoff)
		if backoff *= 2; backoff > 16*time.Millisecond {
			backoff = 16 * time.Millisecond
		}
		if !vers.complete {
			w.refreshVersions(p, coordID, bk, vers)
		}
	}
	w.inflight[bk]--
	if status == propDone {
		w.s.Record("prop-done", fmt.Sprintf("view=%s base=%s col=%s ts=%d", def.Name, bk, u.Column, u.Cell.TS))
	}
	return status
}

// refreshVersions augments the guess pool with the view-key versions
// currently visible at the replicas. Pre-image versions from the
// original write stay in the pool (they carry the NULL that licenses
// row creation); completeness requires a round where every replica
// answered.
func (w *world) refreshVersions(p *Proc, coordID transport.NodeID, bk string, vers *versionSet) {
	replicas := w.replicas(baseTable, bk)
	type agg struct {
		acks, replies int
		resolved      bool
	}
	res := p.Await(func(resolve func(interface{})) {
		a := &agg{}
		n := len(replicas)
		req := transport.GetReq{Table: baseTable, Row: bk, Columns: []string{vkCol}}
		for _, to := range replicas {
			w.fab.Send(coordID, to, req, func(r transport.Result) {
				a.replies++
				if r.Err == nil {
					a.acks++
					if gr, ok := r.Resp.(transport.GetResp); ok {
						cell, ok := gr.Cells[vkCol]
						if !ok {
							cell = model.NullCell
						}
						vers.cells.Add(cell)
					}
				}
				if !a.resolved && a.replies == n {
					a.resolved = true
					resolve(a.acks)
				}
			})
		}
	})
	if res.(int) == len(replicas) {
		vers.complete = true
	}
}

// tryPropRound makes one pass over the current guesses while holding
// the base key's propagation lock — held across the round, never across
// the backoff (the paper's liveness argument, Section IV-D). The lock
// is per view per base key: two views' maintenance of one base key is
// independent (they write disjoint rows).
func (w *world) tryPropRound(p *Proc, prop *core.Propagator, def *core.Def, bk string, u model.ColumnUpdate, vers *versionSet) bool {
	lk := def.Name + "\x00" + bk
	w.lock(p, lk)
	defer w.unlock(lk)
	r := core.Round{Def: def, BaseKey: bk, Guesses: vers.cells.Cells(), Complete: vers.complete}
	if u.Column == def.ViewKeyColumn {
		r.VK = &u
	} else {
		r.Mats = []model.ColumnUpdate{u}
	}
	// The error only reports an expired context, and the sim's never
	// expires: a round that did not finish is retried by the caller.
	done, _ := prop.TryRound(context.Background(), r)
	return done
}

// procQuorum is core.Quorum for one simulated process: each call parks
// p until the simulated replicas have answered, so core's propagation
// code runs unchanged on the simulator's deterministic schedule.
type procQuorum struct {
	w       *world
	p       *Proc
	coordID transport.NodeID
}

func (q procQuorum) Get(_ context.Context, table, row string, cols []string) (model.Row, error) {
	return q.w.quorumGet(q.p, q.coordID, table, row, cols)
}

// MultiGet is a loop of quorum reads: the simulated fabric has no
// batched request, and the result is the same rows.
func (q procQuorum) MultiGet(_ context.Context, table string, reads []coord.RowRead) ([]model.Row, error) {
	rows := make([]model.Row, len(reads))
	for i, rd := range reads {
		row, err := q.w.quorumGet(q.p, q.coordID, table, rd.Row, rd.Columns)
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	return rows, nil
}

func (q procQuorum) Put(_ context.Context, table, row string, updates []model.ColumnUpdate) error {
	replicas := q.w.replicas(table, row)
	quorum := len(replicas)/2 + 1
	req := transport.PutReq{Table: table, Row: row, Updates: updates}
	if acks := q.w.broadcastPut(q.p, q.coordID, replicas, req, nil); acks < quorum {
		return fmt.Errorf("sim: write quorum failed for view %q row %q (%d/%d)", table, row, acks, quorum)
	}
	return nil
}
