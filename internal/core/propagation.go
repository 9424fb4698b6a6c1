package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"vstore/internal/coord"
	"vstore/internal/metrics"
	"vstore/internal/model"
	"vstore/internal/trace"
)

// errKeyMissing is the retryable failure of Algorithm 3: the guessed
// view key does not (yet) exist in the view, because the base-table
// update that wrote it has not propagated.
var errKeyMissing = errors.New("core: view key not found in view")

// errUnresolved is the retryable failure of a live-row resolution that
// ended at an interrupted promotion (see resolveLive) which the detour
// could not settle either. It is distinct from errKeyMissing so that
// it never licenses row creation.
var errUnresolved = errors.New("core: live row resolution blocked by an unfinished promotion")

// runPropagation is the coordinator's retry loop of Algorithm 1, lines
// 5-7: choose a view-key guess from the collected versions and invoke
// PropagateUpdate until one attempt succeeds. Guesses are tried newest
// first; when all collected guesses fail, the loop waits for more
// versions from straggler replicas or retries after a backoff (the
// failing guesses' writers may propagate in the meantime). After
// MaxPropagationRetry the propagation is abandoned and counted.
//
// The concurrency-control resource (the per-row lock, or the dedicated
// propagator in pool mode) is held only across a single round of
// attempts, never across the backoff wait. This matters for liveness:
// the paper's progress argument (Section IV-D) relies on some *other*
// unpropagated update being able to proceed while this one's guesses
// are still unresolved — holding the row's exclusive lock while
// waiting for that very update would deadlock until timeout.
func (m *Manager) runPropagation(t propTask, baseKey string, vc *coord.VersionCollector, sp *trace.Span) error {
	opts := m.reg.opts
	ctx, cancel := context.WithTimeout(context.Background(), opts.MaxPropagationRetry)
	defer cancel()
	ctx = trace.NewContext(ctx, sp)
	backoff := opts.RetryBackoff
	lockKey := t.def.Name + "\x00" + t.def.storedKey(baseKey)

	for {
		done, err := m.tryRound(ctx, t, baseKey, lockKey, vc)
		if done {
			return err
		}
		if ctx.Err() != nil {
			m.stats.Abandoned.Add(1)
			return fmt.Errorf("core: propagation to %q for base row %q abandoned after %v",
				t.def.Name, baseKey, opts.MaxPropagationRetry)
		}
		// Changed() stays closed once collection completes (so late
		// waiters see completion); after that only the backoff can make
		// a retry worthwhile, so stop selecting on it or the loop would
		// busy-spin through its remaining retries.
		changed := vc.Changed()
		if vc.Complete() {
			changed = nil
		}
		select {
		case <-ctx.Done():
		case <-changed:
		case <-m.reg.clk.After(backoff):
		}
		if backoff *= 2; backoff > 50*time.Millisecond {
			backoff = 50 * time.Millisecond
		}
	}
}

// runPropagationViaPool drives the same retry loop through the
// dedicated propagator pool (ModePropagators). Each round runs as one
// pool job on the base row's propagator; between rounds the job
// reschedules itself with time.AfterFunc instead of sleeping, so a
// propagation waiting for its guesses to resolve never blocks the
// propagator — other rows' jobs, and crucially the very propagations
// this one is waiting for, keep flowing.
func (m *Manager) runPropagationViaPool(t propTask, baseKey string, vc *coord.VersionCollector, sp *trace.Span, finish func(error)) {
	opts := m.reg.opts
	ctx, cancel := context.WithTimeout(context.Background(), opts.MaxPropagationRetry)
	ctx = trace.NewContext(ctx, sp)
	lockKey := t.def.Name + "\x00" + t.def.storedKey(baseKey)
	backoff := opts.RetryBackoff

	var step func()
	step = func() {
		done, err := m.tryRound(ctx, t, baseKey, lockKey, vc)
		if done {
			cancel()
			finish(err)
			return
		}
		if ctx.Err() != nil {
			m.stats.Abandoned.Add(1)
			cancel()
			finish(fmt.Errorf("core: propagation to %q for base row %q abandoned after %v",
				t.def.Name, baseKey, opts.MaxPropagationRetry))
			return
		}
		d := backoff
		if backoff *= 2; backoff > 50*time.Millisecond {
			backoff = 50 * time.Millisecond
		}
		m.reg.clk.AfterFunc(d, func() {
			if !m.reg.pool.Submit(lockKey, step) {
				// Pool shut down mid-retry: finish inline.
				cancel()
				finish(m.runPropagation(t, baseKey, vc, sp))
			}
		})
	}
	if !m.reg.pool.Submit(lockKey, step) {
		cancel()
		finish(m.runPropagation(t, baseKey, vc, sp))
	}
}

// tryRound makes one pass over the currently collected guesses, holding
// the row's propagation lock (exclusive for view-key updates, shared
// for materialized-column updates) in ModeLocks. In ModePropagators the
// caller already runs on the row's dedicated propagator, which provides
// the serialization. It reports done=true when the propagation
// completed (successfully or as a provable no-op).
func (m *Manager) tryRound(ctx context.Context, t propTask, baseKey, lockKey string, vc *coord.VersionCollector) (bool, error) {
	if m.reg.opts.Mode == ModeLocks {
		var release func()
		if t.vk != nil {
			release = m.reg.locks.Lock(lockKey)
		} else {
			release = m.reg.locks.RLock(lockKey)
		}
		defer release()
	}
	// Completeness is read before the versions: a pool snapshot taken
	// after collection finished holds every replica's version.
	complete := vc.Complete()
	return m.prop.TryRound(ctx, Round{Def: t.def, BaseKey: baseKey, VK: t.vk, Mats: t.mats, Guesses: vc.Versions(), Complete: complete})
}

// Quorum is the replicated storage a propagation round runs over:
// majority-quorum reads and writes of base-table and view rows. Manager
// implements it with its coord.Coordinator; the deterministic simulator
// implements it over its simulated fabric, so both run the same
// Algorithms 2-3.
type Quorum interface {
	Get(ctx context.Context, table, row string, cols []string) (model.Row, error)
	MultiGet(ctx context.Context, table string, reads []coord.RowRead) ([]model.Row, error)
	Put(ctx context.Context, table, row string, updates []model.ColumnUpdate) error
}

// coordQuorum is the production Quorum: a coordinator at majority.
type coordQuorum struct{ co *coord.Coordinator }

func (q coordQuorum) majority() int { return q.co.N()/2 + 1 }

func (q coordQuorum) Get(ctx context.Context, table, row string, cols []string) (model.Row, error) {
	return q.co.Get(ctx, table, row, cols, q.majority(), false)
}

func (q coordQuorum) MultiGet(ctx context.Context, table string, reads []coord.RowRead) ([]model.Row, error) {
	return q.co.MultiGet(ctx, table, reads, q.majority())
}

func (q coordQuorum) Put(ctx context.Context, table, row string, updates []model.ColumnUpdate) error {
	return q.co.Put(ctx, table, row, updates, q.majority())
}

// Propagator runs propagation rounds — the guess-pool rules of
// Algorithm 1 around PropagateUpdate (Algorithm 2) and GetLiveKey
// (Algorithm 3) — over a Quorum. The caller owns the per-row
// serialization and the retry loop.
type Propagator struct {
	q        Quorum
	opts     Options
	stats    *Stats
	chainLen *metrics.AtomicHist
}

// NewPropagator returns a Propagator over q. Of opts it uses
// PathCompression and MaxChainHops; it counts into stats and records
// per-walk chain lengths into chainLen.
func NewPropagator(q Quorum, opts Options, stats *Stats, chainLen *metrics.AtomicHist) *Propagator {
	return &Propagator{q: q, opts: opts.withDefaults(), stats: stats, chainLen: chainLen}
}

// Round is the input of one propagation round for one view.
type Round struct {
	Def     *Def
	BaseKey string
	// VK is the update to the view-key column, if any; Mats are the
	// updates to view-materialized columns.
	VK   *model.ColumnUpdate
	Mats []model.ColumnUpdate
	// Guesses is the pool of pre-image view-key versions, newest first.
	// Complete reports that every replica contributed to it.
	Guesses  []model.Cell
	Complete bool
}

// TryRound makes one pass over r's guesses, invoking PropagateUpdate
// per guess until one succeeds. It reports done=true when the
// propagation completed, successfully or as a provable no-op; a
// non-nil error with done=false means ctx expired mid-round.
func (p *Propagator) TryRound(ctx context.Context, r Round) (bool, error) {
	anyWritten, anyLive := false, false
	for _, g := range r.Guesses {
		if g.Exists() {
			anyWritten = true
			if !g.Tombstone {
				anyLive = true
			}
		}
	}
	deletesOrMatOnly := r.VK == nil || r.VK.Cell.Tombstone
	// Every replica reporting "no view key ever written" means no
	// view row exists for this base row (Definition 1). A
	// materialized-column-only update then has nothing to maintain,
	// and a view-key *deletion* has nothing to delete. Safe only once
	// collection is complete. Tombstoned pre-images do NOT qualify —
	// a deleted view key may still have a live (not yet
	// deletion-marked) view row that a re-propagated deletion must
	// stamp, so those fall through to the chain walks below.
	if !anyWritten && r.Complete && deletesOrMatOnly {
		p.stats.NoOps.Add(1)
		return true, nil
	}
	// With a complete pool holding no live guess, a deletion (or
	// mat-only update) whose walk finds no anchor at the quorum is a
	// provable no-op: any concurrent view-key creation's CopyData
	// quorum-reads the base row, intersects this update's acked write
	// quorum, and folds the winning state itself. A live guess forbids
	// the shortcut — the row it names may exist unanchored mid-create,
	// so the walk must keep retrying until it resolves.
	noView := r.Complete && !anyLive && deletesOrMatOnly

	// With several live guesses the chain walks ahead share one batched
	// lookup of every start key's first hop (one round trip instead of
	// one Get per guess).
	pre := p.prefetchStarts(ctx, r.Def, r.BaseKey, r.Guesses)

	for _, g := range r.Guesses {
		err := p.propagateOnce(ctx, r, g, pre)
		if err == nil {
			p.stats.Propagations.Add(1)
			return true, nil
		}
		if noView && g.IsNull() && errors.Is(err, errKeyMissing) {
			p.stats.NoOps.Add(1)
			return true, nil
		}
		p.stats.FailedAttempts.Add(1)
		if ctx.Err() != nil {
			return false, err
		}
	}
	return false, nil
}

// viewPut writes cells into a versioned view row with the majority
// quorum mandated by Algorithm 2. Dot metadata is stripped: dots name
// client base-table writes, and a view cell derived from a dotted base
// cell is not itself a causal event — carrying the dot over would make
// two view rows derived from concurrent base writes look like sibling
// view writes and double-count them.
func (p *Propagator) viewPut(ctx context.Context, view, rowKey string, updates []model.ColumnUpdate) error {
	model.StripDots(updates)
	return p.q.Put(ctx, view, rowKey, updates)
}

// propagateOnce is PropagateUpdate (Algorithm 2) for one guess. It
// handles a view-key update, view-materialized column updates, or both
// at once (the multi-column extension the paper describes in IV-C).
func (p *Propagator) propagateOnce(ctx context.Context, r Round, guess model.Cell, pre map[string]model.Row) error {
	def := r.Def
	// Resolve the guess to a starting view-row key. A NULL guess (the
	// replica had no view key before the update) starts from the base
	// row's chain anchor; see nullRowKey.
	start := nullRowKey(def.storedKey(r.BaseKey))
	if !guess.IsNull() {
		start = string(guess.Value)
	}

	kLive, tLive, err := p.resolveLive(ctx, def, r.BaseKey, start, pre)
	creating := false
	if err != nil {
		// A missing anchor together with a NULL guess means no view
		// row has ever been created for this base row: a view-key
		// update may create the first one. Any other failure is a bad
		// guess — retried by the caller with another version.
		if errors.Is(err, errKeyMissing) && guess.IsNull() && r.VK != nil && !r.VK.Cell.Tombstone {
			creating, kLive, tLive = true, "", model.NullTS
		} else {
			return err
		}
	}

	target := kLive // row that will receive materialized-column cells
	if r.VK != nil {
		target, err = p.propagateViewKey(ctx, def, r.BaseKey, *r.VK, kLive, tLive, creating)
		if err != nil {
			return err
		}
	}
	if len(r.Mats) > 0 && def.Selects(target) {
		// Algorithm 2 line 12: write the new values into the live row.
		// The cells carry the base-table timestamps, so stale
		// propagations lose to fresher cell values automatically.
		// (Rows outside the view's selection carry no data cells, so
		// materialized updates to them are skipped; if the key later
		// moves into the selection, CopyData re-seeds from the base.)
		updates := make([]model.ColumnUpdate, 0, len(r.Mats))
		for _, u := range r.Mats {
			updates = append(updates, model.ColumnUpdate{Column: model.Qualify(def.storedKey(r.BaseKey), u.Column), Cell: u.Cell})
		}
		if err := p.viewPut(ctx, def.Name, target, updates); err != nil {
			return err
		}
	}
	return nil
}

// propagateViewKey handles the view-key branch of Algorithm 2 and
// returns the key of the row that now represents the base row's
// current state (where bundled materialized updates should land).
func (p *Propagator) propagateViewKey(ctx context.Context, def *Def, baseKey string, vk model.ColumnUpdate, kLive string, tLive int64, creating bool) (string, error) {
	stored := def.storedKey(baseKey)
	qNext := model.Qualify(stored, ColNext)
	qBase := model.Qualify(stored, ColBase)
	qReady := model.Qualify(stored, ColReady)
	tNew := vk.Cell.TS

	if vk.Cell.Tombstone {
		// Deletion of the view key: the row stays in the versioned
		// view (it anchors stale chains) but is marked deleted. Reads
		// skip rows whose deletion is at least as new as their live
		// pointer.
		upd := []model.ColumnUpdate{{Column: model.Qualify(stored, ColDeleted), Cell: model.Cell{Value: []byte("1"), TS: tNew}}}
		if err := p.viewPut(ctx, def.Name, kLive, upd); err != nil {
			return "", err
		}
		return kLive, nil
	}

	kNew := string(vk.Cell.Value)
	// The live row's Next cell holds exactly the winning view-key
	// write (value kLive at tLive), so LWW comparison against it
	// decides whether this update supersedes the live row — including
	// the timestamp-tie case the paper leaves to Cassandra semantics.
	newWins := creating || vk.Cell.Wins(model.Cell{Value: []byte(kLive), TS: tLive})

	switch {
	case kNew == kLive:
		// Case 2c: the key is already live; refresh its timestamps
		// (no effect if tNew is older, by Put semantics). The base,
		// pointer and ready cells travel in one put, so any replica
		// that observes the refreshed pointer also observes the
		// refreshed ready marker.
		return kNew, p.viewPut(ctx, def.Name, kNew, []model.ColumnUpdate{
			{Column: qBase, Cell: model.Cell{Value: []byte(baseKey), TS: tNew}},
			{Column: qNext, Cell: model.Cell{Value: []byte(kNew), TS: tNew}},
			{Column: qReady, Cell: model.Cell{Value: []byte("1"), TS: tNew}},
		})

	case newWins:
		return kNew, p.promote(ctx, def, baseKey, vk, kLive, creating)

	default:
		// The update is older than the live row: record it as a stale
		// row pointing (directly) at the live row, so later guesses of
		// kNew can still find the live row. The pointer is stamped at
		// the live row's timestamp, not tNew — what path compression
		// would later write, and redo-safe: if kNew is a ghost of this
		// very update's interrupted promotion, its self-pointer at tNew
		// loses to this cell (the live row won at tNew, so tLive > tNew,
		// or the tie broke on value and kLive is the larger value).
		if err := p.viewPut(ctx, def.Name, kNew, []model.ColumnUpdate{
			{Column: qBase, Cell: model.Cell{Value: []byte(baseKey), TS: tNew}},
			{Column: qNext, Cell: model.Cell{Value: []byte(kLive), TS: tLive}},
		}); err != nil {
			return "", err
		}
		// Bundled materialized updates still target the live row.
		return kLive, nil
	}
}

// promote runs the "new row wins" sequence of Algorithm 2, ordered for
// concurrent readers (Section IV-F): (1) create the new row
// self-pointing but without its ready marker — inaccessible; (2) copy
// the view-materialized cells; (3) turn the old live row (the chain
// anchor when creating) stale; (4) publish the new row by writing its
// ready marker. Step 1 also records the superseded row in ColPrev, the
// redo intent that lets resolveLive detour around the new row when the
// sequence is interrupted. A creating promotion leaves ColPrev out: an
// absent ColPrev already means "detour via the anchor".
func (p *Propagator) promote(ctx context.Context, def *Def, baseKey string, vk model.ColumnUpdate, kOld string, creating bool) error {
	stored := def.storedKey(baseKey)
	tNew := vk.Cell.TS
	kNew := string(vk.Cell.Value)
	base := model.ColumnUpdate{Column: model.Qualify(stored, ColBase), Cell: model.Cell{Value: []byte(baseKey), TS: tNew}}
	next := model.ColumnUpdate{Column: model.Qualify(stored, ColNext), Cell: model.Cell{Value: []byte(kNew), TS: tNew}}

	create := []model.ColumnUpdate{base, next}
	if !creating {
		create = append(create, model.ColumnUpdate{Column: model.Qualify(stored, ColPrev), Cell: model.Cell{Value: []byte(kOld), TS: tNew}})
	}
	if err := p.viewPut(ctx, def.Name, kNew, create); err != nil {
		return err
	}
	// Rows outside the view's selection are structure-only: they
	// anchor stale chains but never carry materialized data.
	if def.Selects(kNew) {
		if err := p.copyData(ctx, def, baseKey, kOld, kNew, creating); err != nil {
			return err
		}
	}
	staleRow := kOld
	if creating {
		staleRow = nullRowKey(stored)
	}
	if err := p.viewPut(ctx, def.Name, staleRow, []model.ColumnUpdate{base, next}); err != nil {
		return err
	}
	return p.viewPut(ctx, def.Name, kNew, []model.ColumnUpdate{
		{Column: model.Qualify(stored, ColReady), Cell: model.Cell{Value: []byte("1"), TS: tNew}},
	})
}

// copyData implements Algorithm 2's CopyData: the new live row
// receives the current view-materialized cells, preserving their
// original timestamps so later per-cell propagations merge correctly.
// The deletion marker travels with the live row the same way: a
// propagated view-key deletion must keep suppressing the row even
// after an older (belatedly propagated) view-key write moves the live
// row elsewhere.
//
// Beyond the paper's CopyData (which copies only from the old live
// row), the cells are additionally LWW-merged with a quorum read of
// the base row. Two gaps in the paper's algorithm make this necessary
// in a system where replicas apply writes out of order:
//
//   - when the base row enters the view for the first time there is no
//     old live row to copy from at all, and
//   - a materialized-column update whose pre-read saw no view key at
//     any replica is (correctly, per Definition 1) not applied to any
//     view row — so a *later-propagating but older* view-key write must
//     recover that cell from the base table, or it would be lost.
//
// Because the copied cells keep their base-table timestamps, merging
// in base state never regresses the view and preserves convergence.
// The cells are written in sorted column order, so the simulator's
// traces stay deterministic.
func (p *Propagator) copyData(ctx context.Context, def *Def, baseKey, kOld, kNew string, creating bool) error {
	stored := def.storedKey(baseKey)
	merged := model.Row{} // unqualified column → winning cell
	fold := func(col string, cell model.Cell) {
		if !cell.Exists() || cell.Tombstone {
			return
		}
		if old, ok := merged[col]; ok {
			merged[col] = model.Merge(old, cell)
		} else {
			merged[col] = cell
		}
	}

	// Base-table state: materialized columns, plus the view-key column
	// to learn whether the row is currently deleted.
	baseCols := append(append([]string(nil), def.Materialized...), def.ViewKeyColumn)
	base, err := p.q.Get(ctx, def.Base, baseKey, baseCols)
	if err != nil {
		return err
	}
	for _, c := range def.Materialized {
		fold(c, base[c])
	}
	if vk, ok := base[def.ViewKeyColumn]; ok && vk.Exists() && vk.Tombstone {
		fold(ColDeleted, model.Cell{Value: []byte("1"), TS: vk.TS})
	}

	// Old live row state, when one exists.
	if !creating {
		cols := make([]string, 0, len(def.Materialized)+1)
		for _, c := range def.Materialized {
			cols = append(cols, model.Qualify(stored, c))
		}
		cols = append(cols, model.Qualify(stored, ColDeleted))
		qualified, err := p.q.Get(ctx, def.Name, kOld, cols)
		if err != nil {
			return err
		}
		for q, cell := range qualified {
			if _, col, ok := model.Unqualify(q); ok {
				fold(col, cell)
			}
		}
	}

	if len(merged) == 0 {
		return nil
	}
	cols := make([]string, 0, len(merged))
	for col := range merged {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	updates := make([]model.ColumnUpdate, 0, len(cols))
	for _, col := range cols {
		updates = append(updates, model.ColumnUpdate{Column: model.Qualify(stored, col), Cell: merged[col]})
	}
	return p.viewPut(ctx, def.Name, kNew, updates)
}

// walkCols are the cells every chain-walk hop reads, in one request so
// the per-replica atomicity of the writes that produced them carries
// over to the merged read: the pointer, the ready marker and the
// promotion's redo intent.
func walkCols(stored string) []string {
	return []string{model.Qualify(stored, ColNext), model.Qualify(stored, ColReady), model.Qualify(stored, ColPrev)}
}

// prefetchStarts resolves the first hop of every distinct chain start
// key among the guesses in one batched quorum read, so the chain walks
// of propagateOnce begin with their first hop — and, when one guess's
// chain leads through another guess's key, later hops too — already in
// hand. The returned map feeds walkChain's cache.
//
// The prefetch is a performance hint with the same quorum strength as
// the per-hop Gets it replaces: a row written between the batch and
// the walk is simply not seen this round, which at worst costs one
// extra retry, exactly like a Get issued at batch time would have.
// Any batch failure degrades to the unbatched walk.
func (p *Propagator) prefetchStarts(ctx context.Context, def *Def, baseKey string, guesses []model.Cell) map[string]model.Row {
	if len(guesses) < 2 {
		return nil // a single start key gains nothing over its plain Get
	}
	stored := def.storedKey(baseKey)
	cols := walkCols(stored)
	seen := make(map[string]bool, len(guesses))
	reads := make([]coord.RowRead, 0, len(guesses))
	for _, g := range guesses {
		start := nullRowKey(stored)
		if !g.IsNull() {
			start = string(g.Value)
		}
		if seen[start] {
			continue
		}
		seen[start] = true
		reads = append(reads, coord.RowRead{Row: start, Columns: cols})
	}
	if len(reads) < 2 {
		return nil
	}
	rows, err := p.q.MultiGet(ctx, def.Name, reads)
	if err != nil {
		return nil
	}
	p.stats.BatchedLookups.Add(1)
	pre := make(map[string]model.Row, len(reads))
	for i, rd := range reads {
		pre[rd.Row] = rows[i]
	}
	return pre
}

// resolveLive finds the authoritative live row of a base key, starting
// from a guessed view key. A walk is trusted only when it ends at a
// published row. An unpublished self-pointing terminus is a promotion
// that was interrupted between its create and its publish (a "ghost");
// its ColPrev names the row it was superseding (the chain anchor when
// absent), and a detour walk from there tells the two interrupted
// shapes apart:
//
//   - The detour reaches a published live row: the interrupted
//     promotion never redirected it (it may even have severed the chain
//     by re-promoting an old stale key). That row is the authority;
//     proceeding against it demotes or redoes the ghost.
//   - The detour arrives back at the ghost: the only pointer into an
//     unpublished row is its own promotion's redirect (stale inserts
//     and compression only target published rows), so the redirect was
//     issued and the copy ordered before it completed. Any propagation
//     may finish the promotion: redo the redirect at quorum, publish.
//
// Returns errKeyMissing when the starting key has no row for this base
// key — the guess's update has not propagated yet — and errUnresolved
// when a ghost is in the way.
func (p *Propagator) resolveLive(ctx context.Context, def *Def, baseKey, start string, pre map[string]model.Row) (string, int64, error) {
	t, err := p.walkChain(ctx, def, baseKey, start, pre)
	if err != nil {
		return "", 0, err
	}
	if t.published {
		return t.key, t.ts, nil
	}
	stored := def.storedKey(baseKey)
	detour := nullRowKey(stored)
	if !t.prev.IsNull() {
		detour = string(t.prev.Value)
	}
	t2, err := p.walkChain(ctx, def, baseKey, detour, pre)
	if err != nil {
		// Deliberately not errKeyMissing: view rows exist (the ghost
		// does), so a missing detour row must not license creation.
		return "", 0, fmt.Errorf("%w: %q detour via %q: %v", errUnresolved, t.key, detour, err)
	}
	if t2.published {
		return t2.key, t2.ts, nil
	}
	if t2.key != t.key {
		return "", 0, fmt.Errorf("%w: %q and %q both unpublished", errUnresolved, t.key, t2.key)
	}
	// The redirect was issued, so the copy before it completed: help the
	// interrupted promotion over the line. The redirect may have reached
	// fewer than a quorum of replicas, so it is written again at quorum
	// first — publishing the row while a quorum read of the redirected
	// row could still find that row live would let a later promotion
	// supersede it and leave two live rows.
	if err := p.viewPut(ctx, def.Name, t2.from, []model.ColumnUpdate{
		{Column: model.Qualify(stored, ColBase), Cell: model.Cell{Value: []byte(baseKey), TS: t.ts}},
		{Column: model.Qualify(stored, ColNext), Cell: model.Cell{Value: []byte(t.key), TS: t.ts}},
	}); err != nil {
		return "", 0, err
	}
	if err := p.viewPut(ctx, def.Name, t.key, []model.ColumnUpdate{
		{Column: model.Qualify(stored, ColReady), Cell: model.Cell{Value: []byte("1"), TS: t.ts}},
	}); err != nil {
		return "", 0, err
	}
	return t.key, t.ts, nil
}

// terminus is the self-pointing row a chain walk ended at.
type terminus struct {
	key       string
	ts        int64
	published bool       // ready marker at least as fresh as the pointer
	prev      model.Cell // the promotion's recorded origin (redo intent)
	from      string     // the row whose pointer led here; "" for the start row
}

// walkChain is Algorithm 3: starting from a view key, follow Next
// pointers through stale rows to the self-pointing terminus. Returns
// errKeyMissing when the starting key has no row for this base key.
//
// pre optionally carries rows prefetched by prefetchStarts; hops whose
// key is in the batch skip their quorum round trip (an empty
// prefetched row means the quorum saw no such row, which is exactly
// errKeyMissing — also no round trip).
//
// With Options.PathCompression the traversed stale rows are rewritten
// to point directly at the terminus (at its pointer's timestamp, which
// dominates every stale pointer), flattening hot chains the way
// union-find path compression does — but only when the terminus is
// published: compressing toward a ghost would splice it into real
// chains.
func (p *Propagator) walkChain(ctx context.Context, def *Def, baseKey, start string, pre map[string]model.Row) (terminus, error) {
	p.stats.LiveKeyLookups.Add(1)
	stored := def.storedKey(baseKey)
	cols := walkCols(stored)
	qNext, qReady, qPrev := cols[0], cols[1], cols[2]
	kv := start
	var visited []string
	walk := trace.FromContext(ctx).Child("chain.walk")
	if walk != nil {
		walk.SetAttr("view", def.Name)
		walk.SetAttr("start", start)
		ctx = trace.NewContext(ctx, walk)
	}
	defer func() {
		// Rows visited, counting the terminus: 1 = no stale hops.
		p.chainLen.Observe(int64(len(visited)) + 1)
		if walk != nil {
			walk.SetAttr("hops", fmt.Sprint(len(visited)))
			walk.Finish()
		}
	}()
	for hop := 0; hop < p.opts.MaxChainHops; hop++ {
		row, ok := pre[kv]
		if ok {
			// A prefetched row serves at most one hop: it is a
			// point-in-time snapshot, and re-serving it after the walk
			// came back to kv through *fresh* reads could cycle between
			// the snapshot's stale pointer and the current chain forever
			// (stale A→B cached, fresh B→A, cached A→B, ...).
			delete(pre, kv)
			p.stats.ChainHopsSaved.Add(1)
		} else {
			var err error
			row, err = p.q.Get(ctx, def.Name, kv, cols)
			if err != nil {
				return terminus{}, err
			}
		}
		next, ok := row[qNext]
		if !ok || next.IsNull() {
			return terminus{}, fmt.Errorf("%w: %q (base row %q)", errKeyMissing, kv, baseKey)
		}
		if hop > 0 {
			p.stats.ChainHops.Add(1)
		}
		if string(next.Value) != kv {
			visited = append(visited, kv)
			kv = string(next.Value)
			continue
		}
		ready, prev := model.NullCell, model.NullCell
		if c, ok := row[qReady]; ok {
			ready = c
		}
		if c, ok := row[qPrev]; ok {
			prev = c
		}
		t := terminus{key: kv, ts: next.TS, published: !ready.IsNull() && ready.TS >= next.TS, prev: prev}
		if len(visited) > 0 {
			t.from = visited[len(visited)-1]
		}
		if t.published && p.opts.PathCompression && len(visited) > 1 {
			p.compressChain(ctx, def, baseKey, visited[:len(visited)-1], kv, next.TS)
		}
		return t, nil
	}
	return terminus{}, fmt.Errorf("core: stale chain for base row %q exceeded %d hops (cycle?)", baseKey, p.opts.MaxChainHops)
}

// compressChain rewrites traversed stale pointers to address the live
// row directly. Failures are ignored: compression is a performance
// hint, never needed for correctness.
func (p *Propagator) compressChain(ctx context.Context, def *Def, baseKey string, staleKeys []string, kLive string, tLive int64) {
	qNext := model.Qualify(def.storedKey(baseKey), ColNext)
	for _, kv := range staleKeys {
		if err := p.viewPut(ctx, def.Name, kv, []model.ColumnUpdate{
			{Column: qNext, Cell: model.Cell{Value: []byte(kLive), TS: tLive}},
		}); err == nil {
			p.stats.Compressions.Add(1)
		}
	}
}
