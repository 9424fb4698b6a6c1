package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"vstore/internal/coord"
	"vstore/internal/model"
)

// This file provides the operational maintenance the paper leaves
// open: versioned views accumulate one stale row per superseded view
// key forever ("update chains can grow longer"), and abandoned
// propagations (coordinator crash, retry timeout) can leave a view
// permanently missing updates. Prune truncates old stale rows; Rebuild
// re-derives the view from the base table.

// Prune removes stale rows whose pointer timestamp is older than
// horizonTS from a versioned view, shortening chains that hot rows
// accumulated. entries is the view table's merged storage (all
// replicas).
//
// Safety contract: a stale row is only needed by propagations whose
// pre-read returned its key — i.e. propagations of updates concurrent
// with or older than the row's supersession. The caller must therefore
// choose horizonTS such that no propagation of an update older than
// horizonTS can still be in flight (for example: now minus several
// MaxPropagationRetry periods, with views quiesced). A propagation that
// does race a prune merely fails its guess and retries with a newer
// one, so correctness degrades to extra retries, not corruption; but a
// propagation whose *every* guess was pruned is abandoned.
//
// Live rows, rows still initializing, and chain anchors of base rows
// whose live row is younger than the horizon are never pruned.
func Prune(ctx context.Context, co *coord.Coordinator, def *Def, entries []model.Entry, horizonTS int64, w int) (removed int, err error) {
	rows, err := DecodeVersionedView(entries)
	if err != nil {
		return 0, err
	}
	for _, r := range rows {
		if r.Next.IsNull() || string(r.Next.Value) == r.ViewKey {
			continue // unlinked or live
		}
		if r.Next.TS >= horizonTS {
			continue // superseded too recently
		}
		// Tombstone every cell of this base row's entry in the stale
		// view row, at the pointer's own timestamp: the tombstone wins
		// the timestamp tie against the stored cells (deterministic
		// tie-break), while any *newer* legitimate write of this view
		// key still beats the tombstone.
		updates := []model.ColumnUpdate{
			model.Deletion(model.Qualify(r.BaseKey, ColNext), r.Next.TS),
			model.Deletion(model.Qualify(r.BaseKey, ColBase), r.Next.TS),
		}
		for col, cell := range r.Cells {
			updates = append(updates, model.Deletion(model.Qualify(r.BaseKey, col), maxTS(cell.TS, r.Next.TS)))
		}
		if r.Deleted.Exists() {
			updates = append(updates, model.Deletion(model.Qualify(r.BaseKey, ColDeleted), maxTS(r.Deleted.TS, r.Next.TS)))
		}
		if r.Ready.Exists() {
			updates = append(updates, model.Deletion(model.Qualify(r.BaseKey, ColReady), maxTS(r.Ready.TS, r.Next.TS)))
		}
		if r.Prev.Exists() {
			updates = append(updates, model.Deletion(model.Qualify(r.BaseKey, ColPrev), maxTS(r.Prev.TS, r.Next.TS)))
		}
		if err := co.Put(ctx, def.Name, r.ViewKey, updates, w); err != nil {
			return removed, fmt.Errorf("core: pruning %q/%q: %w", r.ViewKey, r.BaseKey, err)
		}
		removed++
	}
	return removed, nil
}

func maxTS(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Rebuild re-derives a view from the merged current base-table state:
// it re-writes every row the view should contain and
// marks rows for base keys whose view structure points at a different
// live key than the base table implies. Because every write carries
// the base cells' timestamps, rebuilding never regresses data that is
// newer than the base state used — it only fills in what propagation
// lost (e.g. after abandoned propagations or an operator-restored base
// table).
//
// For base rows whose current view key is NULL (deleted), the live row
// cannot be located without scanning the view, so the caller should
// pass the view's merged entries; rows whose base key no longer has a
// view key get their deletion marker refreshed.
func Rebuild(ctx context.Context, co *coord.Coordinator, def *Def, baseRows map[string]model.Row, viewEntries []model.Entry, w int) error {
	// First, the straightforward part: ensure every row that should be
	// in the view is present and live (idempotent).
	if err := writeLiveRows(ctx, co, def, baseRows, w); err != nil {
		return err
	}

	// Second, reconcile structure: any view row that is live for a base
	// key whose base-table view key differs must be superseded, exactly
	// as a propagation of the winning update would have done.
	rows, err := DecodeVersionedView(viewEntries)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r.Next.IsNull() || string(r.Next.Value) != r.ViewKey {
			continue // not live
		}
		ns, baseKey := SplitStoredKey(r.BaseKey)
		if ns != def.namespace {
			continue // another join side's row
		}
		base, ok := baseRows[baseKey]
		if !ok {
			continue
		}
		vk := base[def.ViewKeyColumn]
		switch {
		case vk.Exists() && !vk.Tombstone && string(vk.Value) != r.ViewKey && vk.TS >= r.Next.TS:
			// Base says the live key moved: point this row at the
			// winner (writeLiveRows above already wrote the winner's row).
			err := co.Put(ctx, def.Name, r.ViewKey, []model.ColumnUpdate{
				{Column: model.Qualify(r.BaseKey, ColNext), Cell: model.Cell{Value: vk.Value, TS: vk.TS}},
			}, w) // r.BaseKey is the stored key, already namespaced
			if err != nil {
				return fmt.Errorf("core: rebuild supersede %q/%q: %w", r.ViewKey, r.BaseKey, err)
			}
		case vk.Exists() && vk.Tombstone && vk.TS >= r.Next.TS:
			// Base says the row was deleted: refresh the marker.
			err := co.Put(ctx, def.Name, r.ViewKey, []model.ColumnUpdate{
				{Column: model.Qualify(r.BaseKey, ColDeleted), Cell: model.Cell{Value: []byte("1"), TS: vk.TS}},
			}, w)
			if err != nil {
				return fmt.Errorf("core: rebuild delete-mark %q/%q: %w", r.ViewKey, r.BaseKey, err)
			}
		}
	}
	return nil
}

// Diagnostics summarizes a versioned view's internal health: how much
// versioning structure has accumulated and how long the stale chains
// are — the numbers an operator watches to schedule Prune.
type Diagnostics struct {
	// LiveRows counts current (self-pointing) rows, including rows
	// marked deleted.
	LiveRows int
	// StaleRows counts superseded rows (chain anchors included).
	StaleRows int
	// DeletedRows counts live rows suppressed by a deletion marker.
	DeletedRows int
	// MaxChainLength is the longest pointer chain from any stale row
	// to its live row.
	MaxChainLength int
	// TotalChainHops sums the chain lengths over all stale rows; the
	// mean chain length is TotalChainHops/StaleRows.
	TotalChainHops int
	// OldestStaleTS is the smallest supersession timestamp among stale
	// rows (a Prune horizon above it reclaims something); NullTS when
	// there are no stale rows.
	OldestStaleTS int64
}

// Diagnose computes Diagnostics from a view table's merged storage.
func Diagnose(entries []model.Entry) (Diagnostics, error) {
	rows, err := DecodeVersionedView(entries)
	if err != nil {
		return Diagnostics{}, err
	}
	d := Diagnostics{OldestStaleTS: model.NullTS}
	// Group per base key to walk chains.
	chains := map[string]map[string]VersionedRow{}
	for _, r := range rows {
		if r.Next.IsNull() {
			continue
		}
		if chains[r.BaseKey] == nil {
			chains[r.BaseKey] = map[string]VersionedRow{}
		}
		chains[r.BaseKey][r.ViewKey] = r
	}
	for _, chain := range chains {
		for vk, r := range chain {
			if string(r.Next.Value) == vk {
				d.LiveRows++
				if r.Deleted.Exists() && !r.Deleted.Tombstone && r.Deleted.TS >= r.Next.TS {
					d.DeletedRows++
				}
				continue
			}
			d.StaleRows++
			if d.OldestStaleTS == model.NullTS || r.Next.TS < d.OldestStaleTS {
				d.OldestStaleTS = r.Next.TS
			}
			// Walk to the live row, bounded by the chain size.
			hops, cur := 0, vk
			for limit := len(chain) + 1; limit > 0; limit-- {
				row, ok := chain[cur]
				if !ok {
					break // dangling (mid-propagation); count what we walked
				}
				next := string(row.Next.Value)
				if next == cur {
					break
				}
				hops++
				cur = next
			}
			d.TotalChainHops += hops
			if hops > d.MaxChainLength {
				d.MaxChainLength = hops
			}
		}
	}
	return d, nil
}

// writeLiveRows writes, for every base row, the view row its current
// state implies (the paper's V̂0, which "contains no stale rows"):
// live and ready, plus its chain anchor, so that subsequent update
// propagation finds the rows no matter which pre-image versions it
// collected. baseRows is the merged base-table content, base key →
// cells. Rows are written with bounded parallelism; the first error
// aborts the fill.
func writeLiveRows(ctx context.Context, co *coord.Coordinator, def *Def, baseRows map[string]model.Row, w int) error {
	const parallelism = 128
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for baseKey, row := range baseRows {
		if firstErr.Load() != nil {
			break
		}
		baseKey, row := baseKey, row
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if err := writeLiveRow(ctx, co, def, baseKey, row, w); err != nil {
				firstErr.CompareAndSwap(nil, err)
			}
		}()
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	return nil
}

// writeLiveRow writes the live view row and chain anchor of one base
// row.
func writeLiveRow(ctx context.Context, co *coord.Coordinator, def *Def, baseKey string, row model.Row, w int) error {
	vk, ok := row[def.ViewKeyColumn]
	if !ok || vk.IsNull() {
		return nil
	}
	viewKey := string(vk.Value)
	ts := vk.TS
	stored := def.storedKey(baseKey)
	updates := []model.ColumnUpdate{
		{Column: model.Qualify(stored, ColBase), Cell: model.Cell{Value: []byte(baseKey), TS: ts}},
		{Column: model.Qualify(stored, ColNext), Cell: model.Cell{Value: []byte(viewKey), TS: ts}},
		{Column: model.Qualify(stored, ColReady), Cell: model.Cell{Value: []byte("1"), TS: ts}},
	}
	if def.Selects(viewKey) {
		for _, c := range def.Materialized {
			if cell, ok := row[c]; ok && cell.Exists() {
				// Dots stay on base cells; view copies are derived state,
				// not causal events (see Propagator.viewPut).
				cell.StripDot()
				updates = append(updates, model.ColumnUpdate{Column: model.Qualify(stored, c), Cell: cell})
			}
		}
	}
	if err := co.Put(ctx, def.Name, viewKey, updates, w); err != nil {
		return fmt.Errorf("core: rebuild of %q row %q: %w", def.Name, baseKey, err)
	}
	// Chain anchor, so creations racing with rebuilt rows still
	// resolve (see nullRowKey).
	anchor := []model.ColumnUpdate{
		{Column: model.Qualify(stored, ColBase), Cell: model.Cell{Value: []byte(baseKey), TS: ts}},
		{Column: model.Qualify(stored, ColNext), Cell: model.Cell{Value: []byte(viewKey), TS: ts}},
	}
	if err := co.Put(ctx, def.Name, nullRowKey(stored), anchor, w); err != nil {
		return fmt.Errorf("core: rebuild anchor of %q row %q: %w", def.Name, baseKey, err)
	}
	return nil
}

// MergeBaseSnapshots folds per-node storage snapshots of a base table
// into the base key → cells map Rebuild consumes. Entries are
// LWW-merged, so feeding every replica's snapshot yields the freshest
// cluster-wide state.
func MergeBaseSnapshots(snapshots ...[]model.Entry) (map[string]model.Row, error) {
	out := map[string]model.Row{}
	for _, snap := range snapshots {
		for _, e := range snap {
			baseKey, col, err := model.DecodeKey(e.Key)
			if err != nil {
				return nil, fmt.Errorf("core: bad base entry: %w", err)
			}
			row := out[baseKey]
			if row == nil {
				row = model.Row{}
				out[baseKey] = row
			}
			if old, ok := row[col]; ok {
				row[col] = model.Merge(old, e.Cell)
			} else {
				row[col] = e.Cell
			}
		}
	}
	return out, nil
}
