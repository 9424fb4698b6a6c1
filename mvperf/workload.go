package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"vstore"
	"vstore/internal/clock"
)

// size scales a workload. full is the benchmark's; tests use smaller
// values so each workload runs in well under a second.
type size struct {
	// rows is the base-table row count (hot rows on skew).
	rows int
	// warmOps is how many operations each client runs before the
	// window.
	warmOps int
}

// workload is one named traffic mix: how to build its store and what a
// client does in one closed-loop step.
type workload struct {
	name string
	full size
	// setup opens and populates a store from the seed.
	setup func(ctx context.Context, seed int64, sz size) (*fixture, error)
}

var workloads = []workload{
	{name: "read-mix", full: size{rows: 50000, warmOps: 3000}, setup: setupReadMix},
	{name: "write-view", full: size{rows: 20000, warmOps: 300}, setup: setupWriteView},
	{name: "skew", full: size{rows: 16, warmOps: 2000}, setup: setupSkew},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fixture is one populated store, ready for a measured window.
type fixture struct {
	db *vstore.DB
	// step runs one closed-loop iteration of a client.
	step func(ctx context.Context, cs *clientState)
	// verify checks the store after the window's drain and returns how
	// many checks ran and which failed.
	verify func(ctx context.Context) (int, []string)
	// backfill describes the online CreateView in setup, when there was
	// one.
	backfill *backfillResult
}

// backfillResult measures a CreateView on a populated table.
type backfillResult struct {
	rows     int
	wall     time.Duration
	attempts int64 // propagation attempts, successful or not
}

// clientState is what one closed-loop client owns.
type clientState struct {
	id int
	// phase tells warm-up (0) from the window (1); fresh view keys
	// carry it so they never repeat within a store.
	phase int64
	cl    *vstore.Client
	rng   *rand.Rand
	rec   *recorder
	opts  []vstore.Option
	sink  *traceSink
	// puts counts this client's Puts on write-view; fresh view keys
	// and the 1-in-k session sampling derive from it.
	puts int
}

// wall is the benchmark's time source for every measurement.
var wall = clock.Wall

func since(t time.Time) time.Duration { return wall.Now().Sub(t) }

// numClients is the closed-loop client count of every workload.
const numClients = 2

// rowKey names base row i.
func rowKey(i int) string { return fmt.Sprintf("row%06d", i) }

// payloads returns n distinct 100-byte payloads drawn from rng.
func payloads(rng *rand.Rand, n int) []string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	out := make([]string, n)
	buf := make([]byte, 100)
	for i := range out {
		for j := range buf {
			buf[j] = letters[rng.Intn(len(letters))]
		}
		out[i] = string(buf)
	}
	return out
}

// load writes rows [0, n) with numClients parallel loaders.
func load(ctx context.Context, db *vstore.DB, table string, n int, values func(i int) vstore.Values) error {
	var wg sync.WaitGroup
	errs := make([]error, numClients)
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := db.Client(c)
			for i := c; i < n; i += numClients {
				if err := cl.Put(ctx, table, rowKey(i), values(i)); err != nil {
					errs[c] = fmt.Errorf("load %s: %w", rowKey(i), err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkViewRow requires rows to be exactly one view row for baseKey,
// carrying payload when payload is non-empty.
func checkViewRow(rows []vstore.ViewRow, baseKey, payload string) error {
	if len(rows) != 1 {
		return fmt.Errorf("view read for %s returned %d rows, want 1", baseKey, len(rows))
	}
	if rows[0].BaseKey != baseKey {
		return fmt.Errorf("view read returned base row %s, want %s", rows[0].BaseKey, baseKey)
	}
	if payload != "" && string(rows[0].Columns["payload"].Value) != payload {
		return fmt.Errorf("view row %s carries the wrong payload", baseKey)
	}
	return nil
}

// readMix: a populated table with a unique secondary key, read through
// the base table, a materialized view and a native index.
//
// FlushBytes is set so that each node's base, view and index stores
// span several sstable runs: per node the base table holds about
// 37,500 rows of ~130 bytes (~5 MB), so at 256 KiB per memtable it is
// flushed about twenty times and compacted along the way.
const readMixFlushBytes = 256 << 10

func setupReadMix(ctx context.Context, seed int64, sz size) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	n := sz.rows
	pay := payloads(rng, n)
	sks := make([]string, n)
	for i, p := range rng.Perm(n) {
		sks[i] = fmt.Sprintf("sk%07d", p)
	}
	db, err := vstore.Open(vstore.Config{Seed: seed, Storage: vstore.StorageOptions{FlushBytes: readMixFlushBytes}})
	if err != nil {
		return nil, err
	}
	fx, err := func() (*fixture, error) {
		if err := db.CreateTable("item"); err != nil {
			return nil, err
		}
		if err := load(ctx, db, "item", n, func(i int) vstore.Values {
			return vstore.Values{"sk": sks[i], "payload": pay[i]}
		}); err != nil {
			return nil, err
		}
		if err := db.CreateIndex("item", "sk"); err != nil {
			return nil, err
		}
		before := db.Stats()
		start := wall.Now()
		if err := db.CreateView(vstore.ViewDef{Name: "by_sk", Base: "item", ViewKey: "sk", Materialized: []string{"payload"}}); err != nil {
			return nil, err
		}
		bf := &backfillResult{rows: n, wall: since(start)}
		d := db.Stats().Delta(before)
		bf.attempts = d.Views.Propagations + d.Views.PropagationFailures
		return &fixture{db: db, backfill: bf}, nil
	}()
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("read-mix setup: %w", err)
	}
	fx.step = func(ctx context.Context, cs *clientState) {
		i := cs.rng.Intn(n)
		key := rowKey(i)
		switch r := cs.rng.Intn(100); {
		case r < 45:
			start := wall.Now()
			rows, err := cs.cl.GetView(ctx, "by_sk", sks[i], cs.opts...)
			d := since(start)
			if err == nil {
				err = checkViewRow(rows, key, pay[i])
			}
			cs.observe(classViewRead, d, err)
		case r < 90:
			start := wall.Now()
			row, err := cs.cl.Get(ctx, "item", key, append(cs.opts, vstore.WithColumns("sk", "payload"))...)
			d := since(start)
			if err == nil && (len(row) != 2 || string(row["sk"].Value) != sks[i] || string(row["payload"].Value) != pay[i]) {
				err = fmt.Errorf("get %s returned a wrong row", key)
			}
			cs.observe(classGet, d, err)
		default:
			start := wall.Now()
			rows, err := cs.cl.QueryIndex(ctx, "item", "sk", sks[i], append(cs.opts, vstore.WithColumns("payload"))...)
			d := since(start)
			if err == nil && (len(rows) != 1 || rows[0].Key != key || string(rows[0].Columns["payload"].Value) != pay[i]) {
				err = fmt.Errorf("index query for %s returned %d rows or a wrong row", key, len(rows))
			}
			cs.observe(classIndexRead, d, err)
		}
	}
	// Every read is checked as it returns; nothing changes afterwards.
	fx.verify = func(context.Context) (int, []string) { return 0, nil }
	return fx, nil
}

// writeView: a durable store with an index and a materialized view on
// the column every Put moves. Each client owns the rows i with
// i%numClients == id; one Put in sessionEvery runs in a Definition-4
// session and is followed by a GetView of its new key.
const sessionEvery = 8

func setupWriteView(ctx context.Context, seed int64, sz size) (*fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	n := sz.rows
	pay := payloads(rng, n)
	// cur[i] is row i's newest view key; only its owner writes it.
	cur := make([]string, n)
	for i, p := range rng.Perm(n) {
		cur[i] = fmt.Sprintf("v%07d", p)
	}
	touched := make([]bool, n)
	db, err := vstore.Open(vstore.Config{
		Seed:       seed,
		Backend:    vstore.MemBackend(),
		Durability: vstore.DurabilityOptions{Fsync: vstore.FsyncAlways},
	})
	if err != nil {
		return nil, err
	}
	err = func() error {
		if err := db.CreateTable("acct"); err != nil {
			return err
		}
		if err := db.CreateIndex("acct", "vk"); err != nil {
			return err
		}
		if err := db.CreateView(vstore.ViewDef{Name: "by_vk", Base: "acct", ViewKey: "vk", Materialized: []string{"payload"}}); err != nil {
			return err
		}
		if err := load(ctx, db, "acct", n, func(i int) vstore.Values {
			return vstore.Values{"vk": cur[i], "payload": pay[i]}
		}); err != nil {
			return err
		}
		return db.QuiesceViews(ctx)
	}()
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("write-view setup: %w", err)
	}
	fx := &fixture{db: db}
	fx.step = func(ctx context.Context, cs *clientState) {
		i := cs.rng.Intn((n-cs.id+numClients-1)/numClients)*numClients + cs.id
		key := rowKey(i)
		cs.puts++
		vk := fmt.Sprintf("w%d.%d.%d", cs.phase, cs.id, cs.puts)
		cl := cs.cl
		session := cs.puts%sessionEvery == 0
		if session {
			cl = cs.cl.Session()
			defer cl.EndSession()
		}
		start := wall.Now()
		err := cl.Put(ctx, "acct", key, vstore.Values{"vk": vk}, cs.opts...)
		acked := wall.Now()
		cs.observe(classPut, acked.Sub(start), err)
		if err != nil {
			return
		}
		cur[i], touched[i] = vk, true
		if !session {
			return
		}
		start = wall.Now()
		rows, err := cl.GetView(ctx, "by_vk", vk, cs.opts...)
		end := wall.Now()
		if err == nil {
			err = checkViewRow(rows, key, pay[i])
		}
		cs.observe(classViewRead, end.Sub(start), err)
		if err == nil {
			cs.rec.lat[classVisible] = append(cs.rec.lat[classVisible], end.Sub(acked))
		}
	}
	fx.verify = func(ctx context.Context) (int, []string) {
		cl := db.Client(0)
		checked := 0
		var bad []string
		for i := range cur {
			if !touched[i] {
				continue
			}
			checked++
			rows, err := cl.GetView(ctx, "by_vk", cur[i])
			if err == nil {
				err = checkViewRow(rows, rowKey(i), pay[i])
			}
			if err != nil {
				bad = append(bad, "after drain: "+err.Error())
			}
		}
		return checked, bad
	}
	return fx, nil
}

// skew: Fig 8's narrow range. Both clients move the view keys of a few
// hot rows, so propagations of one row race for its lock and chain.
// Each row's key moves among skewKeys values, so every view key is
// reused and revived from its stale row. With a fresh key per Put the
// view and the heap grow with throughput, and at 16 rows propagation
// collapses to an unsteady ~1k Puts/s.
const skewKeys = 8

// skewKey is hot row i's k-th view key.
func skewKey(i, k int) string { return fmt.Sprintf("h%d.%d", i, k) }

func setupSkew(ctx context.Context, seed int64, sz size) (*fixture, error) {
	n := sz.rows
	db, err := vstore.Open(vstore.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	err = func() error {
		if err := db.CreateTable("hot"); err != nil {
			return err
		}
		if err := db.CreateView(vstore.ViewDef{Name: "by_vk", Base: "hot", ViewKey: "vk"}); err != nil {
			return err
		}
		if err := load(ctx, db, "hot", n, func(i int) vstore.Values {
			return vstore.Values{"vk": skewKey(i, 0)}
		}); err != nil {
			return err
		}
		return db.QuiesceViews(ctx)
	}()
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("skew setup: %w", err)
	}
	fx := &fixture{db: db}
	fx.step = func(ctx context.Context, cs *clientState) {
		i := cs.rng.Intn(n)
		vk := skewKey(i, cs.rng.Intn(skewKeys))
		start := wall.Now()
		err := cs.cl.Put(ctx, "hot", rowKey(i), vstore.Values{"vk": vk}, cs.opts...)
		cs.observe(classPut, since(start), err)
	}
	// Both clients write every hot row, so the newest view key is
	// whatever the base row holds once propagation drained. That key
	// must return exactly the row, and the row's other keys nothing.
	fx.verify = func(ctx context.Context) (int, []string) {
		cl := db.Client(0)
		checked := 0
		var bad []string
		for i := 0; i < n; i++ {
			key := rowKey(i)
			row, err := cl.Get(ctx, "hot", key, vstore.WithColumns("vk"))
			checked++
			if err != nil {
				bad = append(bad, "after drain: "+err.Error())
				continue
			}
			for k := 0; k < skewKeys; k++ {
				vk := skewKey(i, k)
				rows, err := cl.GetView(ctx, "by_vk", vk)
				checked++
				switch {
				case err != nil:
				case vk == string(row["vk"].Value):
					err = checkViewRow(rows, key, "")
				case len(rows) != 0:
					err = fmt.Errorf("stale view key %s of %s returned %d rows, want 0", vk, key, len(rows))
				}
				if err != nil {
					bad = append(bad, "after drain: "+err.Error())
				}
			}
		}
		return checked, bad
	}
	return fx, nil
}

// observe records one call and tells the trace sink about it.
func (cs *clientState) observe(c opClass, d time.Duration, err error) {
	cs.rec.observe(c, d, err)
	cs.sink.called()
}
