package sim

import (
	"fmt"
	"time"

	"vstore/internal/antientropy"
	"vstore/internal/core"
	"vstore/internal/dvv"
	"vstore/internal/lsm"
	"vstore/internal/metrics"
	"vstore/internal/model"
	"vstore/internal/node"
	"vstore/internal/physical"
	"vstore/internal/physical/faulty"
	physfs "vstore/internal/physical/fs"
	"vstore/internal/ring"
	"vstore/internal/transport"
	"vstore/internal/wal"
)

// The simulated workload: one base table with a view-key column and one
// materialized column, one materialized view over it.
const (
	baseTable = "base"
	viewTable = "byview"
	vkCol     = "vk"
	matCol    = "val"
)

// Config parameterizes one simulation run. Everything the run does —
// workload, latencies, drops, crashes, partitions — derives from Seed.
type Config struct {
	Seed int64

	// Cluster shape.
	Nodes int // default 4 (the paper's testbed)
	N     int // replication factor, default 3

	// Workload shape. Few base rows and view keys concentrate updates
	// so stale chains, timestamp ties and concurrent propagations occur.
	BaseRows     int // default 8
	ViewKeys     int // default 6
	Clients      int // default 4
	OpsPerClient int // default 30

	// Duration is the virtual-time window for client activity and
	// fault injection; all faults heal at Duration and the run then
	// drains to quiescence. Default 2s.
	Duration time.Duration

	// Network.
	Latency   time.Duration // default 2ms
	Jitter    time.Duration // default 1ms
	DropProb  float64       // default 0.02
	DropDelay time.Duration // default 10ms

	// Faults, all within [0, Duration).
	Crashes      int           // node crash/recover cycles, default 6
	MaxCrash     time.Duration // max crash length, default 150ms
	Partitions   int           // pairwise partitions, default 4
	MaxPartition time.Duration // max partition length, default 200ms

	// Backend, when non-nil, makes every node durable: WAL segments,
	// sstable runs and a MANIFEST under the backend's node-<i>
	// namespace, synced on every append (SyncAlways — no background
	// tickers, so runs stay deterministic). Durability is what gives
	// the CrashRestart fault something to recover from. Dir is sugar
	// for a filesystem backend rooted at Dir; Backend wins if both are
	// set (an in-memory backend keeps durable runs hermetic).
	Backend physical.Backend
	Dir     string
	// StorageFaultProb, when positive in durable mode, wraps each
	// node's storage in physical/faulty: appends, fsyncs, atomic
	// MANIFEST rewrites and removes fail with this per-operation
	// probability on a schedule derived from Seed. Injected faults
	// surface as unacknowledged writes and ride the client retry loop;
	// injection is disabled during crash-restart recovery (recovery
	// itself must be clean — the faults it digests were injected
	// before the crash) and from the heal point on, so the drain
	// converges.
	StorageFaultProb float64
	// CrashRestarts is the number of crash-restart faults injected
	// over [0, Duration) when Dir is set. Unlike Crashes (the node is
	// unreachable but keeps its state), a crash-restart discards the
	// node's entire volatile state — memtables, in-flight propagation
	// threads — and rebuilds it from disk; propagation intents that
	// were logged but unfinished are re-enqueued. Faults round-robin
	// over nodes, so CrashRestarts >= Nodes restarts every node at
	// least once. Default Nodes when Dir is set; negative disables.
	CrashRestarts int
	// FlushBytes is the durable nodes' memtable flush threshold. The
	// default (512 bytes when Dir is set) is deliberately tiny so
	// crash-restarts land on every phase of the LSM lifecycle: runs on
	// disk, WAL tails, truncated segments.
	FlushBytes int64

	// MaxPropDelay is the maximum random delay before an asynchronous
	// propagation starts (a busy maintenance queue). Delayed, reordered
	// propagations are what grow stale chains. Default 60ms.
	MaxPropDelay time.Duration

	// PathCompression flattens stale chains during GetLiveKey.
	PathCompression bool

	// CheckEvery runs the continuous invariants every so many events
	// (<=1 = every event).
	CheckEvery int

	// AntiEntropyEvery schedules synchronous anti-entropy rounds during
	// the run; 0 disables (three rounds always run after the drain).
	AntiEntropyEvery time.Duration

	// InjectCycleAt, when positive, corrupts the view at that virtual
	// time with a two-row pointer cycle — a planted fault that the
	// acyclicity invariant must catch deterministically.
	InjectCycleAt time.Duration

	// MaxChainHops bounds GetLiveKey traversals. Default 64.
	MaxChainHops int

	// CreateViewAt, when positive, defines a second materialized view
	// ("bf", same shape as byview) at that virtual time — while clients
	// are writing — and backfills it online: one scan proc per node
	// walks the node's base-table rows and routes each through the
	// regular propagation machinery, racing live updates. In durable
	// mode the scans checkpoint their cursors through the node backends
	// and crash-restarts resume from the checkpoint. The final oracle
	// then requires the backfilled view to be cell-identical to the
	// from-birth view.
	CreateViewAt time.Duration
	// DropViewAt, when positive (> CreateViewAt), drops the backfilled
	// view mid-run: in-flight propagations targeting it abort, its
	// table is wiped on every node, its checkpoints are cleared.
	DropViewAt time.Duration
	// RecreateViewAt, when positive (> DropViewAt), re-creates the
	// dropped view as a fresh generation that backfills from scratch.
	RecreateViewAt time.Duration
	// SkewedWrites concentrates ~70% of client writes onto two base
	// rows, so view drop/re-create and backfill race a hot-key load.
	SkewedWrites bool
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.N <= 0 {
		c.N = 3
	}
	if c.N > c.Nodes {
		c.N = c.Nodes
	}
	if c.BaseRows <= 0 {
		c.BaseRows = 8
	}
	if c.ViewKeys <= 0 {
		c.ViewKeys = 6
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.OpsPerClient <= 0 {
		c.OpsPerClient = 30
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Latency == 0 {
		c.Latency = 2 * time.Millisecond
	}
	if c.Jitter == 0 {
		c.Jitter = time.Millisecond
	}
	if c.DropProb == 0 {
		c.DropProb = 0.02
	}
	if c.DropDelay == 0 {
		c.DropDelay = 10 * time.Millisecond
	}
	if c.Crashes == 0 {
		c.Crashes = 6
	}
	if c.MaxCrash <= 0 {
		c.MaxCrash = 150 * time.Millisecond
	}
	if c.Partitions == 0 {
		c.Partitions = 4
	}
	if c.Dir != "" || c.Backend != nil {
		if c.CrashRestarts == 0 {
			c.CrashRestarts = c.Nodes
		}
		if c.FlushBytes <= 0 {
			c.FlushBytes = 512
		}
	}
	if c.MaxPartition <= 0 {
		c.MaxPartition = 200 * time.Millisecond
	}
	if c.MaxPropDelay == 0 {
		c.MaxPropDelay = 60 * time.Millisecond
	}
	if c.CheckEvery < 1 {
		c.CheckEvery = 1
	}
	if c.AntiEntropyEvery == 0 {
		c.AntiEntropyEvery = 250 * time.Millisecond
	}
	if c.MaxChainHops <= 0 {
		c.MaxChainHops = 64
	}
	return c
}

// Report is the outcome of one simulation run.
type Report struct {
	Seed      int64
	Events    int
	TraceHash string
	Trace     *Trace
	// Err is the first invariant violation or final-oracle mismatch;
	// nil for a clean run. The message embeds the seed and a replay
	// command. Invariant names the first violated invariant ("final-oracle"
	// for end-of-run mismatches, empty on success) and FailedAt is the
	// virtual time of the violation.
	Err       error
	Invariant string
	FailedAt  time.Duration

	Acked              int // acknowledged client writes
	Propagations       int // completed update propagations
	PropagationRetries int // failed PropagateUpdate attempts (core.Stats.FailedAttempts)
	ChainHops          int // stale rows traversed by GetLiveKey
	Compressions       int // stale pointers rewritten by path compression
	FinalViewRows      int // application-visible view rows at the end
	CrashRestarts      int // nodes killed and recovered from disk
	IntentsReenqueued  int // pending propagation intents replayed at restarts
	ConcurrentWrites   int // replica-observed causally concurrent sibling pairs (DVV)

	// Online-backfill scenario counters (CreateViewAt > 0).
	BackfillRowsScanned int  // base rows visited by backfill scans
	BackfillFills       int  // backfill propagations run to completion
	BackfillResumes     int  // scans restarted after a crash-restart
	ViewDrops           int  // backfilled-view generations dropped
	BackfillLive        bool // the final generation finished its scan

	// PropLag is the distribution of enqueue→applied propagation lag
	// in virtual-time microseconds — the same staleness gauge DB.Stats
	// exposes, here measured against the deterministic clock. ChainLen
	// is the per-walk chain length (rows touched, 1 = no stale hops).
	PropLag  metrics.HistSnapshot
	ChainLen metrics.HistSnapshot
}

// ReplayCommand returns how to reproduce a run of the given seed.
func ReplayCommand(seed int64) string {
	return fmt.Sprintf("MV_SEED=%d go test -run TestSimReplay ./internal/sim  (or: go run ./cmd/mvverify -sim -seed %d)", seed, seed)
}

// versionSet collects the distinct pre-image view-key versions observed
// by a write's replica responses — the propagation's guess pool.
type versionSet struct {
	cells    model.VersionSet
	complete bool // all N replicas reported
}

// world is the mutable state of one simulation run. It is only touched
// from the scheduler's thread of control, so it needs no locks.
type world struct {
	cfg       Config
	s         *Scheduler
	fab       *Fabric
	ring      *ring.Ring
	nodes     []*node.Node
	agents    []*antientropy.Agent
	def       *core.Def
	placement func(table, row string) []transport.NodeID

	// Durable mode: each node's storage root, and a per-node restart
	// epoch — a propagation thread belongs to the epoch of the
	// coordinator that started it and dies (aborts) when the epoch
	// moves on, exactly like a real thread dying with its process.
	durable  bool
	walOpts  wal.Options
	backends []physical.Backend // per-node namespace, fault wrapper included
	faults   []*faulty.Backend  // nil entries when injection is off
	storages []*wal.Storage
	epochs   []int

	locks      map[string]*simLock // per-base-key propagation serialization
	pendingOps map[string]int      // base key → un-acked client writes
	inflight   map[string]int      // base key → running propagations
	acked      []core.BaseUpdate   // every acknowledged base update, in ack order

	// dotSeqs is each coordinator's dotted-version-vector write counter.
	// It lives at world level, outside the crashable node state, because
	// dot uniqueness must survive restarts — the real stack re-derives
	// the same high-water mark by scanning durable state at recovery.
	dotSeqs []uint64

	// propPending mirrors what DB.Stats' staleness gauge tracks: one
	// entry per in-flight propagation, keyed by an id, holding the
	// virtual enqueue time. The staleness-pending-consistent invariant
	// ties it to inflight; propLag/chainLen feed the Report.
	propPending map[uint64]time.Duration
	nextPropID  uint64
	propLag     metrics.AtomicHist
	chainLen    metrics.AtomicHist
	// stats counts the shared propagation code's activity; the Report's
	// chain-hop, compression and retry counters come from it.
	stats core.Stats

	// Online-backfill scenario state (CreateViewAt > 0). bfGen counts
	// view generations — a drop + re-create is a new generation with a
	// fresh table name, so writes from the dropped generation's
	// in-flight propagations land in an abandoned table instead of
	// corrupting the new one (table-incarnation semantics). bfDef is
	// nil until the first activation.
	bfDef    *core.Def
	bfGen    int
	bfActive bool
	bfLive   bool
	bfDone   map[transport.NodeID]bool // current generation's finished scans

	report *Report
}

// Run executes one simulation and returns its report. The run is a
// pure function of cfg (in particular cfg.Seed): same config, same
// trace, byte for byte.
func Run(cfg Config) *Report {
	cfg = cfg.withDefaults()
	s := NewScheduler(cfg.Seed, cfg.CheckEvery)
	w := &world{
		cfg:         cfg,
		s:           s,
		fab:         NewFabric(s, FabricOptions{Latency: cfg.Latency, Jitter: cfg.Jitter, DropProb: cfg.DropProb, DropDelay: cfg.DropDelay}),
		locks:       map[string]*simLock{},
		pendingOps:  map[string]int{},
		inflight:    map[string]int{},
		propPending: map[uint64]time.Duration{},
		dotSeqs:     make([]uint64, cfg.Nodes),
		report:      &Report{Seed: cfg.Seed},
	}

	ids := make([]transport.NodeID, cfg.Nodes)
	for i := range ids {
		ids[i] = transport.NodeID(i)
	}
	w.ring = ring.New(ids, 16)
	w.placement = func(table, row string) []transport.NodeID {
		return w.ring.ReplicasFor(table+"\x00"+row, cfg.N)
	}
	w.durable = cfg.Dir != "" || cfg.Backend != nil
	var root physical.Backend
	if w.durable {
		// SyncAlways: every append is durable when it returns and no
		// background sync ticker runs, keeping the run deterministic.
		// Small segments force rotation and intent-log checkpoints.
		w.walOpts = wal.Options{Policy: wal.SyncAlways, SegmentBytes: 8 << 10}
		root = cfg.Backend
		if root == nil {
			root = physfs.New(cfg.Dir)
		}
	}
	for _, id := range ids {
		var storage *wal.Storage
		if w.durable {
			nb := physical.Sub(root, fmt.Sprintf("node-%d", id))
			var fb *faulty.Backend
			if cfg.StorageFaultProb > 0 {
				p := cfg.StorageFaultProb
				fb = faulty.New(nb, faulty.Options{
					Seed:       cfg.Seed + 7919*int64(id),
					AppendFail: p, SyncFail: p, CreateFail: p, AtomicFail: p, RemoveFail: p,
				})
				nb = fb
				// Storage must open cleanly before the run begins; the
				// schedule only bites once clients are writing.
				fb.SetEnabled(false)
			}
			w.backends = append(w.backends, nb)
			w.faults = append(w.faults, fb)
			var err error
			storage, err = wal.OpenStorage(nb, w.walOpts)
			if err != nil {
				w.report.Err = fmt.Errorf("sim: open storage for node %d: %w", id, err)
				w.report.Trace = s.Trace()
				return w.report
			}
			if fb != nil {
				fb.SetEnabled(true)
			}
		} else {
			w.backends = append(w.backends, nil)
			w.faults = append(w.faults, nil)
		}
		n := node.New(node.Options{ID: id, LSM: w.lsmOptions(id), Durable: storage})
		if storage != nil {
			if _, _, err := n.Recover(); err != nil {
				w.report.Err = fmt.Errorf("sim: recover node %d: %w", id, err)
				w.report.Trace = s.Trace()
				return w.report
			}
		}
		n.SetPlacement(w.placement)
		w.fab.Register(id, n)
		w.nodes = append(w.nodes, n)
		w.storages = append(w.storages, storage)
		w.epochs = append(w.epochs, 0)
		w.agents = append(w.agents, w.newAgent(n))
	}
	w.def = &core.Def{Name: viewTable, Base: baseTable, ViewKeyColumn: vkCol, Materialized: []string{matCol}}

	// Continuous invariants, checked inside the scheduler loop. Order
	// matters: structural acyclicity first, then the per-key quiescent
	// oracle (exactly-one-live, chain termination, read-your-writes).
	s.AddInvariant("acyclic-stale-chains", w.checkAcyclic)
	s.AddInvariant("quiescent-row-oracle", w.checkQuiescentRows)
	s.AddInvariant("staleness-pending-consistent", w.checkPendingGauge)

	for c := 0; c < cfg.Clients; c++ {
		c := c
		s.Go(time.Duration(c)*time.Millisecond, fmt.Sprintf("client-%d", c), func(p *Proc) { w.runClient(p, c) })
	}
	w.scheduleChaos()
	if cfg.AntiEntropyEvery > 0 {
		round := 0
		for at := cfg.AntiEntropyEvery; at < cfg.Duration; at += cfg.AntiEntropyEvery {
			round++
			s.Schedule(at, "antientropy", fmt.Sprintf("round %d", round), w.antiEntropyRound)
		}
	}
	if cfg.InjectCycleAt > 0 {
		s.Schedule(cfg.InjectCycleAt, "inject", "pointer cycle", w.injectCycle)
	}
	if cfg.CreateViewAt > 0 {
		s.Schedule(cfg.CreateViewAt, "view-create", "bf", w.activateBF)
		if cfg.DropViewAt > cfg.CreateViewAt {
			s.Schedule(cfg.DropViewAt, "view-drop", "bf", w.dropBF)
			if cfg.RecreateViewAt > cfg.DropViewAt {
				s.Schedule(cfg.RecreateViewAt, "view-recreate", "bf", w.activateBF)
			}
		}
	}
	s.Schedule(cfg.Duration, "heal", "all faults", w.healAll)

	err := s.Run()
	if err == nil {
		// Quiesced: converge the replicas, then run the full oracle.
		for i := 0; i < 3; i++ {
			w.antiEntropyRound()
		}
		if err = w.finalCheck(); err != nil {
			s.Record("violation", err.Error())
			w.report.Invariant = "final-oracle"
			w.report.FailedAt = s.Now()
		}
	} else {
		w.report.Invariant = s.FailedInvariant()
		w.report.FailedAt = s.FailedAt()
	}
	if err != nil {
		err = fmt.Errorf("sim: seed=%d: %w\nreplay: %s", cfg.Seed, err, ReplayCommand(cfg.Seed))
	}
	for _, st := range w.storages {
		if st != nil {
			_ = st.Close() // end-of-run cleanup
		}
	}
	for _, n := range w.nodes {
		w.report.ConcurrentWrites += int(n.ConcurrentWrites())
	}
	w.report.Err = err
	w.report.PropLag = w.propLag.Snapshot()
	w.report.ChainLen = w.chainLen.Snapshot()
	w.report.ChainHops = int(w.stats.ChainHops.Load())
	w.report.Compressions = int(w.stats.Compressions.Load())
	w.report.PropagationRetries = int(w.stats.FailedAttempts.Load())
	w.report.Events = s.Trace().Len()
	w.report.TraceHash = s.Trace().Hash()
	w.report.Trace = s.Trace()
	return w.report
}

// lsmOptions are a node's storage-engine options, identical across
// restarts so a recovered node is indistinguishable from the original.
func (w *world) lsmOptions(id transport.NodeID) lsm.Options {
	return lsm.Options{Seed: w.cfg.Seed + int64(id), FlushBytes: w.cfg.FlushBytes}
}

func (w *world) newAgent(n *node.Node) *antientropy.Agent {
	return antientropy.New(n, w.fab, antientropy.Options{
		Buckets: 32,
		Tables:  w.syncTables,
		Peers:   w.ring.Nodes,
	})
}

// syncTables is the anti-entropy table set: the fixed tables plus the
// current backfilled-view generation. A dropped generation falls out
// immediately, so anti-entropy cannot resurrect wiped rows.
func (w *world) syncTables() []string {
	ts := []string{baseTable, viewTable}
	if w.bfActive {
		ts = append(ts, w.bfDef.Name)
	}
	return ts
}

// --- Fault injection -------------------------------------------------------

func (w *world) scheduleChaos() {
	cfg, s, rnd := w.cfg, w.s, w.s.Rand()
	if w.durable && cfg.CrashRestarts > 0 {
		for i := 0; i < cfg.CrashRestarts; i++ {
			id := transport.NodeID(i % cfg.Nodes)
			at := time.Duration(rnd.Int63n(int64(cfg.Duration)))
			s.Schedule(at, "crash-restart", fmt.Sprintf("node %d", id), func() { w.crashRestart(id) })
		}
	}
	for i := 0; i < cfg.Crashes; i++ {
		at := time.Duration(rnd.Int63n(int64(cfg.Duration)))
		dur := time.Duration(rnd.Int63n(int64(cfg.MaxCrash))) + time.Millisecond
		id := transport.NodeID(rnd.Intn(cfg.Nodes))
		s.Schedule(at, "crash", fmt.Sprintf("node %d for %v", id, dur), func() { w.fab.SetDown(id, true) })
		s.Schedule(at+dur, "recover", fmt.Sprintf("node %d", id), func() { w.fab.SetDown(id, false) })
	}
	for i := 0; i < cfg.Partitions; i++ {
		at := time.Duration(rnd.Int63n(int64(cfg.Duration)))
		dur := time.Duration(rnd.Int63n(int64(cfg.MaxPartition))) + time.Millisecond
		a := transport.NodeID(rnd.Intn(cfg.Nodes))
		b := transport.NodeID((int(a) + 1 + rnd.Intn(cfg.Nodes-1)) % cfg.Nodes)
		s.Schedule(at, "partition", fmt.Sprintf("%d|%d for %v", a, b, dur), func() { w.fab.Partition(a, b, true) })
		s.Schedule(at+dur, "heal-partition", fmt.Sprintf("%d|%d", a, b), func() { w.fab.Partition(a, b, false) })
	}
}

// crashRestart is the durable-mode kill: the node loses its entire
// volatile state at an arbitrary virtual instant — memtables, index
// fragments, every propagation thread it was coordinating — and comes
// back from disk alone. The storage is abandoned without a final sync
// (only what the WAL policy made durable survives; under the sim's
// SyncAlways, that is every acknowledged append), a fresh node is
// rebuilt from the MANIFEST, run files and WAL tails, and the
// propagation intents that were logged as started but never done are
// re-enqueued as new propagations, proving a crashed coordinator's
// pending view maintenance still converges.
func (w *world) crashRestart(id transport.NodeID) {
	w.epochs[id]++ // in-flight propagation threads of this node die
	// The dying node's sibling observations would vanish with it.
	w.report.ConcurrentWrites += int(w.nodes[id].ConcurrentWrites())
	old := w.storages[id]
	_ = old.Abandon() // crash model: no final sync
	// Reopen and recover with fault injection off: the torn state the
	// crash left behind is the fault being digested; recovery itself
	// runs on healthy storage (its reads are never faulted anyway, but
	// orphan GC and the fresh WAL segments must not fail spuriously).
	if fb := w.faults[id]; fb != nil {
		fb.SetEnabled(false)
	}
	st, err := wal.OpenStorage(w.backends[id], w.walOpts)
	if err != nil {
		w.s.Fail(fmt.Errorf("crash-restart node %d: reopen: %w", id, err))
		return
	}
	n := node.New(node.Options{ID: id, LSM: w.lsmOptions(id), Durable: st})
	_, intents, err := n.Recover()
	if err != nil {
		w.s.Fail(fmt.Errorf("crash-restart node %d: recover: %w", id, err))
		return
	}
	if fb := w.faults[id]; fb != nil && w.s.Now() < w.cfg.Duration {
		fb.SetEnabled(true)
	}
	n.SetPlacement(w.placement)
	w.fab.Register(id, n) // replaces the dead node's handler
	w.fab.SetDown(id, false)
	w.nodes[id] = n
	w.storages[id] = st
	w.agents[id] = w.newAgent(n)
	w.report.CrashRestarts++
	w.s.Record("crash-restart", fmt.Sprintf("node %d recovered, %d intents pending", id, len(intents)))

	epoch := w.epochs[id]
	for _, it := range intents {
		it := it
		if it.Table != baseTable || len(it.Updates) != 1 {
			continue
		}
		bk, u := it.Row, it.Updates[0]
		w.report.IntentsReenqueued++
		// Replay fans out to every view active at replay time, like the
		// real Manager re-running buildTasks over the current registry:
		// byview always; the backfilled view when one is active (a
		// generation created after the intent was logged gets a
		// harmless idempotent re-application of current state).
		targets := w.propTargets()
		remaining := len(targets)
		for _, tgt := range targets {
			tgt := tgt
			w.inflight[bk]++
			pid := w.nextPropID
			w.nextPropID++
			w.propPending[pid] = w.s.Now()
			w.s.Go(0, fmt.Sprintf("replay-intent %s %s %s ts=%d", tgt.def.Name, bk, u.Column, u.Cell.TS), func(pp *Proc) {
				// The write-time pre-images died with the coordinator, so
				// the pool restarts from the conservative NULL guess (walk
				// from the anchor; license creation if no view row exists)
				// and the recovered coordinator re-reads the replicas'
				// current view-key versions, like a fresh Repropagate.
				// NULL must stay in the pool: after the crash every replica
				// may already report this very write as the current
				// version, and if its view row was never created, a pool
				// holding only that version walks to a nonexistent row
				// forever. Replay is idempotent — LWW cells and the
				// redo-safe promotion sequence make a second (or partial
				// re-)application converge to the same rows.
				vers := &versionSet{}
				vers.cells.Add(model.NullCell)
				switch w.runPropagation(pp, id, tgt.def, bk, u, vers, epoch, tgt.alive) {
				case propDone:
					w.propLag.Observe(int64((w.s.Now() - w.propPending[pid]) / time.Microsecond))
					remaining--
				case propDropped:
					remaining--
				}
				if remaining == 0 {
					_ = w.storages[id].LogIntentDone(it.ID) // stays pending; next restart retries
				}
				delete(w.propPending, pid)
			})
		}
	}
	// A backfill scan that was running on this node died with it;
	// restart it from its checkpoint.
	if w.bfActive && !w.bfDone[id] {
		gen := w.bfGen
		w.report.BackfillResumes++
		w.s.Go(0, fmt.Sprintf("backfill-resume node %d gen %d", id, gen), func(pp *Proc) {
			w.runBackfillScan(pp, id, gen)
		})
	}
}

func (w *world) healAll() {
	// Storage heals with the network: the drain phase must converge,
	// and the final oracle judges a fault-free quiescent state.
	for _, fb := range w.faults {
		if fb != nil {
			fb.SetEnabled(false)
		}
	}
	for _, n := range w.nodes {
		w.fab.SetDown(n.ID(), false)
	}
	for i := 0; i < w.cfg.Nodes; i++ {
		for j := i + 1; j < w.cfg.Nodes; j++ {
			w.fab.Partition(transport.NodeID(i), transport.NodeID(j), false)
		}
	}
}

// injectCycle plants a deliberate Definition-3 violation: two view rows
// of one base key pointing at each other at a timestamp that dominates
// every legitimate pointer. The acyclicity invariant must catch it on
// the next sweep, proving the oracle actually bites.
func (w *world) injectCycle() {
	bk := "r0"
	ts := int64(1) << 40
	entries := []model.Entry{
		{Key: model.EncodeKey("cyc-a", model.Qualify(bk, core.ColNext)), Cell: model.Cell{Value: []byte("cyc-b"), TS: ts}},
		{Key: model.EncodeKey("cyc-b", model.Qualify(bk, core.ColNext)), Cell: model.Cell{Value: []byte("cyc-a"), TS: ts}},
	}
	for _, n := range w.nodes {
		n.RestoreTable(viewTable, entries)
	}
}

// antiEntropyRound synchronously reconciles every node pair. Exchanges
// ride the fabric's synchronous Call path, so rounds during faults see
// (and tolerate) unreachable peers.
func (w *world) antiEntropyRound() {
	for _, a := range w.agents {
		a.RunRound()
	}
}

// --- Workload --------------------------------------------------------------

func (w *world) runClient(p *Proc, id int) {
	cfg := w.cfg
	rnd := w.s.Rand()
	meanGap := int64(cfg.Duration) / int64(cfg.OpsPerClient)
	for op := 0; op < cfg.OpsPerClient; op++ {
		p.Sleep(time.Duration(rnd.Int63n(meanGap) + 1))
		row := rnd.Intn(cfg.BaseRows)
		if cfg.SkewedWrites && rnd.Intn(10) < 7 && cfg.BaseRows > 2 {
			row = rnd.Intn(2) // hot keys r0/r1
		}
		bk := fmt.Sprintf("r%d", row)
		coordID := transport.NodeID(rnd.Intn(cfg.Nodes))
		// Dense timestamps force LWW collisions and tie-breaking.
		ts := int64(rnd.Intn(cfg.Clients*cfg.OpsPerClient)) + 1
		var u model.ColumnUpdate
		switch r := rnd.Intn(10); {
		case r < 5:
			u = model.Update(vkCol, []byte(fmt.Sprintf("k%d", rnd.Intn(cfg.ViewKeys))), ts)
		case r < 6:
			u = model.Deletion(vkCol, ts)
		default:
			u = model.Update(matCol, []byte(fmt.Sprintf("v%d-%d", id, op)), ts)
		}
		w.putWithRetry(p, coordID, bk, u)
	}
}

// putWithRetry is the client side of Algorithm 1: a quorum base-table
// write carrying a pre-read of the view-key column, retried with the
// same cell until acknowledged (so the final base state is exactly the
// set of acknowledged updates), then an asynchronous propagation.
func (w *world) putWithRetry(p *Proc, coordID transport.NodeID, bk string, u model.ColumnUpdate) {
	w.pendingOps[bk]++
	// Stamp the write once, before the retry loop: retries resend the
	// same causal event, so a replica applying the second attempt over
	// the first sees its own dot already in the context and counts no
	// phantom sibling. The context is the coordinator's self entry —
	// per-coordinator sequence numbers are contiguous, so a later dot
	// from the same coordinator subsumes all its earlier ones.
	w.dotSeqs[coordID]++
	u.Cell.Dot = dvv.Dot{Node: uint32(coordID), Seq: w.dotSeqs[coordID]}
	u.Cell.Ctx = dvv.VV{uint32(coordID): w.dotSeqs[coordID]}
	vers := &versionSet{}
	req := transport.PutReq{Table: baseTable, Row: bk, Updates: []model.ColumnUpdate{u}, ReturnVersionsOf: []string{vkCol}}
	replicas := w.replicas(baseTable, bk)
	quorum := len(replicas)/2 + 1
	backoff := 2 * time.Millisecond
	for attempt := 0; ; attempt++ {
		if attempt > 5000 {
			w.s.Fail(fmt.Errorf("client write to %s (col %s, ts %d) still unacked after %d attempts", bk, u.Column, u.Cell.TS, attempt))
			w.pendingOps[bk]--
			return
		}
		acks := w.broadcastPut(p, coordID, replicas, req, vers)
		if acks >= quorum {
			// Durable mode, the Algorithm-1 ordering the WAL enforces:
			// the propagation intent is logged at the coordinator after
			// the quorum write succeeds and before the client sees the
			// ack, so a coordinator crash from here on leaves a
			// replayable record, never a silently stale view. A failed
			// intent append (injected ENOSPC, a crashed coordinator log)
			// therefore means the write is NOT acknowledged: the client
			// retries the whole operation — the resend carries the same
			// dot, so replicas treat it as the same causal event — and a
			// fresh intent id is allocated on the next attempt.
			var intentID uint64
			var epoch int
			intentLogged := false
			if w.durable {
				st := w.storages[coordID]
				epoch = w.epochs[coordID]
				intentID = st.NextIntentID()
				if err := st.LogIntentStart(wal.Intent{ID: intentID, Table: baseTable, Row: bk, Updates: []model.ColumnUpdate{u}}); err != nil {
					w.s.Record("intent-log-fail", fmt.Sprintf("base=%s col=%s ts=%d: %v", bk, u.Column, u.Cell.TS, err))
					p.Sleep(backoff)
					if backoff *= 2; backoff > 20*time.Millisecond {
						backoff = 20 * time.Millisecond
					}
					continue
				}
				intentLogged = true
			}
			w.report.Acked++
			w.acked = append(w.acked, core.BaseUpdate{BaseKey: bk, Column: u.Column, Cell: u.Cell})
			w.pendingOps[bk]--
			w.s.Record("put-ack", fmt.Sprintf("base=%s col=%s ts=%d attempt=%d", bk, u.Column, u.Cell.TS, attempt))
			var delay time.Duration
			if w.cfg.MaxPropDelay > 0 {
				delay = time.Duration(w.s.Rand().Int63n(int64(w.cfg.MaxPropDelay)))
			}
			// One propagation per view active at ack time — the same
			// fence DB.CreateViewAsync relies on: writes acked before
			// the define are quorum-visible to the backfill scan's
			// reads, writes acked after it get their own propagation.
			// The intent is marked done only when every target settled
			// (done, or its view was dropped); a crashed target keeps
			// it pending for replay.
			targets := w.propTargets()
			remaining := len(targets)
			for _, tgt := range targets {
				tgt := tgt
				// Staleness clock starts now, not when the delayed
				// propagation fires: the scheduling delay is lag a view
				// reader can observe.
				pid := w.nextPropID
				w.nextPropID++
				w.propPending[pid] = w.s.Now()
				w.inflight[bk]++
				tvers := vers
				if tgt.fresh {
					// A view defined mid-stream never saw this write's
					// pre-read; its pool restarts from the NULL guess
					// plus fresh replica reads (the scheduleLate mirror).
					tvers = &versionSet{}
					tvers.cells.Add(model.NullCell)
				}
				w.s.Go(delay, fmt.Sprintf("propagate %s %s %s ts=%d", tgt.def.Name, bk, u.Column, u.Cell.TS), func(pp *Proc) {
					switch w.runPropagation(pp, coordID, tgt.def, bk, u, tvers, epoch, tgt.alive) {
					case propDone:
						w.propLag.Observe(int64((w.s.Now() - w.propPending[pid]) / time.Microsecond))
						remaining--
					case propDropped:
						remaining--
					}
					if intentLogged && remaining == 0 {
						_ = w.storages[coordID].LogIntentDone(intentID) // stays pending; next restart retries
					}
					delete(w.propPending, pid)
				})
			}
			return
		}
		p.Sleep(backoff)
		if backoff *= 2; backoff > 20*time.Millisecond {
			backoff = 20 * time.Millisecond
		}
	}
}

// broadcastPut fans req out to the replicas and parks until every one
// has replied or errored; it returns the ack count and feeds pre-image
// view-key versions into vers.
func (w *world) broadcastPut(p *Proc, from transport.NodeID, replicas []transport.NodeID, req transport.PutReq, vers *versionSet) int {
	type agg struct {
		acks, replies int
		resolved      bool
	}
	res := p.Await(func(resolve func(interface{})) {
		a := &agg{}
		n := len(replicas)
		for _, to := range replicas {
			w.fab.Send(from, to, req, func(r transport.Result) {
				a.replies++
				if r.Err == nil {
					a.acks++
					if vers != nil && len(req.ReturnVersionsOf) > 0 {
						if pr, ok := r.Resp.(transport.PutResp); ok {
							for _, col := range req.ReturnVersionsOf {
								vers.cells.Add(pr.Old[col])
							}
						}
					}
				}
				if !a.resolved && a.replies == n {
					a.resolved = true
					if vers != nil && a.acks == n {
						vers.complete = true
					}
					resolve(a.acks)
				}
			})
		}
	})
	return res.(int)
}

// quorumGet reads the requested columns of one row with a majority
// quorum, LWW-merging the replica responses.
func (w *world) quorumGet(p *Proc, from transport.NodeID, table, row string, cols []string) (model.Row, error) {
	replicas := w.replicas(table, row)
	quorum := len(replicas)/2 + 1
	type agg struct {
		acks, replies int
		merged        model.Row
		resolved      bool
	}
	res := p.Await(func(resolve func(interface{})) {
		a := &agg{merged: model.Row{}}
		n := len(replicas)
		req := transport.GetReq{Table: table, Row: row, Columns: cols}
		for _, to := range replicas {
			w.fab.Send(from, to, req, func(r transport.Result) {
				a.replies++
				if r.Err == nil {
					a.acks++
					if gr, ok := r.Resp.(transport.GetResp); ok {
						for _, c := range cols {
							if cell, ok := gr.Cells[c]; ok {
								if old, seen := a.merged[c]; seen {
									a.merged[c] = model.Merge(old, cell)
								} else {
									a.merged[c] = cell
								}
							}
						}
					}
				}
				if !a.resolved && a.replies == n {
					a.resolved = true
					resolve(a)
				}
			})
		}
	})
	a := res.(*agg)
	if a.acks < quorum {
		return nil, fmt.Errorf("sim: read quorum failed for %s/%q (%d/%d)", table, row, a.acks, quorum)
	}
	return a.merged, nil
}

func (w *world) replicas(table, row string) []transport.NodeID {
	return w.ring.ReplicasFor(table+"\x00"+row, w.cfg.N)
}
