package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdmatch/internal/blocking"
	"mdmatch/internal/core"
	"mdmatch/internal/engine"
	"mdmatch/internal/gen"
	"mdmatch/internal/obs"
	"mdmatch/internal/record"
	"mdmatch/internal/schema"
	"mdmatch/internal/store"
	"mdmatch/internal/stream"
)

// servedRCKs is matchd's default -m.
const servedRCKs = 5

// stack is matchd's serving state built in this process from the
// packages' public constructors, in the order matchd's build() calls
// them, with timing wrappers installed only through public seams: a
// journal installed with Enforcer.SetJournal and a store.WithFS
// filesystem.
type stack struct {
	ds   *gen.Dataset
	plan *engine.Plan
	enf  *stream.Enforcer
	st   *store.Store
	eng  *engine.Engine
	fs   *timedFS

	// Setup call timings.
	generate, findRCKs, load, loadAppend time.Duration
}

// buildStack builds the stack on a fresh data directory. Spans of the
// calls made later through it go to rec.
func buildStack(dir string, rec *recorder) (*stack, error) {
	s := &stack{fs: &timedFS{FS: store.OSFS{}, rec: rec}}
	t := time.Now()
	ds, err := corpus()
	if err != nil {
		return nil, err
	}
	s.ds, s.generate = ds, time.Since(t)
	t = time.Now()
	keys, err := deriveRCKs(ds)
	if err != nil {
		return nil, err
	}
	s.findRCKs = time.Since(t)
	if s.plan, err = compilePlan(ds.Ctx, keys); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	if s.enf, err = newEnforcer(ds.Credit.Rel, reg); err != nil {
		return nil, err
	}
	if s.st, s.eng, err = openEngine(dir, s.plan, s.enf, s.fs, reg); err != nil {
		return nil, err
	}
	jr := &timedJournal{st: s.st}
	s.enf.SetJournal(jr)
	t = time.Now()
	if err := s.eng.Load(ds.Credit); err != nil {
		s.st.Close()
		return nil, err
	}
	s.load = time.Since(t)
	s.loadAppend = time.Duration(jr.batchNanos.Load())
	return s, nil
}

func (s *stack) close() error { return s.st.Close() }

// deriveRCKs is matchd's rule derivation: findRCKs over the card-holder
// MDs (Section 5), subsumed keys pruned, the top servedRCKs kept.
func deriveRCKs(ds *gen.Dataset) ([]core.Key, error) {
	cm := core.DefaultCostModel()
	cm.Lt = ds.LtStats()
	keys, err := core.FindRCKs(ds.Ctx, gen.HolderMDs(ds.Ctx), gen.Target(ds.Ctx), servedRCKs+4, cm)
	if err != nil {
		return nil, err
	}
	keys = core.PruneSubsumed(keys)
	if len(keys) > servedRCKs {
		keys = keys[:servedRCKs]
	}
	return keys, nil
}

// compilePlan compiles the keys with matchd's three blocking keys.
func compilePlan(ctx schema.Pair, keys []core.Key) (*engine.Plan, error) {
	specs := []blocking.KeySpec{
		blocking.NewKeySpec(core.P("ln", "ln"), core.P("zip", "zip")).
			WithEncoder(0, blocking.SoundexEncode),
		blocking.NewKeySpec(core.P("tel", "phn")),
		blocking.NewKeySpec(core.P("fn", "fn"), core.P("dob", "dob")).
			WithEncoder(0, blocking.SoundexEncode),
	}
	return engine.Compile(ctx, keys, specs)
}

func newEnforcer(credit *schema.Relation, reg *obs.Registry) (*stream.Enforcer, error) {
	dedup, err := schema.NewPair(credit, credit)
	if err != nil {
		return nil, err
	}
	return stream.New(dedup, gen.DedupMDs(dedup),
		stream.ClusterRules(gen.DedupClusterRules()...),
		stream.WithWorkers(0),
		stream.WithObserver(obs.NewStreamObserver(reg)))
}

// openEngine opens the store on dir and builds the engine over it, which
// recovers whatever state dir holds.
func openEngine(dir string, plan *engine.Plan, enf *stream.Enforcer, fs store.FS, reg *obs.Registry) (*store.Store, *engine.Engine, error) {
	st, err := store.Open(dir, engine.Fingerprint(plan, enf),
		store.WithFS(fs), store.WithObserver(obs.NewStoreObserver(reg)))
	if err != nil {
		return nil, nil, err
	}
	eng, err := engine.New(plan, engine.WithWorkers(0), engine.WithShards(0),
		engine.WithStream(enf), engine.WithStore(st),
		engine.WithObserver(obs.NewEngineObserver(reg)))
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return st, eng, nil
}

// stats renders the stack's state in GET /stats form for the parity and
// recovery checks.
func (s *stack) stats() serverStats {
	return engineStats(s.eng, s.st)
}

func engineStats(eng *engine.Engine, st *store.Store) serverStats {
	es, ss := eng.Stats(), eng.Stream().Stats()
	var out serverStats
	out.IndexedRecords, out.IndexKeys, out.IndexEntries = es.IndexedRecords, es.IndexKeys, es.IndexEntries
	out.Plan = eng.Plan().String()
	out.Stream.Records, out.Stream.Clusters, out.Stream.Applications = ss.Records, ss.Clusters, ss.Applications
	out.Store = &struct {
		LSN         uint64 `json:"lsn"`
		SnapshotLSN uint64 `json:"snapshot_lsn"`
	}{LSN: st.LSN(), SnapshotLSN: st.SnapshotLSN()}
	return out
}

// snapshotter is matchd's background snapshot trigger: once a second,
// snapshot when the WAL has grown by the threshold since the last one.
// Only its goroutine touches times and err until finish has waited for it.
type snapshotter struct {
	stop  chan struct{}
	done  sync.WaitGroup
	times []time.Duration
	err   error
}

func startSnapshotter(eng *engine.Engine, threshold int64) *snapshotter {
	sn := &snapshotter{stop: make(chan struct{})}
	sn.done.Add(1)
	go func() {
		defer sn.done.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-sn.stop:
				return
			case <-tick.C:
				if eng.Store().BytesSinceSnapshot() < threshold {
					continue
				}
				t := time.Now()
				_, err := eng.SnapshotCtx(context.Background())
				sn.times = append(sn.times, time.Since(t))
				if err != nil && sn.err == nil {
					sn.err = err
				}
			}
		}
	}()
	return sn
}

// finish stops the loop and returns the snapshot durations.
func (sn *snapshotter) finish() ([]time.Duration, error) {
	close(sn.stop)
	sn.done.Wait()
	return sn.times, sn.err
}

// timedJournal forwards to the store and times each append. An insert's
// append is recorded as a child span of the engine call that caused it.
type timedJournal struct {
	st         *store.Store
	batchNanos atomic.Int64
}

var _ stream.CtxJournal = (*timedJournal)(nil)

func (j *timedJournal) LogInsert(id int, vals []string) error {
	return j.LogInsertCtx(context.Background(), id, vals)
}

func (j *timedJournal) LogInsertCtx(ctx context.Context, id int, vals []string) error {
	t := time.Now()
	err := j.st.LogInsertCtx(ctx, id, vals)
	recordChild(ctx, "store.append", t, time.Now())
	return err
}

func (j *timedJournal) LogBatch(in *record.Instance) error {
	return j.LogBatchCtx(context.Background(), in)
}

func (j *timedJournal) LogBatchCtx(ctx context.Context, in *record.Instance) error {
	t := time.Now()
	err := j.st.LogBatchCtx(ctx, in)
	j.batchNanos.Add(int64(time.Since(t)))
	return err
}

// timedFS wraps the store's filesystem: it times every File.Sync as a
// span (WAL and snapshot files apart) and counts the bytes written.
type timedFS struct {
	store.FS
	rec   *recorder
	bytes atomic.Int64
}

func (f *timedFS) Create(name string) (store.File, error) {
	fl, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: fl, fs: f, syncName: syncSpan(name)}, nil
}

func (f *timedFS) OpenAppend(name string) (store.File, error) {
	fl, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: fl, fs: f, syncName: syncSpan(name)}, nil
}

func (f *timedFS) WriteFile(name string, data []byte) error {
	f.bytes.Add(int64(len(data)))
	return f.FS.WriteFile(name, data)
}

// syncSpan names a file's fsync span: WAL segments are wal-*.log.
func syncSpan(name string) string {
	if strings.HasPrefix(filepath.Base(name), "wal-") {
		return "store.fsync"
	}
	return "store.snapshot_fsync"
}

type timedFile struct {
	store.File
	fs       *timedFS
	syncName string
}

func (t *timedFile) Write(p []byte) (int, error) {
	n, err := t.File.Write(p)
	t.fs.bytes.Add(int64(n))
	return n, err
}

func (t *timedFile) Sync() error {
	s := time.Now()
	err := t.File.Sync()
	if rec := t.fs.rec; rec != nil {
		rec.add(span{ID: rec.newID(), Name: t.syncName, Start: rec.since(s), End: rec.since(time.Now())})
	}
	return err
}

// recoverStack times store.Open + engine.New over a data directory a
// killed matchd left behind, and returns the recovered state and how
// many WAL records recovery replayed on top of the snapshot.
func recoverStack(plan *engine.Plan, credit *schema.Relation, dir string) (time.Duration, uint64, serverStats, error) {
	reg := obs.NewRegistry()
	enf, err := newEnforcer(credit, reg)
	if err != nil {
		return 0, 0, serverStats{}, err
	}
	t := time.Now()
	st, eng, err := openEngine(dir, plan, enf, store.OSFS{}, reg)
	if err != nil {
		return 0, 0, serverStats{}, fmt.Errorf("recovering %s: %w", dir, err)
	}
	d := time.Since(t)
	defer st.Close()
	applied, _ := st.ReplayProgress()
	var replayed uint64
	if applied > st.SnapshotLSN() {
		replayed = applied - st.SnapshotLSN()
	}
	return d, replayed, engineStats(eng, st), nil
}
