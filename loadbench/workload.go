package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"mdmatch/internal/gen"
	"mdmatch/internal/record"
)

// corpusK is matchd's -k: 1,810 indexed credit records, which keeps one
// start near 4 s on two cores (k=2000 takes ~21 s, too slow to repeat).
const corpusK = 1000

// batchSize is the billing records per lookup /match request.
const batchSize = 64

// Phase sizes are fixed per second of --seconds, never measured at run
// time, so two commits always face the same load. The capacities are
// round figures near the closed-loop rates a 2-core sandbox reached
// (1,500-2,300 lookup batches, 80-200 inserts, 4,000-5,300 mixed
// requests per second): the closed phases fill about closedShare of
// the run. The open phases fill openShare of it at a fixed rate, a third
// of capacity or less: the shared machine at times runs at half its
// usual speed, and an open loop driven near capacity then queues, which
// multiplies its p50 (ingest at half capacity read 8 ms in one run and
// 97 ms in the next).
const (
	lookupCapacity = 1800 // /match batches per second
	ingestCapacity = 150  // inserts per second
	mixedCapacity  = 4500 // requests per second
	lookupOpenRate = 600
	ingestOpenRate = 40 // late in a run the grown corpus slows inserts to ~110/s
	mixedOpenRate  = 1200
	// mixedInsertShare of mixed requests are inserts, the rest
	// single-record matches.
	mixedInsertShare = 0.02

	closedShare = 0.4
	openShare   = 0.5
	// rounds interleaves each workload's closed and open phases, so each
	// reported figure is a median over rounds spread across the run.
	rounds = 5

	// recoveryInserts follow the forced snapshot that ends every
	// workload's measured rounds, so recovery restores a snapshot and
	// replays a WAL suffix of fixed length through the chase. Their WAL
	// bytes (~2.6 KB) stay below ingest's background snapshot threshold.
	recoveryInserts = 40
	// tailSeed draws the tail inserts, the same for every workload seed.
	tailSeed = 0
	// ingestSnapshotBytes is ingest's -snapshot-wal-bytes: low enough
	// that several background snapshots complete inside the run (a WAL
	// insert record takes about 65 bytes).
	ingestSnapshotBytes = 16 << 10
)

type opKind int

const (
	opMatchBatch opKind = iota
	opMatchOne
	opInsert
)

// op is one request: its HTTP body and the same input as values for the
// in-process replay.
type op struct {
	kind  opKind
	body  []byte
	batch [][]string // opMatchBatch
	vals  []string   // opMatchOne, opInsert
	id    int        // opInsert
	at    time.Duration
	open  bool // sent on an open-loop schedule, at start+at
	check bool // verify the answer against the reference engine
}

// tailPhase names the inserts after the forced snapshot.
const tailPhase = "tail"

// phase is a run of requests: closed (clients send back to back) or open
// (each op is due at its own offset from the phase start).
type phase struct {
	name string
	open bool
	ops  []op
}

// workload is every input of one run, made from the seed alone.
type workload struct {
	name   string
	seed   int64
	phases []phase
	// tailOps are inserts made after the measured rounds and a forced
	// snapshot, right before the kill that recovery_s measures.
	tailOps []op
	// matchdArgs are the flags beyond -addr, -k, -seed and -data-dir.
	matchdArgs []string
	credit     int // records matchd indexes at start
}

var workloadNames = []string{"lookup", "ingest", "mixed"}

// corpusSeed is matchd's -seed. Every run serves the same corpus, so
// start-up and per-request costs compare across workload seeds; the
// workload seed draws the traffic.
const corpusSeed = 1

// corpus is the generated dataset matchd serves.
func corpus() (*gen.Dataset, error) {
	cfg := gen.DefaultConfig(corpusK)
	cfg.Seed = corpusSeed
	return gen.Generate(cfg)
}

// newWorkload builds a workload's schedule over the served corpus ds.
// The seed fixes every request body and every send time: which billing
// records are queried, and the insert stream's duplicates, noise and
// fresh card holders (from gen.Generate with a seed derived from it).
func newWorkload(name string, seed int64, seconds int, ds *gen.Dataset) (*workload, error) {
	w := &workload{name: name, seed: seed, credit: ds.Credit.Len()}
	rnd := rand.New(rand.NewSource(seed))
	ins, err := newInserter(ds, seed, rnd)
	if err != nil {
		return nil, err
	}
	var next func() op
	var capacity, openRate float64
	switch name {
	case "lookup":
		next = func() op {
			o := matchBatch(ds.Billing, rnd)
			// A seeded eighth of the batches is checked against the
			// in-process reference engine.
			o.check = rnd.Intn(8) == 0
			return o
		}
		capacity, openRate = lookupCapacity, lookupOpenRate
	case "ingest":
		next = ins.next
		capacity, openRate = ingestCapacity, ingestOpenRate
		w.matchdArgs = []string{"-snapshot-wal-bytes", fmt.Sprint(ingestSnapshotBytes)}
	case "mixed":
		next = func() op {
			if rnd.Float64() < mixedInsertShare {
				return ins.next()
			}
			return matchOne(ds.Billing, rnd)
		}
		capacity, openRate = mixedCapacity, mixedOpenRate
	default:
		return nil, fmt.Errorf("unknown workload %q (want lookup, ingest or mixed)", name)
	}
	s := float64(seconds)
	closedN := max(rounds, int(capacity*closedShare*s)) / rounds
	openN := max(rounds, int(openRate*openShare*s)) / rounds
	for r := 0; r < rounds; r++ {
		closed := make([]op, closedN)
		for i := range closed {
			closed[i] = next()
		}
		w.phases = append(w.phases, phase{"closed", false, closed}, phase{"open", true, openOps(openN, openRate, next)})
	}
	// The tail is the same for every seed, so recovery replays the same
	// work whatever traffic preceded it.
	tail, err := newInserter(ds, tailSeed, rand.New(rand.NewSource(tailSeed)))
	if err != nil {
		return nil, err
	}
	tail.nextID = ins.nextID
	w.tailOps = make([]op, recoveryInserts)
	for i := range w.tailOps {
		w.tailOps[i] = tail.next()
	}
	return w, nil
}

// openOps spaces n ops evenly at the given rate.
func openOps(n int, rate float64, next func() op) []op {
	ops := make([]op, n)
	gap := time.Duration(float64(time.Second) / rate)
	for i := range ops {
		ops[i] = next()
		ops[i].at = time.Duration(i) * gap
		ops[i].open = true
	}
	return ops
}

type recordBody struct {
	ID     *int     `json:"id,omitempty"`
	Values []string `json:"values"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only string slices and ints are marshalled
	}
	return b
}

func matchBatch(billing *record.Instance, rnd *rand.Rand) op {
	o := op{kind: opMatchBatch, batch: make([][]string, batchSize)}
	body := struct {
		Batch []recordBody `json:"batch"`
	}{Batch: make([]recordBody, batchSize)}
	for i := range o.batch {
		vals := billing.Tuples[rnd.Intn(billing.Len())].Values
		o.batch[i] = vals
		body.Batch[i].Values = vals
	}
	o.body = mustJSON(body)
	return o
}

func matchOne(billing *record.Instance, rnd *rand.Rand) op {
	vals := billing.Tuples[rnd.Intn(billing.Len())].Values
	return op{kind: opMatchOne, vals: vals, body: mustJSON(recordBody{Values: vals})}
}

// inserter makes the insert stream: half noisy duplicates of served
// credit records (so the dedup rules fire), half fresh card holders.
type inserter struct {
	served []*record.Tuple
	fresh  []*record.Tuple
	attrs  []string
	noise  *gen.Noiser
	rnd    *rand.Rand
	nextID int
}

// freshHolders bounds the fresh card holders an insert stream can use.
const freshHolders = 2000

func newInserter(ds *gen.Dataset, seed int64, rnd *rand.Rand) (*inserter, error) {
	cfg := gen.DefaultConfig(freshHolders)
	cfg.Seed = seed ^ 0x5eed
	cfg.DupRate = 0
	other, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	maxID := -1
	for _, t := range ds.Credit.Tuples {
		maxID = max(maxID, t.ID)
	}
	return &inserter{
		served: ds.Credit.Tuples,
		fresh:  other.Credit.Tuples,
		attrs:  ds.Credit.Rel.AttrNames(),
		noise:  gen.NewNoiser(rnd),
		rnd:    rnd,
		nextID: maxID + 1,
	}, nil
}

func (in *inserter) next() op {
	var vals []string
	if in.rnd.Intn(2) == 0 || len(in.fresh) == 0 {
		src := in.served[in.rnd.Intn(len(in.served))].Values
		vals = make([]string, len(src))
		for i, v := range src {
			if in.rnd.Float64() < 0.3 {
				v = in.noise.Corrupt(in.attrs[i], v)
			}
			vals[i] = v
		}
	} else {
		vals, in.fresh = in.fresh[0].Values, in.fresh[1:]
	}
	id := in.nextID
	in.nextID++
	return op{kind: opInsert, vals: vals, id: id, body: mustJSON(recordBody{ID: &id, Values: vals})}
}
