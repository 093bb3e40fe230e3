// Command loadbench is the repository's end-to-end benchmark: a
// single-process load generator that runs the real matchd binary over
// loopback HTTP with fsync on, drives one of three workloads (lookup,
// ingest, mixed), checks every answer, and prints each metric by name
// with its unit and sample count. With -trace 1 it instead replays the
// workload's schedule twice — over HTTP, and in-process against a stack
// built from the packages' public constructors — and splits the time
// across cmd/matchd, internal/engine, internal/stream, internal/store
// and setup (internal/gen + internal/core) by timing calls into each
// package from outside.
//
// Run it through run.sh, which builds matchd and this command from the
// checkout first:
//
//	bash loadbench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "lookup, ingest or mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every request body and every send time")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run (phase sizes scale with it)")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer split")
	flag.StringVar(&cfg.matchd, "matchd", "", "matchd binary built from the commit under test")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for data dirs and logs (removed afterwards)")
	flag.Parse()
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	matchd   string
	work     string
}

func (c *config) validate() error {
	switch {
	case !slices.Contains(workloadNames, c.workload):
		return fmt.Errorf("-workload %q: want one of %v", c.workload, workloadNames)
	case c.seconds < 1 || c.seconds > 60:
		return fmt.Errorf("-seconds %d: want 1..60", c.seconds)
	case c.trace != 0 && c.trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", c.trace)
	case c.matchd == "":
		return fmt.Errorf("-matchd is required")
	case c.work == "":
		return fmt.Errorf("-work is required")
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects the human-readable lines and the JSON metrics.
type report struct {
	metrics map[string]metric
	wrong   int // wrong answers and failed checks
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// put records a metric for the JSON line and prints it.
func (r *report) put(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.show(name, v, unit, n)
}

// show prints a metric without putting it in the JSON line.
func (r *report) show(name string, v float64, unit string, n int) {
	fmt.Printf("metric %-30s %12.4f %-10s n=%d\n", name, v, unit, n)
}

// refuse prints a metric that could not be reported, and why.
func (r *report) refuse(name string, err error) {
	fmt.Printf("metric %-30s %12s            %v\n", name, "refused", err)
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.wrong++
	fmt.Printf("FAIL "+format+"\n", args...)
}

func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.work, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	bin, err := filepath.Abs(cfg.matchd)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# loadbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d conns=%d k=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), clientConns, corpusK)
	ds, err := corpus()
	if err != nil {
		return nil, err
	}
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.seconds, ds)
	if err != nil {
		return nil, err
	}
	env := &runEnv{cfg: cfg, bin: bin, work: work, w: w, rep: newReport()}
	total0, steal0, err := cpuTimes()
	if err != nil {
		return nil, err
	}
	var attempted, failed int
	if cfg.trace == 1 {
		attempted, failed, err = env.traced()
	} else {
		attempted, failed, err = env.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	// Time the hypervisor gave other guests: a run that lost much of the
	// machine reads slow for reasons outside the program.
	if total1, steal1, err := cpuTimes(); err == nil && total1 > total0 {
		fmt.Printf("# cpu steal during the run: %.1f%%\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	rep := env.rep
	errRate := float64(failed+rep.wrong) / float64(attempted)
	rep.show("error_rate", errRate, "ratio", attempted)
	return &result{
		Correct:   failed+rep.wrong == 0,
		Attempted: attempted,
		Failed:    failed + rep.wrong,
		Metrics:   rep.metrics,
	}, nil
}

// runEnv is one run's shared state.
type runEnv struct {
	cfg  config
	bin  string
	work string
	w    *workload
	rep  *report
	dirs int
}

// freshDir returns a new empty data directory and a log path beside it.
func (e *runEnv) freshDir() (string, string) {
	e.dirs++
	dir := filepath.Join(e.work, fmt.Sprintf("data%d", e.dirs))
	return dir, filepath.Join(e.work, fmt.Sprintf("matchd%d.log", e.dirs))
}
