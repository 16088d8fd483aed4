// Command perfbench is the repository's benchmark: it drives real gpserve
// processes (a journaled leader plus a follower, over loopback, through
// the gpm/client SDK) and an in-process gpm registry with generated
// workloads, checks every output against batch recomputation, and prints
// the end-to-end metrics, or with -trace 1 the per-layer ones.
//
//	bash perfbench/run.sh --workload serve-sim --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - serve-sim: 4k-node/12k-edge Synthetic graph, 20 sim patterns that are
//     renumberings of 5 families (the shared network keeps 5 joins),
//     8-update batches (4 inserts, 4 deletes) sent open loop at 150
//     batches/s over one connection per CPU, one SDK stream on the leader
//     and one on the follower; then a closed-loop saturation phase.
//   - serve-resume: the same, plus a reader that every 200 ms resumes a
//     stream FromSeq(head−250) on another pattern and reads to the head.
//   - bsim-churn: in-process registry (no journal, no HTTP), 3.4k-node/
//     21.6k-edge graph, 4 DAG b-patterns (4 nodes, 5 edges, k=3), one
//     caller committing 32-update batches back to back.
//
// The graph and patterns are fixed; -seed draws the update stream.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics — untraced, the end-to-end metrics every
// workload shares (setup_s, ack_p50_ms, deliver_p50_ms, peak_rss_mb);
// traced, the per-layer ones. Lines before it give the run's identity
// (nproc, GOMAXPROCS, Go version, seed, gpserve flags) and every metric by
// name with its unit and sample count, plus "info" lines for figures that
// are printed but not part of the result (tail percentiles, follower
// delivery, saturation and commit throughput, resume latency, error
// rate). A correctness mismatch exits 1; any other failure exits 2
// without a result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// env is the run's fixed context.
type env struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	gpserve  string
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics in print order.
type report struct {
	res   result
	order []string
	notes map[string]string
	extra []string // metrics printed for reading but not part of the result
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}, notes: map[string]string{}}
}

func (r *report) set(name, unit string, v float64, note string) {
	if _, ok := r.res.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// info prints a metric for the reader without making it part of the
// result (tail percentiles, per-workload figures, error rate).
func (r *report) info(name, unit string, v float64, note string) {
	r.extra = append(r.extra, fmt.Sprintf("info   %-34s %14.4f %-9s %s", name, v, unit, note))
}

func (r *report) print() {
	for _, name := range r.order {
		m := r.res.Metrics[name]
		fmt.Printf("metric %-34s %14.4f %-9s %s\n", name, m.Value, m.Unit, r.notes[name])
	}
	for _, l := range r.extra {
		fmt.Println(l)
	}
	b, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
}

func main() {
	e := &env{}
	flag.StringVar(&e.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&e.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&e.seconds, "seconds", 30, "measured seconds per pass")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (traced run)")
	flag.StringVar(&e.gpserve, "gpserve", "", "path to the gpserve binary")
	flag.StringVar(&e.workdir, "workdir", "", "working directory for journals and server logs")
	flag.Parse()
	e.traced = *trace == 1
	wl, ok := workloads[e.workload]
	if !ok || e.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload %s, -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if e.workdir == "" {
		e.workdir = filepath.Join(os.TempDir(), "perfbench")
	}
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep := newReport()
	ident, err := wl(context.Background(), e, rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	id := map[string]any{
		"workload": e.workload, "seed": e.seed, "seconds": e.seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	for k, v := range ident {
		id[k] = v
	}
	b, _ := json.Marshal(id) // a map of strings, numbers and string slices always marshals
	fmt.Printf("run %s\n", b)
	rep.print()
	if !rep.res.Correct {
		os.Exit(1)
	}
}

// split is a share of the run's measured seconds.
func split(e *env, share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}
