// Command perfbench is the repository's benchmark. It runs one workload per
// invocation, checks every reply, and prints each metric by name with its
// unit and sample count; the last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (all closed loop, uniform key choice, GOMAXPROCS = nproc and
// nproc load goroutines or connections):
//
//   - trie-read-dram: the library alone. A Cuckoo Trie of rand-8 keys sized
//     to at least 1.5× the L3 cache, read with MultiGet batches of 64.
//   - redis-zadd-group: the server under -exec striped-exec with a WAL
//     under -fsync group; 16-deep pipelines of 8 ZADDs of new members and
//     8 ZSCOREs of preloaded ones, then a recovery and durability check.
//
// With --trace 0 the JSON carries the gated end-to-end metrics:
// throughput_kops, setup_s and mem_bytes_per_key. Also printed, with their
// sample counts but outside the JSON: latency_p50_us, latency_p90_us,
// latency_p99_us and latency_p999_us per request unit (a MultiGet call or
// a pipeline round trip), failed_frac, and redis-zadd-group's recover_s.
// throughput_kops counts the correct operations of the whole window.
//
// With --trace 1 the run first drives the workload for an untraced window
// that keeps no samples, whose Go runtime figures are the go layer's
// metrics. It then runs the window traced (spans kept in memory, written
// to .bench_build/perfbench at the end) and replays the workload's op stream
// through the layer ladder core → sharded → resp → server → persist,
// reporting per-layer metrics; its end-to-end figures, printed beside
// them, give the tracing overhead against untraced runs. The ladder's
// read-server rung is the pipelined-ZSCORE load (-exec serial, memory only,
// 64-deep pipelines) that RESP and dispatch dominate; it is not a gated
// workload because its throughput fell by a third for a minute at a time
// on a shared host, beyond any bound the benchmark can fix.
//
// A run exits 1 after printing its result when any operation failed or an
// acknowledged write was lost, and 2 without a result when it could not
// run at all.
//
// Run it through run.sh, which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload redis-zadd-group --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options are one invocation's settings. Only the workload, seed, window
// and trace switch come from the command line; tests shrink the sizes.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	trieKeys int    // trie-read-dram key count; 0 sizes it from the L3 cache
	setKeys  int    // preloaded members of the server workloads' set
	setups   int    // set-up repetitions whose median is setup_s (server workloads)
	outDir   string // data dirs and trace files
}

// window is the measured interval after warm-up.
func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// warmup precedes every measured window: connections, pools and caches
// settle before timing starts.
func (o options) warmup() time.Duration {
	return min(time.Second, max(20*time.Millisecond, o.window()/10))
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name string
	run  func(o options, m machine, out io.Writer) (*report, error)
}

var workloads = []workload{
	{"trie-read-dram", runTrieReadDRAM},
	{"redis-zadd-group", runZAddGroup},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported figure.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int // measurements behind the value
	note    string
}

// report is what a workload run produced.
type report struct {
	attempted int64
	failed    int64
	failures  []string // the first few failure descriptions
	e2e       []metric // end-to-end metrics (untraced runs)
	info      []metric // printed, not part of the JSON result
	layers    []metric // per-layer metrics (traced runs)
}

const maxFailureNotes = 8

// fail records n failed operations with a description.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// merge adds a load goroutine's counts into r.
func (r *report) merge(c *counts) {
	r.attempted += c.attempted
	r.failed += c.failed
	for _, f := range c.notes {
		if len(r.failures) < maxFailureNotes {
			r.failures = append(r.failures, f)
		}
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func printMetrics(out io.Writer, title string, ms []metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(out, "%s:\n", title)
	for _, m := range ms {
		line := fmt.Sprintf("  %-32s %14.4f %-8s n=%d", m.name, m.value, m.unit, m.samples)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(out, line)
	}
}

// result renders the JSON line: end-to-end metrics, or per-layer metrics
// for a traced run.
func (r *report) result(trace bool) jsonResult {
	ms := r.e2e
	if trace {
		ms = r.layers
	}
	res := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return res
}

func main() {
	o := options{setKeys: 1 << 18, setups: 3, outDir: filepath.Join(".bench_build", "perfbench")}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "seed for keys, values and key choice")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced layer ladder and reports per-layer metrics")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errIncorrect) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

// errIncorrect reports a run that completed but saw failed operations or
// a durability loss; its JSON result has already been printed.
var errIncorrect = errors.New("run saw failed operations")

func run(o options, out io.Writer) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		names := ""
		for _, w := range workloads {
			names += " " + w.name
		}
		return fmt.Errorf("unknown workload %q (want one of:%s)", o.workload, names)
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	m := probeMachine(o.outDir)
	m.banner(out, o)
	rep, err := w.run(o, m, out)
	if err != nil {
		return err
	}
	if o.trace {
		printMetrics(out, "traced end-to-end (compare with untraced runs for tracing overhead)", rep.info)
		printMetrics(out, "per-layer", rep.layers)
	} else {
		printMetrics(out, "end-to-end", rep.e2e)
		printMetrics(out, "also measured", rep.info)
	}
	failedFrac := 0.0
	if rep.attempted > 0 {
		failedFrac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(out, "operations: attempted=%d failed=%d failed_frac=%g\n", rep.attempted, rep.failed, failedFrac)
	for _, f := range rep.failures {
		fmt.Fprintln(out, "FAILURE:", f)
	}
	line, err := json.Marshal(rep.result(o.trace))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !rep.correct() {
		return errIncorrect
	}
	return nil
}
