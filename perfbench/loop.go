package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// unitFunc performs one request unit (a MultiGet call or a pipeline round
// trip) and returns how many of its operations were correct; stop ends the
// worker early (its connection broke).
type unitFunc func() (ok int, stop bool)

// memDelta is the Go runtime's view of the measured window, read from
// outside the system under test with runtime.ReadMemStats.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
}

// closedLoop runs one worker per unit function until the window closes:
// each sends its next request unit only after the previous one finished.
// The first warm of the run is not measured. With keep, a sample is kept
// for each unit that started and finished inside the window; without it
// the benchmark allocates nothing in the window, so the memory figures
// count only the units' own work. okOps counts the correct operations of
// those units either way.
func closedLoop(units []unitFunc, warm, window time.Duration, keep bool) (samples []sample, okOps int64, md memDelta) {
	start := time.Now()
	from := start.Add(warm)
	end := from.Add(window)
	perWorker := make([][]sample, len(units))
	perWorkerOK := make([]int64, len(units))
	var wg sync.WaitGroup
	for g, unit := range units {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out []sample
			if keep {
				out = make([]sample, 0, 1<<14)
			}
			var okSum int64
			for {
				t0 := time.Now()
				ok, stop := unit()
				t1 := time.Now()
				if !t0.Before(from) && !t1.After(end) {
					okSum += int64(ok)
					if keep {
						out = append(out, sample{lat: t1.Sub(t0).Nanoseconds(), ok: int32(ok)})
					}
				}
				if stop || !t1.Before(end) {
					break
				}
			}
			perWorker[g], perWorkerOK[g] = out, okSum
		}()
	}
	var before, after runtime.MemStats
	time.Sleep(time.Until(from))
	runtime.ReadMemStats(&before)
	time.Sleep(time.Until(end))
	runtime.ReadMemStats(&after)
	wg.Wait()
	for g := range units {
		samples = append(samples, perWorker[g]...)
		okOps += perWorkerOK[g]
	}
	return samples, okOps, memDelta{allocBytes: after.TotalAlloc - before.TotalAlloc, gcCycles: after.NumGC - before.NumGC}
}

// goLayerWindow runs units, with tr off, for an untraced and sample-free
// window a quarter of the measured one, and returns the go layer's
// metrics from it.
func goLayerWindow(units []unitFunc, tr *tracer, o options) []metric {
	window := o.window() / 4
	tr.off = true
	_, okOps, md := closedLoop(units, o.warmup(), window, false)
	tr.off = false
	return goMetrics(okOps, md, window)
}

// windowMetrics turns a window into the gated end-to-end metric
// (throughput over the whole window) and the latency percentiles that are
// printed with their sample counts but not gated.
//
// No latency percentile holds still between runs of the same code on every
// workload. Under -exec serial a pipeline either runs at once or waits for
// the other connection's, so round trips cluster at ~175, ~230 and
// ~350 µs and p50 falls between clusters; 1-4% of pipelines stall 2-4 ms
// on the lock hand-off, so p99 sits on the edge of the stalls; and under
// -fsync group each round trip waits one or two commit cycles, so p90
// follows the share of slow fsyncs. Across runs these moved by a quarter
// to four fifths of their value. Throughput, which in a closed loop is the
// inverse of the mean round trip, moved least.
func windowMetrics(samples []sample, window time.Duration) (e2e, latency []metric) {
	ws := summarize(samples, window)
	e2e = []metric{
		{name: "throughput_kops", value: ws.kops, unit: "kops/s", samples: ws.samples, note: "whole window"},
	}
	latency = []metric{
		{name: "latency_p50_us", value: ws.p50, unit: "us", samples: ws.samples},
		{name: "latency_p90_us", value: ws.p90, unit: "us", samples: ws.samples},
		{name: "latency_p99_us", value: ws.p99, unit: "us", samples: ws.samples,
			note: fmt.Sprintf("%d samples beyond", ws.samples/100)},
	}
	if ws.samples >= 10_000 {
		latency = append(latency, metric{name: "latency_p999_us", value: ws.p999, unit: "us", samples: ws.samples,
			note: fmt.Sprintf("%d samples beyond", ws.samples/1000)})
	}
	return e2e, latency
}

// goMetrics turns an untraced, sample-free window into the go layer's
// metrics: what the system under test allocates per correct operation and
// how often the collector runs.
func goMetrics(okOps int64, md memDelta, window time.Duration) []metric {
	allocPerOp := 0.0
	if okOps > 0 {
		allocPerOp = float64(md.allocBytes) / float64(okOps)
	}
	return []metric{
		{name: "go.alloc_bytes_per_op", value: allocPerOp, unit: "B/op", samples: int(okOps)},
		{name: "go.gc_cycles_per_s", value: float64(md.gcCycles) / window.Seconds(), unit: "1/s", samples: int(md.gcCycles)},
	}
}
