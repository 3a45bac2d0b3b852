package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"rankcube/benchmark/report"
	"rankcube/benchmark/stat"
	"rankcube/benchmark/workload"
)

// setupRuns is how many times a pass generates and builds its workload;
// setup_s is the median, and the last build is the one measured.
const setupRuns = 3

// warmupShare of the window length is spent, untimed, on read requests
// before the window opens. They come from the tail of the op list, which the
// window reaches last if at all, so the warm-up does not pre-answer the
// window's first requests.
const warmupShare = 0.1

// endToEnd runs one workload's end-to-end pass: set-up, warm-up, a timed
// closed-loop window of at least seconds, then oracle verification. Nothing
// is attached to a request but WithMetrics. scale is 1 outside tests.
func endToEnd(ctx context.Context, spec workload.Spec, seed int64, seconds int, scale float64) (*report.Result, error) {
	passStart := time.Now()
	var data *workload.Data
	var inst workload.Instance
	setups := make([]float64, setupRuns)
	for i := range setups {
		inst, data = nil, nil // let the previous build be collected
		runtime.GC()
		start := time.Now()
		var err error
		if data, err = spec.Generate(seed, scale); err != nil {
			return nil, err
		}
		inst = spec.Build(data)
		setups[i] = time.Since(start).Seconds()
	}
	sample := pickSample(data.Ops, spec.Sample, seed)

	length := time.Duration(seconds) * time.Second
	warm := workload.NewRecorder(0, 0)
	warmEnd := time.Now().Add(time.Duration(warmupShare * float64(length)))
	for i := len(data.Ops) - 1; i >= 0 && time.Now().Before(warmEnd); i-- {
		if data.Ops[i].IsRead() {
			inst.Exec(ctx, &data.Ops[i], warm)
		}
	}

	win := runWindow(ctx, spec, inst, data.Ops, length)

	var queryMS, writeMS []float64
	ops, failed := 0, 0
	var prefix workload.Snapshot
	for c, r := range win.recs {
		ops += r.Ops
		failed += r.Failed
		prefix.Queries += win.prefix[c].Queries
		prefix.Reads += win.prefix[c].Reads
		queryMS = appendMS(queryMS, r.QueryNS)
		writeMS = appendMS(writeMS, r.WriteNS)
	}
	if len(queryMS) == 0 || prefix.Queries == 0 {
		return nil, fmt.Errorf("%s: window finished no query", spec.Name)
	}
	queryMean := mean(queryMS)
	queryMS, writeMS = stat.Sorted(queryMS), stat.Sorted(writeMS)

	// Live heap: structures plus anything the system retained, with the
	// harness's own bulk (op list, latency samples) released first.
	win.recs, data.Ops = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	var check workload.Check
	for i := range sample {
		c := inst.Verify(ctx, &sample[i])
		check.Answers += c.Answers
		check.Bad += c.Bad
		check.EngineReads += c.EngineReads
		check.OracleReads += c.OracleReads
	}
	if check.EngineReads == 0 {
		return nil, fmt.Errorf("%s: verification sample charged no engine read", spec.Name)
	}

	res := &report.Result{Workload: spec.Name, Samples: map[string]int{"query": len(queryMS)}}
	res.Attempted = len(queryMS) + len(writeMS) + check.Answers
	res.Failed = failed + check.Bad
	res.Correct = res.Failed == 0
	readsPerQuery := float64(prefix.Reads) / float64(prefix.Queries)
	oracleReadsPerQuery := float64(check.OracleReads) / float64(len(sample))
	res.Set("setup_s", stat.Median(setups), "s")
	res.Set("throughput_ops_s", float64(ops)/win.wall.Seconds(), "1/s")
	res.Set("query_p50_ms", stat.Percentile(queryMS, 0.50), "ms")
	res.Set("query_p95_ms", stat.Percentile(queryMS, 0.95), "ms")
	res.Set("query_mean_ms", queryMean, "ms")
	res.Set("cpu_ms_per_op", win.cpu.Seconds()*1e3/float64(ops), "ms")
	res.Set("reads_per_query", readsPerQuery, "count")
	res.Set("modelled_ms_per_query", queryMean+report.ReadCostMS*readsPerQuery, "ms")
	res.Set("io_saving_x", oracleReadsPerQuery/readsPerQuery, "x")
	res.Set("alloc_kb_per_op", float64(win.allocBytes)/1024/float64(ops), "KB")
	res.Set("heap_mb", float64(ms.HeapAlloc)/(1<<20), "MB")
	res.Set("space_amp", win.spaceAmp, "x")

	// Percentiles that are not end-to-end metrics are still printed: p99 is
	// too few samples deep in a window this short to gate on (it needs a
	// thousand reads for ten beyond it), and write latency exists on one
	// workload only, while every end-to-end metric must exist on all four —
	// writes are gated through sig-churn's throughput_ops_s and cpu_ms_per_op.
	info := func(name string, sorted []float64, p float64) {
		if stat.Supports(len(sorted), p) {
			fmt.Printf("%s %s %.6g ms (not gated; %d samples beyond)\n",
				spec.Name, name, stat.Percentile(sorted, p), stat.Beyond(len(sorted), p))
		}
	}
	if !stat.Supports(len(queryMS), 0.95) {
		fmt.Printf("%s note: %d read samples leave fewer than %d beyond p95\n", spec.Name, len(queryMS), stat.MinBeyond)
	}
	info("query_p99_ms", queryMS, 0.99)
	if len(writeMS) > 0 {
		res.Samples["write"] = len(writeMS)
		info("write_p50_ms", writeMS, 0.50)
		info("write_p95_ms", writeMS, 0.95)
		info("write_p99_ms", writeMS, 0.99)
	}
	res.WallSeconds = time.Since(passStart).Seconds()
	return res, nil
}

type window struct {
	wall, cpu  time.Duration
	allocBytes uint64
	recs       []*workload.Recorder
	// prefix[c] is client c's share of the fixed op prefix; spaceAmp is
	// taken when client 0 crosses the prefix boundary, so on a workload with
	// writes it does not depend on how far the window got.
	prefix   []workload.Snapshot
	spaceAmp float64
}

// runWindow is the timed window: spec.Clients closed-loop clients, client c
// issuing ops c, c+Clients, …, each waiting for its reply before sending the
// next. A client stops once the window has lasted d and it is past the op
// prefix; a read-only list wraps around, a list with writes ends the window
// early if it runs out.
func runWindow(ctx context.Context, spec workload.Spec, inst workload.Instance, ops []workload.Op, d time.Duration) *window {
	prefixOps := spec.Prefix
	if prefixOps > len(ops) {
		prefixOps = len(ops)
	}
	w := &window{
		recs:   make([]*workload.Recorder, spec.Clients),
		prefix: make([]workload.Snapshot, spec.Clients),
	}
	for c := range w.recs {
		w.recs[c] = workload.NewRecorder(1<<20, 1<<16)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuBefore := processCPU()
	start := time.Now()
	deadline := start.Add(d)

	var wg sync.WaitGroup
	for c := 0; c < spec.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := w.recs[c]
			inPrefix := true
			for i := c; ; i += spec.Clients {
				if inPrefix && i >= prefixOps {
					inPrefix = false
					w.prefix[c] = r.Snapshot()
					if c == 0 {
						w.spaceAmp = float64(inst.MaterializedBytes()) / float64(inst.BaseBytes())
					}
				}
				if !inPrefix && time.Now().After(deadline) {
					return
				}
				if i >= len(ops) && !spec.ReadOnly {
					return
				}
				inst.Exec(ctx, &ops[i%len(ops)], r)
			}
		}(c)
	}
	wg.Wait()

	w.wall = time.Since(start)
	w.cpu = processCPU() - cpuBefore
	runtime.ReadMemStats(&after)
	w.allocBytes = after.TotalAlloc - before.TotalAlloc
	return w
}

// processCPU is the process's user+system CPU time so far. It sees the GC
// work a single client's wall clock hides on the second core.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pickSample copies n read ops out of ops, chosen by a stream of its own
// derived from the seed, so the sample does not move when the op mix does.
func pickSample(ops []workload.Op, n int, seed int64) []workload.Op {
	var reads []int
	for i := range ops {
		if ops[i].IsRead() {
			reads = append(reads, i)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x73616d706c65)) // "sample"
	rng.Shuffle(len(reads), func(a, b int) { reads[a], reads[b] = reads[b], reads[a] })
	if n > len(reads) {
		n = len(reads)
	}
	out := make([]workload.Op, n)
	for i := range out {
		out[i] = ops[reads[i]]
	}
	return out
}

func appendMS(dst []float64, ns []int64) []float64 {
	for _, v := range ns {
		dst = append(dst, float64(v)/1e6)
	}
	return dst
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
