// Command benchmark is the repository's benchmark: four query-distribution
// workloads driven closed-loop through rankcube's public API, verified
// against scan oracles, reporting wall-clock, governed block reads and
// modelled-I/O time side by side, plus a traced per-layer pass.
//
// Run it through run.sh, which builds this command and the layer tracer into
// .bench_build/ first:
//
//	bash benchmark/run.sh --seed 1                      # all workloads, both passes
//	bash benchmark/run.sh --workload sig-topk --seed 1 --seconds 10 --trace 0
//
// Every pass prints one "workload metric value unit" line per metric and then
// one JSON object {"correct","attempted","failed","metrics"}; with a single
// workload and a single pass that object is the last line of standard output.
// This command imports only the root rankcube package (through
// benchmark/workload); everything that touches rankcube/internal lives in
// benchmark/layertrace, a separate program this one executes for the traced
// pass, so an internal refactor can cost the per-layer numbers but never the
// end-to-end ones.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rankcube/benchmark/report"
	"rankcube/benchmark/workload"
)

// maxProcs pins the scheduler to the reference box's two cores, so a bigger
// machine does not turn the two-client workload into a different experiment.
const maxProcs = 2

func main() {
	name := flag.String("workload", "", "run only this workload (default: all four)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 15, "length of each timed window")
	trace := flag.Int("trace", -1, "0: end-to-end pass only, 1: traced per-layer pass only (default: both)")
	out := flag.String("out", "", "also write every result, with provenance, to this JSON file")
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok, err := run(ctx, *name, *seed, *seconds, *trace, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	// A single pass (the driver's way of calling) reports failures in its
	// JSON line and exits 0; a full run is for people and CI, and fails loudly.
	if !ok && (*name == "" || *trace < 0) {
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed int64, seconds, trace int, out string) (ok bool, err error) {
	specs := workload.All
	if name != "" {
		spec, err := workload.ByName(name)
		if err != nil {
			return false, err
		}
		specs = []workload.Spec{spec}
	}
	file := &report.File{Seed: seed, Seconds: seconds, ReadCostMS: report.ReadCostMS,
		GoVersion: runtime.Version(), GOMAXPROCS: maxProcs, NumCPU: runtime.NumCPU()}
	if out != "" {
		file.Commit, file.CPUModel = commit(ctx), cpuModel()
	}
	ok = true
	for _, spec := range specs {
		for pass := 0; pass <= 1; pass++ {
			if trace >= 0 && trace != pass {
				continue
			}
			var res *report.Result
			if pass == 0 {
				if res, err = endToEnd(ctx, spec, seed, seconds, 1); err == nil {
					err = res.Print(os.Stdout)
				}
			} else {
				res, err = layerTrace(ctx, spec.Name, seed)
			}
			if err != nil {
				return false, err
			}
			ok = ok && res.Correct && res.Failed == 0
			file.Results = append(file.Results, *res)
		}
	}
	if out != "" {
		return ok, file.Write(out)
	}
	return ok, nil
}

// layerTrace executes the separately compiled layer tracer, which run.sh
// builds next to this binary, relays its output, and parses its JSON line.
// The traced pass replays a fixed op count, so it takes no window length.
func layerTrace(ctx context.Context, name string, seed int64) (*report.Result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate layertrace: %w", err)
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, filepath.Join(filepath.Dir(self), "layertrace"),
		"-workload", name, "-seed", strconv.FormatInt(seed, 10))
	var captured bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &captured)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("layertrace %s: %w", name, err)
	}
	var last string
	sc := bufio.NewScanner(&captured)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	res := &report.Result{Workload: name, Trace: 1, WallSeconds: time.Since(start).Seconds()}
	if err := json.Unmarshal([]byte(last), &res.Line); err != nil {
		return nil, fmt.Errorf("layertrace %s: last line is not a result: %w", name, err)
	}
	return res, nil
}

// commit names the checked-out revision when the benchmark runs inside a git
// work tree, and says so when it does not.
func commit(ctx context.Context) string {
	outb, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(outb))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}
