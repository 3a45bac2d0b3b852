// Package report is the output format shared by the end-to-end runner, the
// layer tracer and the compare tool: one Result per (workload, pass), printed
// as "workload metric value unit" lines followed by one JSON line, and
// collected into a File for -out.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the outcome of one pass over one workload. The four exported
// JSON keys of the embedded Line are the driver contract; the rest is
// provenance carried only in -out files.
type Result struct {
	Line
	Workload string `json:"workload"`
	// Trace is 0 for the end-to-end pass, 1 for the traced per-layer pass.
	Trace int `json:"trace"`
	// Samples counts the latency samples behind each percentile.
	Samples map[string]int `json:"samples,omitempty"`
	// WallSeconds is how long the whole pass took, set-up included.
	WallSeconds float64 `json:"wall_seconds"`
}

// Line is what a pass prints as the last line of its standard output.
type Line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Set records one metric.
func (r *Result) Set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]Metric)
	}
	r.Metrics[name] = Metric{Value: value, Unit: unit}
}

// Print writes one "workload metric value unit" line per metric, sorted by
// name, then the contract's JSON line.
func (r *Result) Print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, name, m.Value, m.Unit)
	}
	for _, kind := range []string{"query", "write"} {
		if n, ok := r.Samples[kind]; ok {
			fmt.Fprintf(w, "%s %s_samples %d count\n", r.Workload, kind, n)
		}
	}
	line, err := json.Marshal(r.Line)
	if err != nil {
		return fmt.Errorf("report: encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// ReadCostMS is the modelled cost of one governed block read in
// modelled_ms_per_query: a fixed constant, the same 0.1 ms the repository's
// figure reproductions use, printed with every run.
const ReadCostMS = 0.1

// File is what -out writes: where the numbers came from, then the numbers.
type File struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	CPUModel   string   `json:"cpu_model"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	ReadCostMS float64  `json:"read_cost_ms"`
	Results    []Result `json:"results"`
}

// Write stores f as indented JSON at path.
func (f *File) Write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("report: encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// ReadFile loads a File written by Write.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("report: decode %s: %w", path, err)
	}
	return &f, nil
}
