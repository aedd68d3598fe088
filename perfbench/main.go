// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the code as it is deployed — the clobbernvm library's
// default clobber engine, or the memcached stack cmd/memcachedsim builds
// with its default flags — checks every output for correctness, and prints
// each metric by name with its unit and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// benchmark wraps the public seams it assembles (engine, txfuncs, store,
// Backend, rebuild) in span recorders and reports per-layer metrics
// instead. Run it through run.py, which builds it from source:
//
//	python3 perfbench/run.py --workload ycsb-load --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"syscall"
)

// setupReps is how many times a run provisions its deployment; setup_s is
// the median, since one provisioning is too noisy to gate on.
const setupReps = 5

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// hooks lets self-tests interpose on the serving Backend.
	hooks hooks
}

// report accumulates one run's outcome.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	// metrics holds the JSON metrics: end-to-end ones untraced, per-layer
	// ones traced.
	metrics map[string]float64
	units   map[string]string
	// violations describes the first correctness violations found.
	violations []string
}

func newReport() *report {
	return &report{correct: true, metrics: map[string]float64{}, units: map[string]string{}}
}

// violate records a correctness violation; the run then reports
// correct=false and the command exits non-zero.
func (r *report) violate(format string, args ...any) {
	r.correct = false
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// metric records a JSON metric and prints it.
func (r *report) metric(name string, v float64, unit string, n int) {
	r.metrics[name] = v
	r.units[name] = unit
	line(name, v, unit, n)
}

// line prints one named figure with its unit and sample count.
func line(name string, v float64, unit string, n int) {
	fmt.Printf("  %-30s %14.4f %-6s n=%d\n", name, v, unit, n)
}

// latency prints a latency figure's median and tail with sample counts.
func latency(prefix string, s *samples) {
	if s.n() == 0 {
		return
	}
	p50, b50 := s.pct(0.5)
	fmt.Printf("  %-30s %14.4f %-6s n=%d beyond=%d\n", prefix+"_p50_us", usOf(p50), "us", s.n(), b50)
	if t := s.tail(); t > 0 {
		v, b := s.pct(t)
		fmt.Printf("  %-30s %14.4f %-6s n=%d beyond=%d\n", prefix+"_"+pctName(t)+"_us", usOf(v), "us", s.n(), b)
	}
}

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

// finish prints the violations and the JSON result line, and returns the
// exit code.
func (r *report) finish() int {
	for _, v := range r.violations {
		fmt.Println("VIOLATION:", v)
	}
	out := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for name, v := range r.metrics {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// JSON has no infinity; a missed latency is reported as the
			// largest finite value so it still fails every bound.
			v = math.MaxFloat64
		}
		out.Metrics[name] = jsonMetric{Value: v, Unit: r.units[name]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !r.correct || r.attempted < 1 {
		return 1
	}
	return 0
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, r *report) error{
	"ycsb-load":     runYCSB,
	"mc-hot-read":   runHotRead,
	"crash-recover": runCrashRecover,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	_, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	os.Exit(execute(cfg))
}

// execute runs one workload and prints its report; it returns the exit code.
func execute(cfg config) int {
	r, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return r.finish()
}

// runWorkload runs one workload, printing its figures as it goes, and
// returns the report.
func runWorkload(cfg config) (*report, error) {
	r := newReport()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	if err := workloads[cfg.workload](cfg, r); err != nil {
		return nil, err
	}
	return r, nil
}
