// Command perfbench is the repository's benchmark: it runs one named
// workload against the SecModule stack for a fixed time, checks every
// reply, and prints its metrics as one JSON line.
//
//	perfbench --workload served-warm --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run;
// with --trace 1 it runs the workload again with spans recorded at each
// layer boundary and prints the per-layer metrics, writing the spans
// under --trace-dir. --repeat N runs the workload N times in child
// processes on seeds seed..seed+N-1 and prints each metric's median
// and quartiles instead (the steadiness report). See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// metricDef is one reported metric, named and united as
// BENCHMARK.json declares it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"calls_per_s", "1/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"cpu_us_per_call", "us"},
	{"sim_us_per_call", "sim_us"},
	{"allocs_per_call", "count"},
	{"bytes_per_call", "B"},
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
	{"ok_ratio", "ratio"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{"rpc.call_p50_us", "us"},
	{"fleet.call_p50_us", "us"},
	{"fleet.call_p90_us", "us"},
	{"rpc.self_p50_us", "us"},
	{"rpc.release_p50_us", "us"},
	{"core.sessions_per_call", "count"},
	{"core.policy_checks_per_call", "count"},
	{"fleet.evictions_per_call", "count"},
	{"kern.ctxsw_per_call", "count"},
	{"kern.syscalls_per_call", "count"},
	{"fleet.shard_skew", "ratio"},
	{"vm.fetch_exec_ns", "ns"},
	{"vm.read32_ns", "ns"},
	{"vm.frames_leaked_per_session", "count"},
	{"sim.host_ns_per_sim_us", "ns/sim_us"},
	{"go.gc_per_kcall", "count"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, d time.Duration, traced bool) (outcome, error){
	"sm32-incr":    runSM32,
	"served-warm":  func(seed int64, d time.Duration, tr bool) (outcome, error) { return runServed(false, seed, d, tr) },
	"served-churn": func(seed int64, d time.Duration, tr bool) (outcome, error) { return runServed(true, seed, d, tr) },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run measured.
type outcome struct {
	// attempted and failed count operations (calls and, on
	// served-churn, releases); calls counts calls with a correct reply.
	attempted, failed, calls int64
	metrics                  map[string]metric
	// samples describes the sample counts behind the metrics.
	samples string
	// rec holds the spans of a traced run.
	rec *recorder
	// err is the first failure seen, if any.
	err error
}

func (o *outcome) add(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				if o.metrics == nil {
					o.metrics = map[string]metric{}
				}
				o.metrics[name] = metric{v, d.unit}
				return
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// addProbes adds the per-layer metrics every workload measures in side
// kernels of its own: the vm translation timings and the frame leak.
func (o *outcome) addProbes() error {
	fetch, read, err := probeVM()
	if err != nil {
		return err
	}
	leak, err := probeLeak()
	if err != nil {
		return err
	}
	o.add("vm.fetch_exec_ns", fetch)
	o.add("vm.read32_ns", read)
	o.add("vm.frames_leaked_per_session", leak)
	return nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: sm32-incr, served-warm or served-churn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "seconds the measured phase runs")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "directory the spans of a traced run are written to")
	repeat := flag.Int("repeat", 0, "steadiness mode: run N times on successive seeds and print medians and quartiles")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload sm32-incr|served-warm|served-churn, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	if *repeat > 0 {
		os.Exit(steady(*repeat, *seed))
	}

	o, err := run(*seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		if _, ok := o.metrics[d.name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", *workload, d.name)
			os.Exit(1)
		}
	}
	if o.rec != nil {
		path, err := o.rec.write(*traceDir, *workload+".jsonl.gz")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "spans: %s\n", path)
	}
	if o.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: first failure: %v\n", *workload, o.err)
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d attempted, %d failed; %s\n",
		*workload, *seed, o.attempted, o.failed, o.samples)
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-30s %14.6g %s\n", d.name, o.metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(result{
		Correct:   o.failed == 0 && o.err == nil,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// steady re-runs this command n times in child processes, seeds
// seed..seed+n-1, and prints each metric's median, quartiles and
// quartile spread as a share of the median: the evidence a metric's
// bound rests on. It returns the exit code.
func steady(n int, seed int64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "repeat" && f.Name != "seed" {
			args = append(args, "--"+f.Name, f.Value.String())
		}
	})
	values := map[string][]float64{}
	units := map[string]string{}
	code := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, append(args, "--seed", strconv.FormatInt(s, 10))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		r, perr := lastResult(out)
		if err != nil || perr != nil || !r.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d failed: %v %v\n", s, err, perr)
			code = 1
			continue
		}
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-30s %-10s %14s %14s %14s %8s  (%d runs)\n", "metric", "unit", "q1", "median", "q3", "iqr/med", n)
	for _, name := range names {
		vs := values[name]
		if len(vs) < 2 {
			continue
		}
		q1, med, q3 := quartiles(vs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-30s %-10s %14.6g %14.6g %14.6g %7.2f%%\n", name, units[name], q1, med, q3, spread*100)
	}
	return code
}

// lastResult parses the JSON result on the last line of out.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if last == nil {
		return result{}, errors.New("no output")
	}
	var r result
	err := json.Unmarshal(last, &r)
	return r, err
}
