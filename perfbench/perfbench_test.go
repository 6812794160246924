package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/measure"
	"repro/internal/rpc"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median.
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 3.75, 7.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// faultyBackend answers like the fleet except that it returns a wrong
// value for every fourth argument and a nonzero errno for every
// seventh, counting what it injected.
type faultyBackend struct {
	mu       sync.Mutex
	injected int64
}

func (b *faultyBackend) FleetCall(key string, funcID uint32, args []uint32) (uint32, int32, int32, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch a := args[0]; {
	case a%4 == 0:
		b.injected++
		return a, 0, 0, nil
	case a%7 == 0:
		b.injected++
		return a + 1, 13, 0, nil
	default:
		return a + 1, 0, 0, nil
	}
}

func (b *faultyBackend) FleetRelease(string) error { return nil }

func (b *faultyBackend) FleetFuncID(string) (uint32, bool) { return 1, true }

func TestOkRatioCountsInjectedFailures(t *testing.T) {
	b := &faultyBackend{}
	srv := rpc.NewServer()
	rpc.RegisterFleetService(srv, b)
	c := newClient(0, 42, warmKeys(), true)
	c.fc, c.incr = &rpc.FleetClient{C: rpc.NewPipeClient(srv)}, 1
	start := time.Now()
	if err := c.run(start, start.Add(50*time.Millisecond), nil); err != nil {
		t.Fatal(err)
	}
	if c.attempted == 0 || b.injected == 0 {
		t.Fatalf("attempted %d, injected %d: the run exercised nothing", c.attempted, b.injected)
	}
	if c.failed != b.injected {
		t.Errorf("client counted %d failures, backend injected %d", c.failed, b.injected)
	}
	releases := c.rel.n
	if c.calls+c.failed+releases != c.attempted {
		t.Errorf("calls %d + failed %d + releases %d != attempted %d", c.calls, c.failed, releases, c.attempted)
	}
	want := float64(c.attempted-b.injected) / float64(c.attempted)
	if got := okRatio(c.attempted, c.failed); got != want || got >= 1 {
		t.Errorf("okRatio = %v, want %v (< 1)", got, want)
	}
	if okRatio(0, 0) != 0 {
		t.Error("okRatio of nothing attempted must be 0")
	}
}

func TestReleaseFailureIsCounted(t *testing.T) {
	srv := rpc.NewServer()
	rpc.RegisterFleetService(srv, releaseFails{})
	c := newClient(0, 7, warmKeys(), true)
	c.fc, c.incr = &rpc.FleetClient{C: rpc.NewPipeClient(srv)}, 1
	start := time.Now()
	if err := c.run(start, start.Add(time.Second), nil); err == nil {
		t.Fatal("a failed release ack did not end the client")
	}
	if c.failed != 1 || c.calls == 0 {
		t.Errorf("failed %d calls %d, want exactly the release failed", c.failed, c.calls)
	}
}

type releaseFails struct{}

func (releaseFails) FleetCall(_ string, _ uint32, args []uint32) (uint32, int32, int32, error) {
	return args[0] + 1, 0, 0, nil
}
func (releaseFails) FleetRelease(string) error         { return errors.New("release refused") }
func (releaseFails) FleetFuncID(string) (uint32, bool) { return 1, true }

func TestNormaliseFleetStatsDelta(t *testing.T) {
	before := fleet.Stats{
		SessionsOpened: 10, Evictions: 1,
		PerShard: []fleet.ShardStats{
			{Shard: 0, Calls: 100, Cycles: 1000, ContextSwitches: 50, Syscalls: 70, PolicyChecks: 5},
			{Shard: 1, Calls: 100, Cycles: 1000, ContextSwitches: 50, Syscalls: 70, PolicyChecks: 5},
		},
	}
	after := fleet.Stats{
		SessionsOpened: 20, Evictions: 1,
		PerShard: []fleet.ShardStats{
			{Shard: 0, Calls: 160, Cycles: 1000 + 599*30, ContextSwitches: 230, Syscalls: 490, PolicyChecks: 11},
			{Shard: 1, Calls: 140, Cycles: 1000 + 599*50, ContextSwitches: 170, Syscalls: 350, PolicyChecks: 9},
		},
	}
	got := normalise(after.Delta(before), 80)
	want := perCall{
		sessions:     10.0 / 80,
		policyChecks: 10.0 / 80,
		evictions:    0,
		ctxsw:        300.0 / 80,
		syscalls:     700.0 / 80,
		simMicros:    80.0 / 80,
		skew:         60.0 / 50,
	}
	if got != want {
		t.Errorf("normalise = %+v, want %+v", got, want)
	}
	if (normalise(fleet.Stats{}, 0) != perCall{}) {
		t.Error("normalise over zero calls must be zero")
	}
}

func TestSpanParentLinkage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanRPCCall, Key: "a", Arg: 7, Start: 0, End: 100},
		{ID: 2, Name: spanRPCCall, Key: "a", Arg: 7, Start: 200, End: 300}, // same request id, later
		{ID: 3, Name: spanRPCCall, Key: "b", Arg: 7, Start: 0, End: 100},
		{ID: 4, Name: spanFleetCall, Key: "a", Arg: 7, Start: 210, End: 290},
		{ID: 5, Name: spanFleetCall, Key: "a", Arg: 7, Start: 10, End: 90},
		{ID: 6, Name: spanFleetCall, Key: "b", Arg: 8, Start: 10, End: 90},  // no such call
		{ID: 7, Name: spanFleetCall, Key: "b", Arg: 7, Start: 50, End: 150}, // outlives its call
	}
	if n := link(spans, spanRPCCall, spanFleetCall); n != 2 {
		t.Errorf("linked %d, want 2", n)
	}
	for id, want := range map[uint64]uint64{1: 0, 2: 0, 3: 0, 4: 2, 5: 1, 6: 0, 7: 0} {
		if got := spans[id-1].Parent; got != want {
			t.Errorf("span %d parent = %d, want %d", id, got, want)
		}
	}
}

func TestRecorderIDsAndNil(t *testing.T) {
	var off *recorder
	off.end("x", "", 0, off.begin()) // must not panic
	r := newRecorder()
	r.end(spanRPCCall, "k", 1, r.begin())
	r.end(spanFleetCall, "k", 1, r.begin())
	if len(r.spans) != 2 || r.spans[0].ID != 1 || r.spans[1].ID != 2 || r.spans[0].End < r.spans[0].Start {
		t.Errorf("spans %+v", r.spans)
	}
}

func TestFastestShare(t *testing.T) {
	rates := []float64{3, 9, 1, 7, 9, 5, 2, 8, 4, 6, 0}
	if got := fastest(rates, 0.25); !reflect.DeepEqual(got, []int{1, 4, 7}) {
		t.Errorf("fastest quarter of 11 = %v, want [1 4 7]", got)
	}
	if got := fastest(rates[:3], 0.1); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("fastest tenth of 3 = %v, want [1]", got)
	}
	if got := fastest(nil, 0.1); len(got) != 0 {
		t.Errorf("fastest of none = %v", got)
	}
}

func TestWindowRates(t *testing.T) {
	got := windowRates([]int64{2, 1, 3}, 500*time.Millisecond, 1400*time.Millisecond)
	if len(got) != 2 || got[0] != 4 || got[1] != 2 {
		t.Errorf("windowRates = %v, want [4 2] (partial window dropped)", got)
	}
}

func TestHistPercentileWithSampleCount(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Microsecond)
	}
	h.record(-1) // clamps to 0
	var other hist
	other.record(3 * time.Hour)
	h.merge(&other)
	if h.n != 1002 {
		t.Fatalf("n = %d, want 1002", h.n)
	}
	for _, c := range []struct {
		q, want float64
		beyond  int64
	}{
		{0.5, 500, 501},
		{0.9, 901, 100},
		{1, 3 * 3600e6, 0},
	} {
		if got := h.at(c.q); math.Abs(got-c.want) > c.want/1000 {
			t.Errorf("at(%v) = %v us, want %v within 0.1%%", c.q, got, c.want)
		}
		if got := h.beyond(c.q); got != c.beyond {
			t.Errorf("beyond(%v) = %d, want %d", c.q, got, c.beyond)
		}
	}
	var small hist
	small.record(1500 * time.Nanosecond)
	if got := small.at(0.5); got != 1.5 {
		t.Errorf("exact bucket: %v us, want 1.5", got)
	}
	if got := new(hist).at(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
}

// TestSM32ChunkIsFigure8Trial pins the chunk's measured loop to the
// Figure 8 SMOD(test-incr) row: same simulated time per call as
// measure.RunSMODIncr over one trial of the same length.
func TestSM32ChunkIsFigure8Trial(t *testing.T) {
	c, err := runChunk(41, nil)
	if err != nil {
		t.Fatal(err)
	}
	row, err := measure.RunSMODIncr(sm32Calls, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(c.simCycles) / 599 / sm32Calls
	if got != row.MeanMicros {
		t.Errorf("chunk sim us/call = %v, Figure 8 row = %v", got, row.MeanMicros)
	}
	if math.Abs(got-7.359) > 0.0005 {
		t.Errorf("chunk sim us/call = %v, want 7.359", got)
	}
	if c.sessions != 1 || c.syscalls == 0 {
		t.Errorf("sessions %d syscalls %d", c.sessions, c.syscalls)
	}
}

func TestSM32ResultCheckFails(t *testing.T) {
	prog := sm32Program(3, 5)
	b, err := bootSM32(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.run(); err != nil {
		t.Fatalf("correct client: %v", err)
	}
	// A client whose check expects the wrong value must exit non-zero.
	wrong := strings.Replace(prog, "PUSHI 6\n\tNE", "PUSHI 7\n\tNE", 1)
	if wrong == prog {
		t.Fatal("check instruction not found in the program")
	}
	bad, err := bootSM32(wrong, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.run(); err == nil {
		t.Error("a wrong incr result was not reported")
	}
}

// TestServedChurnExactSessionShare runs served-churn briefly against a
// real fleet: every call correct, sessions per call exactly 1/8.
func TestServedChurnExactSessionShare(t *testing.T) {
	o, err := runServed(true, 3, 300*time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 || o.err != nil {
		t.Fatalf("failed %d: %v", o.failed, o.err)
	}
	if got := o.metrics["core.sessions_per_call"].Value; got != 1.0/churnEvery {
		t.Errorf("sessions per call = %v, want %v", got, 1.0/churnEvery)
	}
	if got := o.metrics["fleet.evictions_per_call"].Value; got != 0 {
		t.Errorf("evictions per call = %v, want 0", got)
	}
	for _, d := range perLayer {
		if _, ok := o.metrics[d.name]; !ok {
			t.Errorf("traced run lacks %s", d.name)
		}
	}
}

// TestBenchmarkJSONDeclaresMetrics keeps BENCHMARK.json and the metric
// tables in step.
func TestBenchmarkJSONDeclaresMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, perfbench %d", len(cfg.Workloads), len(workloads))
	}
	for _, w := range cfg.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{cfg.EndToEnd, endToEnd}, {cfg.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defs) {
			t.Errorf("BENCHMARK.json declares %d metrics, perfbench reports %d", len(c.declared), len(c.defs))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.defs[i].name || d.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, perfbench %s %s", i, d.Name, d.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
