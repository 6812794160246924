package fleet

// Acceptance tests for the deterministic observability layer: the two
// invariants internal/trace promises ("free when off" and
// "deterministic when on") plus the chaos-drill export the ISSUE pins.
//
//   - TestObservabilityZeroPerturbation runs the same seeded
//     kill-drill twice — once bare, once with tracing and metrics
//     attached — and requires byte-identical responses, per-shard
//     cycle counts, and placement load maps. Then it runs the traced
//     drill again and requires the two Chrome-trace exports to be
//     byte-identical.
//   - TestChaosDrillTraceExport checks a kill:0@5 drill exports valid
//     Chrome trace-event JSON containing the kill fault, the replica
//     promotions it forced, and the orphan re-warm spans, all stamped
//     with the kill barrier.
//   - TestDisabledEmissionZeroAllocs / BenchmarkEmitDisabled pin the
//     disabled path at zero allocations (the CI gate greps the
//     benchmark's "0 allocs/op").

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/trace"
)

// drillOutcome captures everything the zero-perturbation property
// compares: every response of every round, the final placement load
// map, and the full stats snapshot (per-shard cycle counts included).
type drillOutcome struct {
	resps [][]Response
	load  []int
	stats Stats
}

// runKillDrill runs the reference observability drill — a replicated
// 3-shard fleet, kill:0@5, eight rounds of the skewed plan — with any
// extra options appended, and returns the outcome. Placement and
// chaos engine instances are single-use, so each call builds fresh
// ones; everything is seeded, so two calls replay identically.
func runKillDrill(t *testing.T, extra ...Option) drillOutcome {
	t.Helper()
	const shards = 3
	rep := placement.NewReplicated(placement.ReplicatedConfig{
		Tuning:      placement.Tuning{ImbalanceThreshold: 1.05, Seed: 7},
		MaxReplicas: shards,
	})
	opts := append(testOpts(shards),
		WithProvision(libcProvisionIdem),
		WithPlacement(rep),
		WithChaos(chaosEngine(t, "kill:0@5", shards)))
	f := newTestFleet(t, append(opts, extra...)...)
	incr := incrID(t, f)

	var out drillOutcome
	for round := 0; round < 8; round++ {
		plan := skewedPlan(incr, 6, 24)
		resps, err := f.RunPlan(plan)
		if err != nil {
			t.Fatalf("round %d: RunPlan: %v", round, err)
		}
		out.resps = append(out.resps, resps)
	}
	out.load = f.PoolLoad()
	out.stats = f.Stats()
	return out
}

// TestObservabilityZeroPerturbation is the headline determinism
// property: attaching the flight recorder and the metrics registry to
// a seeded drill changes nothing the simulation can observe — not one
// response, not one shard cycle, not one placement decision — and the
// trace export itself replays byte for byte.
func TestObservabilityZeroPerturbation(t *testing.T) {
	bare := runKillDrill(t)

	rec := trace.New(trace.Config{})
	observed := runKillDrill(t, WithTrace(rec), WithMetrics(metrics.NewRegistry()))

	if !reflect.DeepEqual(bare.resps, observed.resps) {
		t.Fatal("responses differ between bare and observed runs")
	}
	if !reflect.DeepEqual(bare.load, observed.load) {
		t.Fatalf("placement load maps differ: bare %v, observed %v",
			bare.load, observed.load)
	}
	if !reflect.DeepEqual(bare.stats, observed.stats) {
		t.Fatalf("stats snapshots differ:\nbare:     %+v\nobserved: %+v",
			bare.stats, observed.stats)
	}
	if emitted, _ := rec.Counts(); emitted == 0 {
		t.Fatal("observed run emitted no trace events; the property is vacuous")
	}

	// Same drill traced again: the export must be byte-identical.
	rec2 := trace.New(trace.Config{})
	runKillDrill(t, WithTrace(rec2), WithMetrics(metrics.NewRegistry()))
	var ex1, ex2 bytes.Buffer
	if err := trace.WriteChromeTrace(&ex1, rec.Snapshot()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := trace.WriteChromeTrace(&ex2, rec2.Snapshot()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !bytes.Equal(ex1.Bytes(), ex2.Bytes()) {
		t.Fatalf("trace exports differ between identical seeded runs (%d vs %d bytes)",
			ex1.Len(), ex2.Len())
	}
}

// TestChaosDrillTraceExport pins the flight recorder's story of a kill
// drill: the fault instant, the replica promotions it forces, and the
// orphan re-warm spans all appear, all stamped with the kill barrier,
// and the Chrome-trace document is valid JSON a trace viewer loads.
func TestChaosDrillTraceExport(t *testing.T) {
	rec := trace.New(trace.Config{})
	runKillDrill(t, WithTrace(rec))
	events := rec.Snapshot()

	const killBarrier = 5 // the @5 in kill:0@5; barriers are 1-based
	var fault *trace.Event
	promotes, rewarms := 0, 0
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case trace.KFault:
			fault = e
		case trace.KPromote:
			if e.Barrier != killBarrier {
				t.Errorf("promotion of %q at barrier %d, want %d", e.Key, e.Barrier, killBarrier)
			}
			promotes++
		case trace.KRewarm:
			if e.Barrier != killBarrier {
				t.Errorf("re-warm of %q at barrier %d, want %d", e.Key, e.Barrier, killBarrier)
			}
			if e.Dur == 0 {
				t.Errorf("re-warm of %q has zero duration", e.Key)
			}
			rewarms++
		}
	}
	switch {
	case fault == nil:
		t.Fatal("no KFault event recorded")
	case fault.Note != "kill:0@5":
		t.Fatalf("fault note = %q, want kill:0@5", fault.Note)
	case fault.Barrier != killBarrier:
		t.Fatalf("fault stamped barrier %d, want %d", fault.Barrier, killBarrier)
	case fault.Val != 0:
		t.Fatalf("fault shard = %d, want 0", fault.Val)
	}
	if promotes == 0 {
		t.Error("kill of a replicated key's primary recorded no KPromote events")
	}
	if rewarms == 0 {
		t.Error("kill recorded no KRewarm spans for orphaned keys")
	}

	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, events); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("Chrome trace export is not valid JSON")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decoding export: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export holds no trace events")
	}
	for _, want := range []string{"kill:0@5", "promote", "rewarm"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("export does not mention %q", want)
		}
	}
}

// TestDisabledEmissionZeroAllocs pins the "free when off" invariant:
// with no recorder attached, the emission guards along the
// route→inject→finish path allocate nothing. (The guards are nil
// checks; this test keeps them that way.)
func TestDisabledEmissionZeroAllocs(t *testing.T) {
	sh := &shard{id: 1} // ring == nil: observability compiled in, disabled
	allocs := testing.AllocsPerRun(1000, func() {
		sh.emitSpan(trace.KCall, 0, "k00", "")
		sh.emitSpan(trace.KRewarm, 0, "k00", "")
	})
	if allocs != 0 {
		t.Fatalf("disabled emission path allocates %.1f per call, want 0", allocs)
	}
}

// BenchmarkEmitDisabled is the CI-gated microbenchmark behind the
// zero-alloc invariant: it drives the per-call emission helper with no
// ring attached — exactly what every route→inject→finish emission
// site does on an untraced fleet — and must report 0 allocs/op.
func BenchmarkEmitDisabled(b *testing.B) {
	sh := &shard{id: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sh.emitSpan(trace.KCall, uint64(i), "k00", "")
	}
}

// BenchmarkCallObservability measures the full Call path with the
// observability layer disabled and enabled — the end-to-end
// perspective behind the microbenchmark's 0 allocs/op gate. Not
// CI-gated (the path inherently allocates its job bookkeeping); the
// pair documents that tracing's cost stays in host time, not
// simulated behavior.
func BenchmarkCallObservability(b *testing.B) {
	run := func(b *testing.B, extra ...Option) {
		f, err := Open(append(testOpts(1), extra...)...)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		incr, ok := f.FuncID("incr")
		if !ok {
			b.Fatal("libc module has no incr")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.Call("k00", incr, uint32(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b) })
	b.Run("on", func(b *testing.B) {
		run(b, WithTrace(trace.New(trace.Config{})), WithMetrics(metrics.NewRegistry()))
	})
}
