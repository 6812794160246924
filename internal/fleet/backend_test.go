package fleet

// Tests for the heterogeneous-backend layer: per-shard cost tables,
// flavor-aware provisioning (modcrypt shards), capacity-aware pool
// allocation, cost-aware migration on a mixed fleet, and — the
// property the ISSUE pins — bit-for-bit deterministic RunPlan cycle
// counts on a mixed fleet with migration enabled.

import (
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/placement"
)

// mixOpts builds the test option set over an explicit backend mix.
func mixOpts(t *testing.T, mix string) []Option {
	t.Helper()
	as, err := backend.DefaultCatalog().ParseMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	return append(testOpts(len(as)), WithBackends(as))
}

func TestMixedFleetServesAndReportsProfiles(t *testing.T) {
	f := newTestFleet(t, mixOpts(t, "fast=1,slow=1,crypto=1")...)
	incr := incrID(t, f)
	var plan []Request
	for i := 0; i < 12; i++ {
		plan = append(plan, Request{Key: fmt.Sprintf("m%02d", i), FuncID: incr, Args: []uint32{uint32(i)}})
	}
	resps, err := f.RunPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Err != nil || r.Errno != 0 || r.Val != uint32(i)+1 {
			t.Fatalf("plan[%d] = %+v, want Val %d", i, r, i+1)
		}
	}
	st := f.Stats()
	want := []string{"fast", "slow", "crypto"}
	for i, s := range st.PerShard {
		if s.Profile != want[i] {
			t.Errorf("shard %d profile = %q, want %q", i, s.Profile, want[i])
		}
	}
}

// TestSlowShardChargesScaledCycles: the same single-key workload costs
// ~2.5x the cycles on a slow shard as on a baseline shard.
func TestSlowShardChargesScaledCycles(t *testing.T) {
	cycles := func(mix string) uint64 {
		f := newTestFleet(t, mixOpts(t, mix)...)
		incr := incrID(t, f)
		var plan []Request
		for i := 0; i < 10; i++ {
			plan = append(plan, Request{Key: "solo", FuncID: incr, Args: []uint32{uint32(i)}})
		}
		if err := respErr(f.RunPlan(plan)); err != nil {
			t.Fatal(err)
		}
		return f.Stats().PerShard[0].Cycles
	}
	fast, slow := cycles("fast=1"), cycles("slow=1")
	ratio := float64(slow) / float64(fast)
	if ratio < 2.2 || ratio > 2.8 {
		t.Errorf("slow/fast shard cycle ratio = %.2f (fast %d, slow %d), want ~2.5",
			ratio, fast, slow)
	}
}

// TestModcryptShardSameResponseBytes is the provisioning-equivalence
// test: a shard provisioned with an encrypted module archive serves
// byte-identical responses to a plaintext shard — the flavor may only
// change cycle cost (AES decrypt at session setup plus the profile's
// per-call surcharge), never results.
func TestModcryptShardSameResponseBytes(t *testing.T) {
	run := func(mix string) ([]uint32, uint64) {
		f := newTestFleet(t, mixOpts(t, mix)...)
		incr := incrID(t, f)
		var plan []Request
		for i := 0; i < 8; i++ {
			plan = append(plan, Request{Key: fmt.Sprintf("c%d", i%3), FuncID: incr, Args: []uint32{uint32(7 * i)}})
		}
		resps, err := f.RunPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]uint32, len(resps))
		for i, r := range resps {
			if r.Err != nil || r.Errno != 0 {
				t.Fatalf("%s plan[%d] failed: %+v", mix, i, r)
			}
			vals[i] = r.Val
		}
		return vals, f.Stats().PerShard[0].Cycles
	}
	plainVals, plainCycles := run("fast=1")
	cryptoVals, cryptoCycles := run("crypto=1")
	for i := range plainVals {
		if plainVals[i] != cryptoVals[i] {
			t.Errorf("response %d: plaintext %d != modcrypt %d", i, plainVals[i], cryptoVals[i])
		}
	}
	if cryptoCycles <= plainCycles {
		t.Errorf("modcrypt shard cycles %d not above plaintext %d (AES + per-call surcharge missing)",
			cryptoCycles, plainCycles)
	}
}

// TestWeightedPoolAllocation: on a fast=1,slow=1 fleet, first-sight
// allocation must hand the fast shard ~2.5x the keys of the slow one.
func TestWeightedPoolAllocation(t *testing.T) {
	f := newTestFleet(t, mixOpts(t, "fast=1,slow=1")...)
	incr := incrID(t, f)
	var plan []Request
	for i := 0; i < 35; i++ {
		plan = append(plan, Request{Key: fmt.Sprintf("w%02d", i), FuncID: incr, Args: []uint32{1}})
	}
	if err := respErr(f.RunPlan(plan)); err != nil {
		t.Fatal(err)
	}
	load := f.PoolLoad()
	if len(load) != 2 {
		t.Fatalf("PoolLoad = %v", load)
	}
	// 35 keys at weights (1, 2.5): steady state alternates 5 fast : 2
	// slow, so 25/10.
	if load[0] != 25 || load[1] != 10 {
		t.Errorf("weighted allocation = %v, want [25 10]", load)
	}
}

// runMixedMigrating runs a fixed skewed multi-round plan on a fresh
// mixed fleet with migration enabled and returns the per-shard cycle
// counts plus total migrations.
func runMixedMigrating(t *testing.T, heatOnly bool) ([]uint64, uint64) {
	t.Helper()
	opts := append(mixOpts(t, "fast=2,slow=2"), WithProvision(libcProvisionIdem))
	tuning := placement.Tuning{ImbalanceThreshold: 1.05, Seed: 7}
	if heatOnly {
		opts = append(opts, WithPlacement(placement.NewHeatMigrate(tuning)))
	} else {
		opts = append(opts, WithPlacement(placement.NewCostAware(tuning)))
	}
	f := newTestFleet(t, opts...)
	incr := incrID(t, f)
	for round := 0; round < 5; round++ {
		if err := respErr(f.RunPlan(skewedPlan(incr, 8, 24))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	st := f.Stats()
	cycles := make([]uint64, len(st.PerShard))
	for i, s := range st.PerShard {
		cycles[i] = s.Cycles
	}
	return cycles, st.Migrations
}

// TestMixedFleetDeterministicWithMigration is the ISSUE's property
// test: a fixed plan on a fixed mixed assignment, with cost-aware
// migration enabled, produces bit-for-bit identical per-shard cycle
// counts run after run.
func TestMixedFleetDeterministicWithMigration(t *testing.T) {
	c1, m1 := runMixedMigrating(t, false)
	c2, m2 := runMixedMigrating(t, false)
	if m1 == 0 {
		t.Fatal("mixed skewed workload triggered no migrations")
	}
	if m1 != m2 {
		t.Fatalf("migration counts differ across runs: %d vs %d", m1, m2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Errorf("shard %d cycles differ across runs: %d vs %d", i, c1[i], c2[i])
		}
	}
	// The heat-only variant must be deterministic too (it is the A/B
	// baseline the bench suite sweeps).
	h1, _ := runMixedMigrating(t, true)
	h2, _ := runMixedMigrating(t, true)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Errorf("heat-only shard %d cycles differ across runs: %d vs %d", i, h1[i], h2[i])
		}
	}
}

func TestBackendOptionValidation(t *testing.T) {
	one := []backend.Assignment{{Shard: 0, Profile: backend.Default()}}
	if _, err := Open(append(testOpts(2), WithBackends(one))...); err == nil {
		t.Error("assignment count != shards accepted")
	}
	dup := []backend.Assignment{
		{Shard: 1, Profile: backend.Default()},
		{Shard: 1, Profile: backend.Default()},
	}
	if _, err := Open(append(testOpts(2), WithBackends(dup))...); err == nil {
		t.Error("duplicate shard assignment accepted")
	}
	// WithShards may be omitted with explicit backends.
	f, err := Open(append(testOpts(0), WithBackends(backend.Uniform(2, backend.Default())))...)
	if err != nil {
		t.Fatalf("no WithShards with backends: %v", err)
	}
	if got := len(f.Stats().PerShard); got != 2 {
		t.Errorf("derived shard count = %d, want 2", got)
	}
	f.Close()
}
