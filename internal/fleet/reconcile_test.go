package fleet

// Reconcile-hook tests: the barrier-point control surface the
// internal/reconcile loop drives — SwapPlacement, SetAutoscaler,
// Inventory/Barriers — plus the regression test pinning the
// deterministic winner when a reconcile drain races the autoscaler's
// drain of the same shard onto the same barrier.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/autoscale"
	"repro/internal/placement"
)

// comfortableAuto is an autoscaler band under which every non-empty
// window is comfortable (1 s SLO) and a single such window triggers a
// drain of the highest-id shard (uniform prices, HoldWindows 1).
func comfortableAuto(min, max int) Option {
	return WithAutoscalerConfig(autoscale.Config{
		SLOMicros:   1e6,
		Min:         min,
		Max:         max,
		HoldWindows: 1,
	})
}

// TestReconcileDrainBeatsAutoscaler is the drain-race regression test.
// Control run: with HoldWindows=1 under a generous SLO, the autoscaler
// drains the highest-id shard (2) at the barrier after the first warm
// window. Race run: a reconcile-side DrainShard(2) queued before that
// barrier targets the same shard. First queued wins — the reconcile
// drain executes, the autoscaler's same-shard decision degrades to
// ErrDrainInProgress (tolerated, window held), and exactly one drain
// happens. Every later DrainShard(2) reports ErrDrainInProgress via
// errors.Is, and the whole drill replays bit-for-bit.
func TestReconcileDrainBeatsAutoscaler(t *testing.T) {
	// Control: prove the autoscaler on its own picks shard 2 here.
	ctl := newTestFleet(t, append(testOpts(3),
		WithProvision(libcProvisionIdem),
		comfortableAuto(1, 3))...)
	incr := incrID(t, ctl)
	if err := respErr(ctl.RunPlan(skewedPlan(incr, 4, 8))); err != nil {
		t.Fatal(err)
	}
	if err := respErr(ctl.RunPlan(skewedPlan(incr, 4, 8))); err != nil {
		t.Fatal(err)
	}
	if st := ctl.Stats(); st.ShardsDrained != 1 {
		t.Fatalf("control: ShardsDrained = %d after 2 rounds, want 1", st.ShardsDrained)
	}
	inv := ctl.Inventory()
	for _, s := range inv {
		if s.ID == 2 {
			t.Fatalf("control: autoscaler did not drain shard 2: %+v", inv)
		}
	}

	// Race: queue the reconcile drain of the same shard before the same
	// barrier the autoscaler decides on.
	run := func() ([]Response, Stats) {
		f := newTestFleet(t, append(testOpts(3),
			WithProvision(libcProvisionIdem),
			comfortableAuto(1, 3))...)
		id := incrID(t, f)
		var all []Response
		resps, err := f.RunPlan(skewedPlan(id, 4, 8))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, resps...)

		// Reconcile side queues first; the draining mark is set now.
		if err := f.DrainShard(2); err != nil {
			t.Fatalf("reconcile DrainShard(2): %v", err)
		}
		// A second control plane asking again is told, via errors.Is.
		if err := f.DrainShard(2); !errors.Is(err, ErrDrainInProgress) {
			t.Fatalf("second DrainShard(2) = %v, want ErrDrainInProgress", err)
		}
		// Inventory reports the shard as draining (still live).
		var draining bool
		for _, s := range f.Inventory() {
			if s.ID == 2 {
				draining = s.Draining
			}
		}
		if !draining {
			t.Fatalf("Inventory does not mark shard 2 draining: %+v", f.Inventory())
		}

		// The barrier: autoscaler wants shard 2 too, loses, holds.
		resps, err = f.RunPlan(skewedPlan(id, 4, 8))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, resps...)
		resps, err = f.RunPlan(skewedPlan(id, 4, 8))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, resps...)
		return all, f.Stats()
	}

	r1, s1 := run()
	r2, s2 := run()

	// Exactly one drain of shard 2 executed at that barrier — not two,
	// not an error. (The autoscaler may shrink further on later
	// windows; it never drains below the floor.)
	if s1.ShardsDrained == 0 {
		t.Fatal("no drain executed")
	}
	if got := 3 - int(s1.ShardsDrained); got < 1 {
		t.Fatalf("ShardsDrained = %d drained below the floor", s1.ShardsDrained)
	}

	// Deterministic replay: identical responses and lifecycle counters.
	if len(r1) != len(r2) {
		t.Fatalf("response counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		a, b := r1[i], r2[i]
		if a.Val != b.Val || a.Shard != b.Shard || a.LatencyCycles != b.LatencyCycles || a.Errno != b.Errno {
			t.Fatalf("response %d differs across identical race runs:\n  %+v\n  %+v", i, a, b)
		}
	}
	if s1.ShardsDrained != s2.ShardsDrained || s1.ShardsAdded != s2.ShardsAdded {
		t.Fatalf("lifecycle counters differ: %d/%d vs %d/%d",
			s1.ShardsAdded, s1.ShardsDrained, s2.ShardsAdded, s2.ShardsDrained)
	}
}

// TestReconcileDrainExactlyOneAtRaceBarrier isolates the race barrier:
// with Min pinned at 2 the autoscaler can shrink 3 -> 2 at most, so if
// both the reconcile drain and the autoscaler's decision executed the
// fleet would hit the last-live guard or drain twice. It must end at
// exactly 2 live shards with exactly 1 drain.
func TestReconcileDrainExactlyOneAtRaceBarrier(t *testing.T) {
	f := newTestFleet(t, append(testOpts(3),
		WithProvision(libcProvisionIdem),
		comfortableAuto(2, 3))...)
	incr := incrID(t, f)
	if err := respErr(f.RunPlan(skewedPlan(incr, 4, 8))); err != nil {
		t.Fatal(err)
	}
	if err := f.DrainShard(2); err != nil {
		t.Fatalf("DrainShard(2): %v", err)
	}
	for round := 0; round < 3; round++ {
		if err := respErr(f.RunPlan(skewedPlan(incr, 4, 8))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if st := f.Stats(); st.ShardsDrained != 1 {
		t.Fatalf("ShardsDrained = %d, want exactly 1", st.ShardsDrained)
	}
	if n := f.LiveShards(); n != 2 {
		t.Fatalf("LiveShards = %d, want 2", n)
	}
	if err := f.DrainShard(2); !errors.Is(err, ErrShardDown) {
		t.Fatalf("DrainShard(2) after retirement = %v, want ErrShardDown", err)
	}
}

// TestSwapPlacementAppliesAtBarrier pins the live strategy swap: the
// queued strategy is invisible until the next barrier, then all
// routing runs through it, calls keep succeeding (functionally
// idempotent workload), and the drill replays bit-for-bit.
func TestSwapPlacementAppliesAtBarrier(t *testing.T) {
	run := func() ([]Response, []int) {
		f := newTestFleet(t, append(testOpts(2), WithProvision(libcProvisionIdem))...)
		incr := incrID(t, f)
		var all []Response
		resps, err := f.RunPlan(skewedPlan(incr, 6, 12))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, resps...)

		before := f.placement()
		if err := f.SwapPlacement(placement.NewHeatMigrate(placement.Tuning{
			ImbalanceThreshold: 1.05, Seed: 7,
		})); err != nil {
			t.Fatalf("SwapPlacement: %v", err)
		}
		if f.placement() != before {
			t.Fatal("swap visible before the barrier")
		}

		for round := 0; round < 3; round++ {
			resps, err := f.RunPlan(skewedPlan(incr, 6, 12))
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			all = append(all, resps...)
		}
		if f.placement() == before {
			t.Fatal("swap did not apply at the barrier")
		}
		for i, r := range all {
			if r.Err != nil || r.Errno != 0 {
				t.Fatalf("call %d lost across the swap: err=%v errno=%d", i, r.Err, r.Errno)
			}
		}
		return all, f.PoolLoad()
	}
	r1, l1 := run()
	r2, l2 := run()
	if len(r1) != len(r2) {
		t.Fatalf("response counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		a, b := r1[i], r2[i]
		if a.Val != b.Val || a.Shard != b.Shard || a.LatencyCycles != b.LatencyCycles {
			t.Fatalf("response %d differs across identical swap runs:\n  %+v\n  %+v", i, a, b)
		}
	}
	if fmt.Sprint(l1) != fmt.Sprint(l2) {
		t.Fatalf("post-swap load differs: %v vs %v", l1, l2)
	}
	// The new strategy owns the keys: total tracked load is non-zero.
	total := 0
	for _, n := range l1 {
		total += n
	}
	if total == 0 {
		t.Fatalf("swapped-in strategy tracks no load: %v", l1)
	}
}

// TestSwapPlacementErrors pins the argument contract.
func TestSwapPlacementErrors(t *testing.T) {
	f := newTestFleet(t, append(testOpts(2), WithProvision(libcProvisionIdem))...)
	if err := f.SwapPlacement(nil); err == nil {
		t.Fatal("SwapPlacement(nil) succeeded, want error")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.SwapPlacement(placement.NewSticky()); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("SwapPlacement after Close = %v, want ErrFleetClosed", err)
	}
}

// TestSetAutoscalerLive pins live autoscaler install and removal: a
// fleet opened without one starts shrinking once a comfortable-band
// controller is installed, and stops when the controller is removed.
func TestSetAutoscalerLive(t *testing.T) {
	f := newTestFleet(t, append(testOpts(3), WithProvision(libcProvisionIdem))...)
	incr := incrID(t, f)
	for round := 0; round < 3; round++ {
		if err := respErr(f.RunPlan(skewedPlan(incr, 4, 8))); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.Stats(); st.ShardsDrained != 0 {
		t.Fatalf("drained %d shards with no autoscaler", st.ShardsDrained)
	}

	if err := f.SetAutoscaler(&autoscale.Config{SLOMicros: 1e6, Min: 2, Max: 3, HoldWindows: 1}); err != nil {
		t.Fatalf("SetAutoscaler: %v", err)
	}
	for round := 0; round < 3; round++ {
		if err := respErr(f.RunPlan(skewedPlan(incr, 4, 8))); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.LiveShards(); n != 2 {
		t.Fatalf("LiveShards = %d after install, want 2 (shrunk to Min)", n)
	}

	// Removal: widen nothing, remove the controller, nothing changes.
	if err := f.SetAutoscaler(nil); err != nil {
		t.Fatalf("SetAutoscaler(nil): %v", err)
	}
	before := f.Stats().ShardsDrained
	for round := 0; round < 3; round++ {
		if err := respErr(f.RunPlan(skewedPlan(incr, 4, 8))); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.Stats().ShardsDrained; got != before {
		t.Fatalf("drains after removal: %d -> %d, want unchanged", before, got)
	}

	// Validation: a broken config is rejected at the call, not the barrier.
	if err := f.SetAutoscaler(&autoscale.Config{SLOMicros: 0, Min: 1, Max: 2}); err == nil {
		t.Fatal("SetAutoscaler with zero SLO succeeded, want error")
	}
}

// TestInventoryAndBarriers pins the observer surface the reconcile
// loop plans from: ascending ids with profiles, draining flags while a
// drain is queued, retired shards dropped, and a monotonic barrier
// counter that ticks once per RunPlan barrier.
func TestInventoryAndBarriers(t *testing.T) {
	f := newTestFleet(t, append(testOpts(3), WithProvision(libcProvisionIdem))...)
	incr := incrID(t, f)

	inv := f.Inventory()
	if len(inv) != 3 {
		t.Fatalf("Inventory len = %d, want 3", len(inv))
	}
	for i, s := range inv {
		if s.ID != i || s.Draining {
			t.Fatalf("inventory[%d] = %+v, want id %d, not draining", i, s, i)
		}
		if s.Profile.Name != "fast" {
			t.Fatalf("inventory[%d] profile = %q, want fast", i, s.Profile.Name)
		}
	}

	b0 := f.Barriers()
	if err := respErr(f.RunPlan(skewedPlan(incr, 4, 8))); err != nil {
		t.Fatal(err)
	}
	if got := f.Barriers(); got != b0+1 {
		t.Fatalf("Barriers = %d after one RunPlan, want %d", got, b0+1)
	}

	if err := f.DrainShard(1); err != nil {
		t.Fatal(err)
	}
	var marked bool
	for _, s := range f.Inventory() {
		if s.ID == 1 && s.Draining {
			marked = true
		}
	}
	if !marked {
		t.Fatalf("queued drain not visible in Inventory: %+v", f.Inventory())
	}

	if err := respErr(f.RunPlan(skewedPlan(incr, 4, 8))); err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Inventory() {
		if s.ID == 1 {
			t.Fatalf("retired shard still in Inventory: %+v", f.Inventory())
		}
	}
	if got := len(f.Inventory()); got != 2 {
		t.Fatalf("Inventory len = %d after retirement, want 2", got)
	}
}
