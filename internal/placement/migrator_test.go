package placement

import (
	"reflect"
	"testing"
)

// skewedTracker builds heat with shard 0 clearly overloaded: one big
// key plus a movable medium key on shard 0, a quiet shard 1.
func skewedTracker() *heatTracker {
	h := trackerAlpha(2, 1.0)
	h.Record("big", 0, 10)
	h.Record("medium", 0, 4)
	h.Record("small", 1, 1)
	h.Advance()
	return h
}

func TestPlanMovesHotKeyToColdShard(t *testing.T) {
	h := skewedTracker()
	m := newMigrator(Tuning{MaxMovesPerRound: 1})
	moves := m.plan(h, nil, nil, nil)
	if len(moves) != 1 {
		t.Fatalf("plan = %v, want exactly 1 move", moves)
	}
	// "big" (heat 10) exceeds the hot/cold gap (13) only if moving it
	// would not help; here gap = 14-1 = 13 > 10, so big moves first.
	want := Move{Kind: MoveMigrate, Key: "big", From: 0, To: 1}
	if moves[0] != want {
		t.Fatalf("move = %+v, want %+v", moves[0], want)
	}
	// The tracker's view already reflects the move.
	if _, sid := h.KeyHeat("big"); sid != 1 {
		t.Fatalf("big still on shard %d after plan", sid)
	}
}

func TestPlanSkipsKeyHotterThanGap(t *testing.T) {
	h := trackerAlpha(2, 1.0)
	h.Record("huge", 0, 10)
	h.Record("med", 0, 3)
	h.Record("busy", 1, 9)
	h.Advance()
	// gap = 13-9 = 4: moving "huge" (10) would invert the imbalance;
	// the planner must fall through to "med" (3).
	m := newMigrator(Tuning{MaxMovesPerRound: 1, ImbalanceThreshold: 1.01})
	moves := m.plan(h, nil, nil, nil)
	if len(moves) != 1 || moves[0].Key != "med" {
		t.Fatalf("plan = %v, want [med 0->1]", moves)
	}
}

func TestPlanRespectsThresholdAndBalance(t *testing.T) {
	h := trackerAlpha(2, 1.0)
	h.Record("a", 0, 5)
	h.Record("b", 1, 5)
	h.Advance()
	m := newMigrator(Tuning{})
	if moves := m.plan(h, nil, nil, nil); len(moves) != 0 {
		t.Fatalf("balanced fleet planned moves: %v", moves)
	}
}

func TestPlanCooldownPreventsFlapping(t *testing.T) {
	h := skewedTracker()
	m := newMigrator(Tuning{MaxMovesPerRound: 1})
	first := m.plan(h, nil, nil, nil)
	if len(first) != 1 || first[0].Key != "big" {
		t.Fatalf("first plan = %v, want big to move", first)
	}
	// Re-skew so the migrated key's new home is now the hot shard, next
	// to a cooler companion: "big" (20) fits the gap (26) and is the
	// hottest candidate, so only its cooldown keeps it from moving back.
	h.Record("big", first[0].To, 20)
	h.Record("buddy", first[0].To, 6)
	h.Advance()
	if moves := m.plan(h, nil, nil, nil); len(moves) != 1 || moves[0].Key != "buddy" {
		t.Fatalf("plan during cooldown = %v, want only buddy to move", moves)
	}
}

func TestPlanBoundedByMaxMoves(t *testing.T) {
	h := trackerAlpha(4, 1.0)
	for i, key := range []string{"k1", "k2", "k3", "k4", "k5", "k6"} {
		_ = i
		h.Record(key, 0, 3)
	}
	h.Advance()
	m := newMigrator(Tuning{MaxMovesPerRound: 2})
	if moves := m.plan(h, nil, nil, nil); len(moves) > 2 {
		t.Fatalf("plan exceeded MaxMovesPerRound: %v", moves)
	}
}

func TestPlanDeterministicAcrossSeededRuns(t *testing.T) {
	run := func(seed int64) [][]Move {
		h := trackerAlpha(3, 0.5)
		m := newMigrator(Tuning{Seed: seed, ImbalanceThreshold: 1.05})
		var plans [][]Move
		for round := 0; round < 5; round++ {
			// Equal-heat keys: the seeded tie-break decides.
			for i := 0; i < 4; i++ {
				h.Record("x", 0, 1)
				h.Record("y", 0, 1)
				h.Record("z", 0, 1)
			}
			h.Advance()
			plans = append(plans, m.plan(h, nil, nil, nil))
		}
		return plans
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%v\n%v", a, b)
	}
}

// TestPlanSeededTieBreakStableAcrossMapOrder pins the seeded tie-break
// against Go's randomized map iteration: the candidate set is built
// from a map (heatTracker.keysOn), so if any ordering leaked into the
// pick, repeated runs — with keys inserted in different orders to
// shuffle the map layout — would eventually diverge. Every run must
// produce the identical plan sequence.
func TestPlanSeededTieBreakStableAcrossMapOrder(t *testing.T) {
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	run := func(insertOrder []string) [][]Move {
		h := trackerAlpha(3, 1.0)
		// All keys equal heat on shard 0: maximal tie-break pressure.
		for _, k := range insertOrder {
			h.Record(k, 0, 2)
		}
		h.Record("lone", 1, 1)
		h.Advance()
		m := newMigrator(Tuning{Seed: 42, MaxMovesPerRound: 3,
			ImbalanceThreshold: 1.05})
		var plans [][]Move
		for round := 0; round < 4; round++ {
			plans = append(plans, m.plan(h, nil, nil, nil))
			for _, k := range insertOrder {
				h.Record(k, 0, 2)
			}
			h.Advance()
		}
		return plans
	}
	base := run(keys)
	for trial := 0; trial < 25; trial++ {
		// Rotate + interleave the insertion order so the runtime lays the
		// map out differently from run to run.
		order := append(append([]string(nil), keys[trial%len(keys):]...), keys[:trial%len(keys)]...)
		if trial%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		if got := run(order); !reflect.DeepEqual(got, base) {
			t.Fatalf("trial %d: plan depends on map insertion order:\nbase %v\ngot  %v", trial, base, got)
		}
	}
}

// TestPlanCostAware: on a mixed fleet the migrator balances estimated
// completion cost, not raw heat. Shard 1 is 2.5x slower; even though
// shard 0 carries more raw heat than shard 1, shard 1's *cost* is
// higher, so keys must flow slow -> fast — the opposite of what a
// heat-only plan would do.
func TestPlanCostAware(t *testing.T) {
	h := trackerAlpha(2, 1.0)
	h.Record("fastbig", 0, 5)     // shard 0 (fast): raw heat 5.5 total
	h.Record("fastsmall", 0, 0.5) // movable by the heat-only plan
	h.Record("slowhot", 1, 4)     // shard 1 (slow): raw heat 4, cost 10
	h.Advance()
	costw := []float64{1.0, 2.5}

	// Heat-only view: shard 0 (heat 5.5) looks hotter than shard 1 (4);
	// a heat-only plan moves fast -> slow.
	mHeat := newMigrator(Tuning{MaxMovesPerRound: 1, ImbalanceThreshold: 1.05})
	heatMoves := mHeat.plan(h, nil, nil, nil)
	if len(heatMoves) != 1 || heatMoves[0].From != 0 || heatMoves[0].To != 1 {
		t.Fatalf("heat-only plan = %v, want a 0->1 move", heatMoves)
	}

	// Cost view: shard 1 costs 10 vs shard 0's 5.5; the cost-aware plan
	// moves work off the slow shard onto the fast one.
	h2 := trackerAlpha(2, 1.0)
	h2.Record("fastbig", 0, 5)
	h2.Record("fastsmall", 0, 0.5)
	h2.Record("slowhot", 1, 4)
	h2.Advance()
	mCost := newMigrator(Tuning{MaxMovesPerRound: 1, ImbalanceThreshold: 1.05})
	costMoves := mCost.plan(h2, costw, nil, nil)
	if len(costMoves) != 1 || costMoves[0].From != 1 || costMoves[0].To != 0 {
		t.Fatalf("cost-aware plan = %v, want a 1->0 move", costMoves)
	}
}

// TestPlanCostAwareSkipsOvershoot: a key whose cost on the destination
// would meet or exceed the gap is skipped, in destination-cost units.
func TestPlanCostAwareSkipsOvershoot(t *testing.T) {
	h := trackerAlpha(2, 1.0)
	h.Record("huge", 0, 4) // on the slow destination this would cost 10
	h.Record("tiny", 0, 1) // costs 2.5 there: fits the gap
	h.Record("idle", 1, 0.4)
	h.Advance()
	// Shard 1 is the slow one (weight 2.5): gap = 5*1 - 0.4*2.5 = 4.
	// "huge" at destination cost 10 >= 4 must be skipped; "tiny" at 2.5
	// fits.
	m := newMigrator(Tuning{MaxMovesPerRound: 1, ImbalanceThreshold: 1.05})
	moves := m.plan(h, []float64{1.0, 2.5}, nil, nil)
	if len(moves) != 1 || moves[0].Key != "tiny" {
		t.Fatalf("plan = %v, want [tiny 0->1]", moves)
	}
}

// TestPlanUniformWeightsMatchHeatOnly: explicit all-ones weights and
// nil weights must produce identical plans (the degenerate-fleet
// equivalence the homogeneous determinism tests rely on).
func TestPlanUniformWeightsMatchHeatOnly(t *testing.T) {
	build := func() *heatTracker {
		h := trackerAlpha(3, 0.5)
		for i := 0; i < 4; i++ {
			h.Record("x", 0, 2)
			h.Record("y", 0, 2)
			h.Record("w", 2, 1)
		}
		h.Advance()
		return h
	}
	a := newMigrator(Tuning{Seed: 5, ImbalanceThreshold: 1.05}).plan(build(), nil, nil, nil)
	b := newMigrator(Tuning{Seed: 5, ImbalanceThreshold: 1.05}).plan(build(), []float64{1, 1, 1}, nil, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nil weights %v != unit weights %v", a, b)
	}
}

// TestMigratorTenantBias pins the QoS eviction guard: with the weight
// table installed, the aggressor's key moves off the hot shard even
// though the victim's key is hotter; without it, raw heat order picks
// the victim's.
func TestMigratorTenantBias(t *testing.T) {
	build := func() *heatTracker {
		h := trackerAlpha(2, 1.0)
		h.RecordTenant("vic-key", "vic", 0, 6)
		h.RecordTenant("agg-key", "agg", 0, 5)
		h.RecordTenant("cold", "agg", 1, 1)
		h.Advance()
		return h
	}

	m := newMigrator(Tuning{MaxMovesPerRound: 1})
	moves := m.plan(build(), nil, nil, nil)
	if len(moves) != 1 || moves[0].Key != "vic-key" {
		t.Fatalf("unbiased plan = %v, want the hottest key vic-key", moves)
	}

	m = newMigrator(Tuning{MaxMovesPerRound: 1})
	m.setTenantWeights(map[string]int{"vic": 4, "agg": 1})
	moves = m.plan(build(), nil, nil, nil)
	if len(moves) != 1 || moves[0].Key != "agg-key" {
		t.Fatalf("biased plan = %v, want the aggressor's agg-key", moves)
	}

	// Clearing the table restores the historical order.
	m.setTenantWeights(nil)
	moves = m.plan(build(), nil, nil, nil)
	if len(moves) != 1 || moves[0].Key != "vic-key" {
		t.Fatalf("cleared plan = %v, want vic-key again", moves)
	}
}
