package placement

// Conformance suite for the Placement interface contract, run
// table-driven against all four shipped strategies. Every strategy —
// whatever it does at barriers — must honor the same routing
// invariants the fleet is built on:
//
//   - route stability: absent a Rebalance/Release/Evicted, a key's
//     primary never moves, and non-idempotent calls always route to
//     the primary;
//   - rebalance bounds: plans are bounded per round, reference valid
//     shards, never no-op (From == To for a migration), and Commit of
//     a move whose binding was released is refused;
//   - deterministic tie-break under shuffled map order: two instances
//     fed the same operation sequence plan identical moves, no matter
//     how Go iterates the internal maps that round.
//
// The fleet property tests pin the same guarantees end-to-end (cycle
// counts); this suite pins them at the strategy boundary, so a new
// strategy can be certified without standing up kernels.

import (
	"fmt"
	"reflect"
	"testing"
)

// strategies lists the conformance subjects; each factory returns a
// fresh unbound instance with a fixed seed.
func strategies() []struct {
	name string
	mk   func() Placement
} {
	tuning := Tuning{ImbalanceThreshold: 1.05, Seed: 3}
	return []struct {
		name string
		mk   func() Placement
	}{
		{"sticky", func() Placement { return NewSticky() }},
		{"heatmigrate", func() Placement { return NewHeatMigrate(tuning) }},
		{"costaware", func() Placement { return NewCostAware(tuning) }},
		{"replicated", func() Placement {
			return NewReplicated(ReplicatedConfig{Tuning: tuning, MaxReplicas: 3})
		}},
	}
}

// skewedSequence routes one round of a deterministic skewed workload:
// key h0 dominates, the rest trickle. Identical across calls so two
// instances see identical input.
func skewedSequence(p Placement, keys, hot int) {
	for i := 0; i < hot; i++ {
		p.Route(Call{Key: "h0", Idempotent: true})
	}
	for c := 1; c < keys; c++ {
		p.Route(Call{Key: fmt.Sprintf("h%d", c), Idempotent: c%2 == 0})
	}
}

func TestConformanceRouteStability(t *testing.T) {
	for _, s := range strategies() {
		t.Run(s.name, func(t *testing.T) {
			p := s.mk()
			if err := p.Bind(4, nil); err != nil {
				t.Fatal(err)
			}
			first := map[string]int{}
			for c := 0; c < 12; c++ {
				key := fmt.Sprintf("k%02d", c)
				first[key] = p.Route(Call{Key: key})
			}
			// No barrier between: repeat routes stay put, Lookup agrees,
			// and non-idempotent calls always see the primary.
			for key, sid := range first {
				for i := 0; i < 3; i++ {
					if got := p.Route(Call{Key: key}); got != sid {
						t.Fatalf("%s rerouted %d -> %d without a barrier", key, sid, got)
					}
				}
				if got, ok := p.Lookup(key); !ok || got != sid {
					t.Fatalf("Lookup(%s) = (%d, %v), routed to %d", key, got, ok, sid)
				}
				if reps := p.Replicas(key); len(reps) == 0 || reps[0] != sid {
					t.Fatalf("Replicas(%s) = %v, want primary %d first", key, reps, sid)
				}
			}
			if p.Assigned() != len(first) {
				t.Fatalf("Assigned = %d, want %d", p.Assigned(), len(first))
			}
		})
	}
}

func TestConformanceReleaseAndEvictedReclaim(t *testing.T) {
	for _, s := range strategies() {
		t.Run(s.name, func(t *testing.T) {
			p := s.mk()
			if err := p.Bind(3, []float64{1, 1, 2.5}); err != nil {
				t.Fatal(err)
			}
			p.Route(Call{Key: "a", Idempotent: true})
			p.Route(Call{Key: "b"})
			p.Release("a")
			if _, ok := p.Lookup("a"); ok {
				t.Fatal("released key still bound")
			}
			bsid, _ := p.Lookup("b")
			p.Evicted("b", (bsid+1)%3) // wrong shard: must not corrupt accounting
			if _, ok := p.Lookup("b"); !ok {
				t.Fatal("Evicted with a stale shard dropped a live binding")
			}
			p.Evicted("b", bsid)
			if _, ok := p.Lookup("b"); ok {
				t.Fatal("eviction on the owning shard left the binding")
			}
			total := 0
			for _, n := range p.Load() {
				if n < 0 {
					t.Fatalf("negative load: %v", p.Load())
				}
				total += n
			}
			if total != 0 || p.Assigned() != 0 {
				t.Fatalf("load %v / assigned %d after full reclaim, want empty", p.Load(), p.Assigned())
			}
		})
	}
}

func TestConformanceRebalanceBounds(t *testing.T) {
	const shards = 4
	for _, s := range strategies() {
		t.Run(s.name, func(t *testing.T) {
			p := s.mk()
			if err := p.Bind(shards, nil); err != nil {
				t.Fatal(err)
			}
			// Moves per round are bounded by the migrator's cap plus the
			// replica budget.
			bound := DefaultMaxMovesPerRound + DefaultReplicaBudget
			for round := 0; round < 6; round++ {
				skewedSequence(p, 8, 24)
				moves := p.Rebalance()
				if len(moves) > bound {
					t.Fatalf("round %d planned %d moves, bound %d", round, len(moves), bound)
				}
				for _, mv := range moves {
					if mv.Key == "" {
						t.Fatalf("move with empty key: %+v", mv)
					}
					if mv.To < 0 || mv.To >= shards || mv.From < 0 || mv.From >= shards {
						t.Fatalf("move references invalid shard: %+v", mv)
					}
					if mv.Kind == MoveMigrate && mv.From == mv.To {
						t.Fatalf("no-op migration planned: %+v", mv)
					}
					if !p.Commit(mv) {
						t.Fatalf("commit of freshly planned move refused: %+v", mv)
					}
				}
			}
			// Commit of a move for a key that was released must refuse.
			skewedSequence(p, 8, 24)
			moves := p.Rebalance()
			for _, mv := range moves {
				p.Release(mv.Key)
				if p.Commit(mv) {
					t.Fatalf("commit after release accepted: %+v", mv)
				}
			}
		})
	}
}

// TestConformanceDeterministicPlans is the shuffled-map-order pin: two
// instances of the same strategy fed the same operation sequence must
// plan identical rebalances on every round, regardless of map
// iteration order inside heat trackers, cooldown tables, or replica
// accounting (Go randomizes it per run, so flakiness here means a
// missing sort).
func TestConformanceDeterministicPlans(t *testing.T) {
	for _, s := range strategies() {
		t.Run(s.name, func(t *testing.T) {
			a, b := s.mk(), s.mk()
			if err := a.Bind(4, []float64{1, 2.5, 1, 1}); err != nil {
				t.Fatal(err)
			}
			if err := b.Bind(4, []float64{1, 2.5, 1, 1}); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 8; round++ {
				skewedSequence(a, 10, 20)
				skewedSequence(b, 10, 20)
				ma, mb := a.Rebalance(), b.Rebalance()
				if !reflect.DeepEqual(ma, mb) {
					t.Fatalf("round %d plans diverge:\n  a: %+v\n  b: %+v", round, ma, mb)
				}
				for i := range ma {
					ca, cb := a.Commit(ma[i]), b.Commit(mb[i])
					if ca != cb {
						t.Fatalf("round %d commit %d diverges: %v vs %v", round, i, ca, cb)
					}
				}
				if !reflect.DeepEqual(a.Load(), b.Load()) {
					t.Fatalf("round %d load diverges: %v vs %v", round, a.Load(), b.Load())
				}
			}
		})
	}
}

// TestConformanceShardDownFailover: after OnShardDown, every strategy
// must leave the dead shard binding-free and unroutable, re-home every
// orphan onto a live shard, keep load accounting exact, and — fed the
// same sequence — produce identical rehomes across two instances.
func TestConformanceShardDownFailover(t *testing.T) {
	const shards, dead = 4, 1
	for _, s := range strategies() {
		t.Run(s.name, func(t *testing.T) {
			a, b := s.mk(), s.mk()
			for _, p := range []Placement{a, b} {
				if err := p.Bind(shards, []float64{1, 1, 2.5, 1}); err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 4; round++ {
					skewedSequence(p, 10, 24)
					for _, mv := range p.Rebalance() {
						p.Commit(mv)
					}
				}
			}
			// Bound keys before the kill, for the coverage check below.
			bound := map[string]bool{}
			for c := 0; c < 10; c++ {
				key := fmt.Sprintf("h%d", c)
				if _, ok := a.Lookup(key); ok {
					bound[key] = true
				}
			}
			ra, rb := a.OnShardDown(dead), b.OnShardDown(dead)
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("rehomes diverge across identical instances:\n  a: %+v\n  b: %+v", ra, rb)
			}
			for _, rh := range ra {
				if rh.To == dead || rh.To < 0 || rh.To >= shards {
					t.Fatalf("orphan %q re-homed to invalid shard %d", rh.Key, rh.To)
				}
			}
			if load := a.Load(); load[dead] != 0 {
				t.Fatalf("dead shard still carries load: %v", load)
			}
			// Every key bound before the kill must still be bound, off the
			// dead shard, and future routing must avoid it.
			total := 0
			for key := range bound {
				reps := a.Replicas(key)
				if len(reps) == 0 {
					t.Fatalf("key %q lost its binding in the failover", key)
				}
				for _, sid := range reps {
					if sid == dead {
						t.Fatalf("key %q still bound to dead shard: %v", key, reps)
					}
				}
				total += len(reps)
			}
			sum := 0
			for _, n := range a.Load() {
				if n < 0 {
					t.Fatalf("negative load after failover: %v", a.Load())
				}
				sum += n
			}
			if sum != total {
				t.Fatalf("load sum %d != bindings %d after failover (load %v)", sum, total, a.Load())
			}
			for round := 0; round < 3; round++ {
				skewedSequence(a, 12, 24)
				for _, mv := range a.Rebalance() {
					if mv.From == dead || mv.To == dead {
						t.Fatalf("post-kill plan references dead shard: %+v", mv)
					}
					a.Commit(mv)
				}
			}
			for c := 0; c < 12; c++ {
				key := fmt.Sprintf("h%d", c)
				if sid := a.Route(Call{Key: key, Idempotent: true}); sid == dead {
					t.Fatalf("post-kill route of %q hit the dead shard", key)
				}
			}
			if load := a.Load(); load[dead] != 0 {
				t.Fatalf("dead shard re-acquired load: %v", load)
			}
		})
	}
}

// TestConformanceShardUpExpandsFleet: after OnShardUp, every strategy
// must route onto the new shard (it is the coldest target), keep load
// accounting sized to the grown fleet, and stay deterministic — two
// instances fed the same grow-and-route sequence agree exactly.
func TestConformanceShardUpExpandsFleet(t *testing.T) {
	for _, s := range strategies() {
		t.Run(s.name, func(t *testing.T) {
			a, b := s.mk(), s.mk()
			for _, p := range []Placement{a, b} {
				if err := p.Bind(2, []float64{1, 1}); err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 3; round++ {
					skewedSequence(p, 8, 16)
					for _, mv := range p.Rebalance() {
						p.Commit(mv)
					}
				}
				p.OnShardUp(2, 1.0)
			}
			if got := len(a.Load()); got != 3 {
				t.Fatalf("Load() tracks %d shards after OnShardUp, want 3", got)
			}
			// Existing bindings stay put through the grow.
			for c := 0; c < 8; c++ {
				key := fmt.Sprintf("h%d", c)
				if _, ok := a.Lookup(key); !ok {
					t.Fatalf("key %q lost its binding across OnShardUp", key)
				}
			}
			// Fresh keys land on the cold new shard first (both instances,
			// keeping their op sequences identical for the replay below).
			if sid := a.Route(Call{Key: "fresh-0"}); sid != 2 {
				t.Fatalf("first fresh key routed to %d, want the new shard 2", sid)
			}
			b.Route(Call{Key: "fresh-0"})
			// Determinism across instances, through further rounds.
			for round := 0; round < 4; round++ {
				skewedSequence(a, 12, 20)
				skewedSequence(b, 12, 20)
				ma, mb := a.Rebalance(), b.Rebalance()
				if !reflect.DeepEqual(ma, mb) {
					t.Fatalf("round %d post-grow plans diverge:\n  a: %+v\n  b: %+v", round, ma, mb)
				}
				for i := range ma {
					a.Commit(ma[i])
					b.Commit(mb[i])
				}
			}
			if !reflect.DeepEqual(a.Load(), b.Load()) {
				t.Fatalf("post-grow load diverges: %v vs %v", a.Load(), b.Load())
			}
		})
	}
}

// TestConformancePlanDrainEvacuates: PlanDrain must cover every binding
// on the shard with valid committable moves; after committing them and
// running the OnShardDown fence, the drained shard holds zero load,
// every key survives elsewhere, accounting stays exact, and future
// routes and plans avoid the shard — and the whole evacuation is
// identical across two instances fed the same sequence (the shuffled
// map-order pin: PlanDrain sweeps internal maps).
func TestConformancePlanDrainEvacuates(t *testing.T) {
	const shards, victim = 3, 0
	for _, s := range strategies() {
		t.Run(s.name, func(t *testing.T) {
			a, b := s.mk(), s.mk()
			for _, p := range []Placement{a, b} {
				if err := p.Bind(shards, []float64{1, 1, 2.5}); err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 4; round++ {
					skewedSequence(p, 10, 24)
					for _, mv := range p.Rebalance() {
						p.Commit(mv)
					}
				}
			}
			bound := map[string]bool{}
			for c := 0; c < 10; c++ {
				key := fmt.Sprintf("h%d", c)
				if _, ok := a.Lookup(key); ok {
					bound[key] = true
				}
			}
			ma, mb := a.PlanDrain(victim), b.PlanDrain(victim)
			if !reflect.DeepEqual(ma, mb) {
				t.Fatalf("drain plans diverge across identical instances:\n  a: %+v\n  b: %+v", ma, mb)
			}
			for _, mv := range ma {
				if mv.From != victim {
					t.Fatalf("drain plan moves from %d, want %d: %+v", mv.From, victim, mv)
				}
				if mv.Kind != MoveDrain && (mv.To == victim || mv.To < 0 || mv.To >= shards) {
					t.Fatalf("drain plan targets invalid shard: %+v", mv)
				}
				if !a.Commit(mv) {
					t.Fatalf("commit of freshly planned drain move refused: %+v", mv)
				}
				b.Commit(mv)
			}
			ra, rb := a.OnShardDown(victim), b.OnShardDown(victim)
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("drain fences diverge: %v vs %v", ra, rb)
			}
			if load := a.Load(); load[victim] != 0 {
				t.Fatalf("drained shard still carries load: %v", load)
			}
			total := 0
			for key := range bound {
				reps := a.Replicas(key)
				if len(reps) == 0 {
					t.Fatalf("key %q lost its binding in the drain", key)
				}
				for _, sid := range reps {
					if sid == victim {
						t.Fatalf("key %q still bound to drained shard: %v", key, reps)
					}
				}
				total += len(reps)
			}
			sum := 0
			for _, n := range a.Load() {
				if n < 0 {
					t.Fatalf("negative load after drain: %v", a.Load())
				}
				sum += n
			}
			if sum != total {
				t.Fatalf("load sum %d != bindings %d after drain (load %v)", sum, total, a.Load())
			}
			for round := 0; round < 3; round++ {
				skewedSequence(a, 12, 24)
				for _, mv := range a.Rebalance() {
					if mv.From == victim || mv.To == victim {
						t.Fatalf("post-drain plan references drained shard: %+v", mv)
					}
					a.Commit(mv)
				}
			}
			for c := 0; c < 12; c++ {
				if sid := a.Route(Call{Key: fmt.Sprintf("h%d", c), Idempotent: true}); sid == victim {
					t.Fatal("post-drain route hit the drained shard")
				}
			}
		})
	}
}

// TestConformanceGrowThenDrainRoundTrip: the elastic round trip at the
// strategy boundary — grow by one shard, shift load onto it, then drain
// it again. The fleet-level acceptance test pins the same sequence with
// kernels; this pins it per strategy in microseconds.
func TestConformanceGrowThenDrainRoundTrip(t *testing.T) {
	for _, s := range strategies() {
		t.Run(s.name, func(t *testing.T) {
			p := s.mk()
			if err := p.Bind(2, nil); err != nil {
				t.Fatal(err)
			}
			skewedSequence(p, 8, 16)
			p.OnShardUp(2, 1.0)
			// Land traffic on the new shard: fresh keys go there first.
			for c := 0; c < 4; c++ {
				p.Route(Call{Key: fmt.Sprintf("g%d", c), Idempotent: true})
			}
			if p.Load()[2] == 0 {
				t.Fatal("new shard took no load; drain leg is vacuous")
			}
			for _, mv := range p.PlanDrain(2) {
				p.Commit(mv)
			}
			p.OnShardDown(2)
			if load := p.Load(); load[2] != 0 {
				t.Fatalf("round-tripped shard still carries load: %v", load)
			}
			for c := 0; c < 4; c++ {
				key := fmt.Sprintf("g%d", c)
				if sid, ok := p.Lookup(key); !ok {
					t.Fatalf("key %q lost in the round trip", key)
				} else if sid == 2 {
					t.Fatalf("key %q still on the drained shard", key)
				}
			}
		})
	}
}

// TestConformanceLoadAccounting: across a busy mixed sequence of
// routes, rebalances, releases, and evictions, per-shard load always
// sums to the total binding count and never goes negative.
func TestConformanceLoadAccounting(t *testing.T) {
	for _, s := range strategies() {
		t.Run(s.name, func(t *testing.T) {
			p := s.mk()
			if err := p.Bind(3, nil); err != nil {
				t.Fatal(err)
			}
			check := func(stage string) {
				t.Helper()
				bindings := 0
				for c := 0; c < 9; c++ {
					bindings += len(p.Replicas(fmt.Sprintf("h%d", c)))
				}
				total := 0
				for _, n := range p.Load() {
					if n < 0 {
						t.Fatalf("%s: negative load %v", stage, p.Load())
					}
					total += n
				}
				if total != bindings {
					t.Fatalf("%s: load sum %d != bindings %d (load %v)", stage, total, bindings, p.Load())
				}
			}
			for round := 0; round < 5; round++ {
				skewedSequence(p, 9, 18)
				check("after routes")
				for _, mv := range p.Rebalance() {
					p.Commit(mv)
				}
				check("after rebalance")
				victim := fmt.Sprintf("h%d", round%9)
				if sid, ok := p.Lookup(victim); ok {
					p.Evicted(victim, sid)
				}
				check("after eviction")
				p.Release(fmt.Sprintf("h%d", (round+1)%9))
				check("after release")
			}
		})
	}
}
