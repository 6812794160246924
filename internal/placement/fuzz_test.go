package placement

// FuzzPlacementOps is the kernel-free placement conformance fuzzer the
// ROADMAP calls for: a random interleaving of Route / Rebalance+Commit
// / Release / Evicted / OnShardDown / OnShardUp / PlanDrain ops —
// decoded from fuzz bytes — runs against all four strategies, checking
// the strategy invariants after every op and replaying the whole
// sequence on a second instance to pin determinism. No kernels are
// stood up, so the fuzzer explores orders of magnitude more
// interleavings per second than the fleet fuzz targets.

import (
	"fmt"
	"testing"
)

const (
	fuzzShards    = 3
	fuzzKeys      = 8
	fuzzMaxShards = 6 // shard-up cap, bounding per-input fleet growth
)

// placeOp is one decoded operation.
type placeOp struct {
	kind byte // 0/1 route (idempotent/not), 2 rebalance, 3 release, 4 evict, 5 shard-down, 6 shard-up, 7 drain
	key  string
	arg  int
}

// decodePlaceOps maps each fuzz byte to one op: low 3 bits the key
// (doubling as the lifecycle-target shard, taken modulo the live fleet
// size at execution time), next 3 bits the op selector (routes weighted
// heaviest), top bits sub-dispatching the lifecycle ops between
// shard-down, shard-up, and drain.
func decodePlaceOps(data []byte) []placeOp {
	const maxOps = 256
	if len(data) > maxOps {
		data = data[:maxOps]
	}
	ops := make([]placeOp, 0, len(data))
	for _, b := range data {
		op := placeOp{key: fmt.Sprintf("p%d", int(b&7)%fuzzKeys), arg: int(b & 7)}
		switch (b >> 3) & 7 {
		case 0, 1, 2:
			op.kind = 0 // idempotent route
		case 3, 4:
			op.kind = 1 // non-idempotent route
		case 5:
			op.kind = 2 // rebalance + commit
		case 6:
			op.kind = byte(3 + int(b>>6)%2) // release / evict
		default:
			op.kind = byte(5 + int(b>>6)%3) // shard down / up / drain
		}
		ops = append(ops, op)
	}
	return ops
}

// fuzzStrategies mirrors the conformance suite's factories.
func fuzzStrategies() []struct {
	name string
	mk   func() Placement
} {
	tuning := Tuning{ImbalanceThreshold: 1.05, Seed: 13}
	return []struct {
		name string
		mk   func() Placement
	}{
		{"sticky", func() Placement { return NewSticky() }},
		{"heatmigrate", func() Placement { return NewHeatMigrate(tuning) }},
		{"costaware", func() Placement { return NewCostAware(tuning) }},
		{"replicated", func() Placement {
			return NewReplicated(ReplicatedConfig{Tuning: tuning, Migrate: true, MaxReplicas: 2})
		}},
	}
}

// placeTrace is the observable outcome of one run, for the determinism
// replay: every Route result plus the final load vector.
type placeTrace struct {
	routes []int
	load   []int
}

// runPlaceOps drives one fresh strategy instance through the op
// sequence, checking invariants after every op, and returns the trace.
func runPlaceOps(t *testing.T, p Placement, ops []placeOp) placeTrace {
	t.Helper()
	if err := p.Bind(fuzzShards, []float64{1, 2.5, 1}); err != nil {
		t.Fatal(err)
	}
	down := make([]bool, fuzzShards)
	live := fuzzShards
	var tr placeTrace

	checkInvariants := func(step int, op placeOp) {
		t.Helper()
		// Load non-negative and exactly equal to the binding count over
		// the (closed) key universe.
		bindings := 0
		for k := 0; k < fuzzKeys; k++ {
			key := fmt.Sprintf("p%d", k)
			reps := p.Replicas(key)
			bindings += len(reps)
			if len(reps) > 0 {
				if sid, ok := p.Lookup(key); !ok || sid != reps[0] {
					t.Fatalf("step %d (%+v): Lookup(%s)=(%d,%v) but Replicas=%v",
						step, op, key, sid, ok, reps)
				}
			}
			seen := map[int]bool{}
			for _, sid := range reps {
				if down[sid] {
					t.Fatalf("step %d (%+v): %s bound to dead shard %d (%v)", step, op, key, sid, reps)
				}
				if seen[sid] {
					t.Fatalf("step %d (%+v): %s bound to shard %d twice (%v)", step, op, key, sid, reps)
				}
				seen[sid] = true
			}
		}
		total := 0
		for sid, n := range p.Load() {
			if n < 0 {
				t.Fatalf("step %d (%+v): negative load %v", step, op, p.Load())
			}
			if down[sid] && n != 0 {
				t.Fatalf("step %d (%+v): dead shard %d carries load %v", step, op, sid, p.Load())
			}
			total += n
		}
		if total != bindings {
			t.Fatalf("step %d (%+v): load sum %d != bindings %d (load %v)",
				step, op, total, bindings, p.Load())
		}
	}

	for i, op := range ops {
		n := len(down)
		target := op.arg % n
		switch op.kind {
		case 0, 1:
			sid := p.Route(Call{Key: op.key, Idempotent: op.kind == 0})
			if sid < 0 || sid >= n {
				t.Fatalf("step %d: Route(%s) = %d out of range", i, op.key, sid)
			}
			if down[sid] {
				t.Fatalf("step %d: Route(%s) hit dead shard %d", i, op.key, sid)
			}
			tr.routes = append(tr.routes, sid)
		case 2:
			for _, mv := range p.Rebalance() {
				if mv.From < 0 || mv.From >= n || mv.To < 0 || mv.To >= n {
					t.Fatalf("step %d: move references invalid shard: %+v", i, mv)
				}
				if down[mv.From] || down[mv.To] {
					t.Fatalf("step %d: move references dead shard: %+v", i, mv)
				}
				p.Commit(mv)
			}
		case 3:
			p.Release(op.key)
			if _, ok := p.Lookup(op.key); ok {
				t.Fatalf("step %d: %s still bound after Release", i, op.key)
			}
		case 4:
			if sid, ok := p.Lookup(op.key); ok {
				p.Evicted(op.key, sid)
			}
		case 5:
			if live <= 1 || down[target] {
				break // mirror the fleet's last-survivor guard
			}
			down[target] = true
			live--
			for _, rh := range p.OnShardDown(target) {
				if rh.To < 0 || rh.To >= n || down[rh.To] {
					t.Fatalf("step %d: orphan %q re-homed to invalid/dead shard %d", i, rh.Key, rh.To)
				}
			}
		case 6:
			if n >= fuzzMaxShards {
				break // growth cap, mirroring the autoscaler's Max
			}
			p.OnShardUp(n, 1.5)
			down = append(down, false)
			live++
		case 7:
			// The fleet's drain sequence: plan, commit, fence, retire.
			if live <= 1 || down[target] {
				break
			}
			for _, mv := range p.PlanDrain(target) {
				if mv.From != target {
					t.Fatalf("step %d: drain plan moves from %d, want %d: %+v", i, mv.From, target, mv)
				}
				if mv.Kind != MoveDrain && (mv.To < 0 || mv.To >= n || down[mv.To] || mv.To == target) {
					t.Fatalf("step %d: drain plan targets invalid shard: %+v", i, mv)
				}
				p.Commit(mv)
			}
			down[target] = true
			live--
			for _, rh := range p.OnShardDown(target) {
				if rh.To < 0 || rh.To >= n || down[rh.To] {
					t.Fatalf("step %d: drain straggler %q re-homed to invalid/dead shard %d", i, rh.Key, rh.To)
				}
			}
		}
		checkInvariants(i, op)
	}
	tr.load = p.Load()
	return tr
}

func FuzzPlacementOps(f *testing.F) {
	// Seeds: pure routing, routing + rebalances, a kill mid-traffic,
	// release/evict churn, and a kill-heavy tail.
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 41, 0, 0, 41, 1, 2, 41})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 56, 0, 1, 2, 41, 3})
	f.Add([]byte{0, 48, 1, 49, 2, 50, 3, 51, 0, 0})
	f.Add([]byte{0, 0, 56, 120, 184, 0, 1, 2, 41, 0})
	// Elastic churn: grow, route onto the new capacity, rebalance, drain
	// it back, then keep routing (up=120..127, drain=184..191).
	f.Add([]byte{0, 1, 120, 0, 1, 2, 41, 187, 0, 1, 121, 41, 188, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodePlaceOps(data)
		if len(ops) == 0 {
			t.Skip("empty op sequence")
		}
		for _, s := range fuzzStrategies() {
			t.Run(s.name, func(t *testing.T) {
				tr1 := runPlaceOps(t, s.mk(), ops)
				tr2 := runPlaceOps(t, s.mk(), ops)
				if len(tr1.routes) != len(tr2.routes) {
					t.Fatalf("route counts differ: %d vs %d", len(tr1.routes), len(tr2.routes))
				}
				for i := range tr1.routes {
					if tr1.routes[i] != tr2.routes[i] {
						t.Fatalf("route %d differs across identical instances: %d vs %d",
							i, tr1.routes[i], tr2.routes[i])
					}
				}
				for i := range tr1.load {
					if tr1.load[i] != tr2.load[i] {
						t.Fatalf("final load differs: %v vs %v", tr1.load, tr2.load)
					}
				}
			})
		}
	})
}
