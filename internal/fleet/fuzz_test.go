package fleet

// FuzzFleetRoute fuzzes the fleet routing layer end to end: a scripted
// multi-client plan — idempotent and non-idempotent calls plus
// mid-sequence releases — runs against a mixed fast/slow fleet with
// migration AND hot-key replication enabled, and the target asserts
// the RunPlan determinism property itself, not just no-crash: two
// fresh fleets fed the identical script must produce byte-identical
// responses, identical per-shard cycle counts, and identical placement
// load. Any divergence means host scheduling or map iteration order
// leaked into routing, which would silently invalidate every BENCH
// number the project gates on.

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/placement"
)

// routeScript decodes fuzz bytes into rounds of requests separated by
// releases. Each byte is one op: 3 bits of client key, 2 bits of op
// selector (call idempotent / call non-idempotent / release), and the
// top bits an argument.
type routeOp struct {
	release bool
	req     Request
}

func decodeRouteScript(data []byte, incr, getpid uint32) []routeOp {
	const maxOps = 96
	if len(data) > maxOps {
		data = data[:maxOps]
	}
	keys := []string{"f0", "f1", "f2", "f3", "f4", "f5"}
	var ops []routeOp
	for _, b := range data {
		key := keys[int(b&7)%len(keys)]
		switch (b >> 3) & 3 {
		case 3:
			ops = append(ops, routeOp{release: true, req: Request{Key: key}})
		case 2:
			ops = append(ops, routeOp{req: Request{Key: key, FuncID: getpid}})
		default:
			ops = append(ops, routeOp{req: Request{Key: key, FuncID: incr, Args: []uint32{uint32(b >> 5)}}})
		}
	}
	return ops
}

// runRouteScript executes the script on a fresh mixed replicating
// fleet: consecutive calls batch into one RunPlan round (a rebalance
// barrier), every release flushes the batch first. It returns all
// responses in script order, the per-shard cycle counts, and the final
// placement load.
func runRouteScript(t *testing.T, ops []routeOp) ([]Response, []uint64, []int) {
	t.Helper()
	as, err := backend.DefaultCatalog().ParseMix("fast=1,slow=1")
	if err != nil {
		t.Fatal(err)
	}
	rep := placement.NewReplicated(placement.ReplicatedConfig{
		Tuning:      placement.Tuning{ImbalanceThreshold: 1.05, Seed: 11},
		MaxReplicas: 2,
	})
	f, err := Open(append(testOpts(0),
		WithBackends(as),
		WithProvision(libcProvisionIdem),
		WithPlacement(rep))...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	var all []Response
	var batch []Request
	flush := func() {
		if len(batch) == 0 {
			return
		}
		resps, err := f.RunPlan(batch)
		if err != nil {
			t.Fatalf("RunPlan: %v", err)
		}
		all = append(all, resps...)
		batch = nil
	}
	for _, op := range ops {
		if op.release {
			flush()
			if err := f.Release(op.req.Key); err != nil {
				t.Fatalf("Release(%s): %v", op.req.Key, err)
			}
			continue
		}
		batch = append(batch, op.req)
	}
	flush()

	st := f.Stats()
	cycles := make([]uint64, len(st.PerShard))
	for i, s := range st.PerShard {
		cycles[i] = s.Cycles
	}
	return all, cycles, f.PoolLoad()
}

func FuzzFleetRoute(f *testing.F) {
	// Seeds: a dominant-key burst (replication fires), interleaved
	// releases, a non-idempotent mix, and uniform chatter.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 24, 0, 0, 0, 24, 1, 1, 25, 0, 0})
	f.Add([]byte{16, 0, 16, 0, 17, 1, 18, 2, 16, 0, 16, 0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	// Resolve the funcIDs once: provisioning is deterministic, so the
	// ids hold for every fleet the iterations build.
	fProbe, err := Open(testOpts(1)...)
	if err != nil {
		f.Fatal(err)
	}
	incr, ok1 := fProbe.FuncID("incr")
	getpid, ok2 := fProbe.FuncID("getpid")
	fProbe.Close()
	if !ok1 || !ok2 {
		f.Fatal("libc lacks incr/getpid")
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeRouteScript(data, incr, getpid)
		if len(ops) == 0 {
			t.Skip("empty script")
		}
		r1, c1, l1 := runRouteScript(t, ops)
		r2, c2, l2 := runRouteScript(t, ops)
		if len(r1) != len(r2) {
			t.Fatalf("response counts differ: %d vs %d", len(r1), len(r2))
		}
		for i := range r1 {
			a, b := r1[i], r2[i]
			if a.Val != b.Val || a.Errno != b.Errno || a.Shard != b.Shard ||
				a.LatencyCycles != b.LatencyCycles || (a.Err == nil) != (b.Err == nil) {
				t.Fatalf("response %d differs across identical runs:\n  %+v\n  %+v", i, a, b)
			}
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("shard %d cycles differ across identical runs: %d vs %d", i, c1[i], c2[i])
			}
		}
		for i := range l1 {
			if l1[i] != l2[i] {
				t.Fatalf("placement load differs across identical runs: %v vs %v", l1, l2)
			}
		}
	})
}
