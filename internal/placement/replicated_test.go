package placement

import (
	"fmt"
	"testing"
)

// grow routes a dominant-key round and applies the rebalance, until
// the key holds at least want replicas.
func grow(t *testing.T, r *Replicated, key string, want int) {
	t.Helper()
	for round := 0; round < 8; round++ {
		for i := 0; i < 24; i++ {
			r.Route(Call{Key: key, Idempotent: true})
		}
		for c := 1; c < 4; c++ {
			r.Route(Call{Key: fmt.Sprintf("bg%d", c), Idempotent: true})
		}
		for _, mv := range r.Rebalance() {
			r.Commit(mv)
		}
		if len(r.Replicas(key)) >= want {
			return
		}
	}
	t.Fatalf("%s reached only %d replicas, want >= %d", key, len(r.Replicas(key)), want)
}

// TestReplicatedSizing: the dominant key fans out, hits rotate over
// the set, and the distribution is recorded per shard.
func TestReplicatedSizing(t *testing.T) {
	r := NewReplicated(ReplicatedConfig{
		Tuning: Tuning{ImbalanceThreshold: 1.05, Seed: 1}, MaxReplicas: 4})
	if err := r.Bind(4, nil); err != nil {
		t.Fatal(err)
	}
	grow(t, r, "hot", 2)
	before := r.Load()
	for i := 0; i < 8; i++ {
		r.Route(Call{Key: "hot", Idempotent: true})
	}
	dist := r.HitDistribution()["hot"]
	if len(dist) < 2 {
		t.Fatalf("hit distribution %v, want >= 2 shards", dist)
	}
	// Routing allocates nothing new: load unchanged by reads.
	after := r.Load()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("idempotent routing changed load: %v -> %v", before, after)
		}
	}
}

// TestReplicatedDrainsDecayedKey regresses the replica leak: a key
// whose idempotent heat decays entirely out of the tracker must still
// be swept at barriers until its replica set has drained back to the
// primary — even though it no longer appears in any heat map.
func TestReplicatedDrainsDecayedKey(t *testing.T) {
	r := NewReplicated(ReplicatedConfig{
		Tuning: Tuning{ImbalanceThreshold: 1.05, Seed: 1}, MaxReplicas: 4})
	if err := r.Bind(4, nil); err != nil {
		t.Fatal(err)
	}
	grow(t, r, "hot", 2)

	// The key goes fully cold: many silent rounds, enough for the EWMA
	// to decay below the tracking floor.
	for round := 0; round < 24; round++ {
		for c := 1; c < 4; c++ {
			r.Route(Call{Key: fmt.Sprintf("bg%d", c), Idempotent: true})
		}
		for _, mv := range r.Rebalance() {
			r.Commit(mv)
		}
	}
	if got := r.Replicas("hot"); len(got) != 1 {
		t.Fatalf("cold key still holds %v after 24 barriers, want primary only", got)
	}
}

// TestReplicatedMigrateKnob: ReplicatedConfig.Migrate gates migration of
// unreplicated keys; replication itself runs either way.
func TestReplicatedMigrateKnob(t *testing.T) {
	run := func(migrate bool) (replicas, migrations int) {
		r := NewReplicated(ReplicatedConfig{
			Tuning:      Tuning{ImbalanceThreshold: 1.05, Seed: 1},
			Migrate:     migrate,
			MaxReplicas: 4})
		if err := r.Bind(4, nil); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 6; round++ {
			// A dominant key plus a pile of co-resident warm keys: both
			// replication and (when allowed) migration have work.
			for i := 0; i < 24; i++ {
				r.Route(Call{Key: "hot", Idempotent: true})
			}
			for c := 1; c < 10; c++ {
				r.Route(Call{Key: fmt.Sprintf("bg%d", c), Idempotent: c%2 == 0})
			}
			for _, mv := range r.Rebalance() {
				if r.Commit(mv) {
					switch mv.Kind {
					case MoveReplicate:
						replicas++
					case MoveMigrate:
						migrations++
					}
				}
			}
		}
		return replicas, migrations
	}
	rep, mig := run(true)
	if rep == 0 || mig == 0 {
		t.Fatalf("Migrate:true planned %d replications, %d migrations; want both > 0", rep, mig)
	}
	rep, mig = run(false)
	if rep == 0 {
		t.Fatalf("Migrate:false planned no replications")
	}
	if mig != 0 {
		t.Fatalf("Migrate:false still planned %d migrations", mig)
	}
}
