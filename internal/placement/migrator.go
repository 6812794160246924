package placement

import (
	"math/rand"
	"sort"
)

// migrator turns heat snapshots into bounded migration plans. It is
// greedy over *estimated completion cost* — each shard's heat weighted
// by its machine-class cost factor: while the costliest shard exceeds
// the imbalance threshold, move its hottest eligible key to the
// cheapest shard, provided the move shrinks the cost gap. On a
// homogeneous fleet (all weights 1) this degenerates to the historical
// heat-only plan bit for bit; on a mixed fleet it is what routes hot
// keys onto fast shards and leaves the cold tail on slow ones, since a
// slow shard saturates at a fraction of the raw heat a fast one
// absorbs. Migrated keys cool down for cooldownRounds so the planner
// cannot flap a key back and forth; ties between equally hot
// candidates break through a seeded rng over a fully sorted candidate
// list, so a fixed seed gives a fixed plan regardless of map iteration
// order.
type migrator struct {
	tune     Tuning
	rng      *rand.Rand
	round    uint64
	cooldown map[string]uint64 // key -> round at which it thaws

	// tweights is the QoS tenant weight table (nil = untenanted). When
	// set, candidates on the hot shard are ordered by their tenant's
	// overshare — demand share minus weight share — before heat, so an
	// aggressor's keys move (and churn sessions) before a victim's warm
	// keys are ever touched. With no weights every key ties at overshare
	// zero and the plan is the historical heat order bit for bit.
	tweights map[string]int
}

// newMigrator builds a migrator from (defaulted) tuning.
func newMigrator(t Tuning) *migrator {
	t = t.withDefaults()
	return &migrator{
		tune:     t,
		rng:      rand.New(rand.NewSource(t.Seed)),
		cooldown: map[string]uint64{},
	}
}

// setTenantWeights installs (or, with nil, clears) the QoS tenant
// weight table the candidate ordering biases by.
func (m *migrator) setTenantWeights(weights map[string]int) {
	if len(weights) == 0 {
		m.tweights = nil
		return
	}
	w := make(map[string]int, len(weights))
	for tn, v := range weights {
		w[tn] = v
	}
	m.tweights = w
}

// candidate is one movable key on the costliest shard. prio is the
// key's tenant overshare (0 on untenanted fleets).
type candidate struct {
	key  string
	heat float64
	prio float64
}

// tenantOvershare computes each weighted tenant's demand share minus
// its weight share from the tracker's tenant heat: positive for a
// class pulling more than its fair share (the aggressor), negative for
// one under it (the victim). Nil when the bias cannot apply.
func (m *migrator) tenantOvershare(h *heatTracker) map[string]float64 {
	if len(m.tweights) == 0 {
		return nil
	}
	th := h.TenantHeat()
	var totHeat float64
	var totW int
	for tn, w := range m.tweights {
		totW += w
		totHeat += th[tn]
	}
	if totHeat <= 0 || totW <= 0 {
		return nil
	}
	out := make(map[string]float64, len(m.tweights))
	for tn, w := range m.tweights {
		out[tn] = th[tn]/totHeat - float64(w)/float64(totW)
	}
	return out
}

// weightOf resolves shard i's cost factor from a weight vector that
// may be nil (homogeneous fleet) or short.
func weightOf(costw []float64, i int) float64 {
	if i < len(costw) && costw[i] > 0 {
		return costw[i]
	}
	return 1
}

// plan computes this round's migrations from the tracker's current
// heat, weighted by the per-shard cost factors (nil = homogeneous),
// and applies them to the tracker's placement view (Rebind), so
// consecutive calls converge instead of re-proposing the same move.
// Keys in `skip` (nil = none) are fenced off — Replicated uses this to
// keep replicated keys, whose home is a whole replica set, out of
// single-home migration plans. Shards marked true in `down` (nil = all
// live) are never picked as a move's source or — the dangerous half,
// since a dead shard's heat decays toward the coldest in the fleet —
// its destination. The fleet applies the actual session moves
// afterwards.
func (m *migrator) plan(h *heatTracker, costw []float64, skip map[string]bool, down []bool) []Move {
	m.round++
	var moves []Move
	for len(moves) < m.tune.MaxMovesPerRound {
		mv, ok := m.planOne(h, costw, skip, down)
		if !ok {
			break
		}
		h.Rebind(mv.Key, mv.To)
		m.cooldown[mv.Key] = m.round + cooldownRounds
		moves = append(moves, mv)
	}
	// Drop thawed entries so the map stays bounded by recent movers.
	for key, until := range m.cooldown {
		if until <= m.round {
			delete(m.cooldown, key)
		}
	}
	return moves
}

// planOne picks the single best move, or reports balance. All
// comparisons run over estimated completion cost (heat x cost factor),
// over live shards only.
func (m *migrator) planOne(h *heatTracker, costw []float64, skip map[string]bool, down []bool) (Move, bool) {
	heat := h.ShardHeat()
	if len(heat) < 2 {
		return Move{}, false
	}
	cost := make([]float64, len(heat))
	hot, cold := -1, -1
	live := 0
	var sum float64
	for i, v := range heat {
		if i < len(down) && down[i] {
			continue
		}
		live++
		cost[i] = v * weightOf(costw, i)
		sum += cost[i]
		if hot < 0 || cost[i] > cost[hot] {
			hot = i
		}
		if cold < 0 || cost[i] < cost[cold] {
			cold = i
		}
	}
	if live < 2 {
		return Move{}, false
	}
	mean := sum / float64(live)
	if mean <= 0 || hot == cold || cost[hot] < m.tune.ImbalanceThreshold*mean {
		return Move{}, false
	}
	gap := cost[hot] - cost[cold]
	wCold := weightOf(costw, cold)

	overshare := m.tenantOvershare(h)
	cands := make([]candidate, 0, 8)
	for key, kh := range h.keysOn(hot) {
		if kh <= 0 || skip[key] {
			continue
		}
		if until, cooling := m.cooldown[key]; cooling && until > m.round {
			continue
		}
		cands = append(cands, candidate{key, kh, overshare[h.KeyTenant(key)]})
	}
	// Aggressor tenants' keys first (highest overshare), hottest first
	// within a tenant tier; key order breaks exact ties
	// deterministically before the seeded pick below chooses among
	// them. The sort gives a total order, which is what keeps the plan
	// independent of the map iteration order cands were collected in.
	// Untenanted, every prio is 0 and this is the historical heat order.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].prio != cands[j].prio {
			return cands[i].prio > cands[j].prio
		}
		if cands[i].heat != cands[j].heat {
			return cands[i].heat > cands[j].heat
		}
		return cands[i].key < cands[j].key
	})
	for i, c := range cands {
		// A key whose cost on the destination would meet or exceed the
		// gap would just swap which shard is overloaded (on a mixed
		// fleet: a key a slow shard cannot absorb); skip down to the
		// first one that helps.
		if c.heat*wCold >= gap {
			continue
		}
		// Among candidates of identical heat, pick one by seeded rng:
		// the "keyed by seed" knob that decorrelates repeated sweeps
		// while staying reproducible run-to-run.
		j := i
		for j+1 < len(cands) && cands[j+1].heat == c.heat && cands[j+1].prio == c.prio {
			j++
		}
		pick := cands[i+m.rng.Intn(j-i+1)]
		return Move{Kind: MoveMigrate, Key: pick.key, From: hot, To: cold}, true
	}
	return Move{}, false
}
