package placement

import "sync"

// minHeat is the EWMA floor below which a key's entry is dropped, so a
// long-lived tracker does not retain every key ever seen.
const minHeat = 1e-3

// heatTracker maintains EWMA call-rate estimates per client key and
// per shard. Calls are counted into the current round's window
// (RecordTenant); Advance folds the window into the moving averages
// and opens the next round. Rounds align with the fleet's rebalance
// barriers, so heat — like everything else under RunPlan — is a pure
// function of the request sequence.
type heatTracker struct {
	mu sync.Mutex
	// alpha is the EWMA weight of the newest round (heatAlpha; unit
	// tests pin other values to make the arithmetic exact).
	alpha float64

	keyHeat  map[string]float64 // EWMA calls/round per key
	keyWin   map[string]float64 // current round's counts per key
	keyShard map[string]int     // tracker's view of key placement

	// Tenant heat (QoS): which tenant class each key last called under,
	// and per-tenant EWMA demand. Populated only by RecordTenant with a
	// non-empty tenant, so untenanted fleets never touch these maps.
	keyTenant  map[string]string
	tenantHeat map[string]float64
	tenantWin  map[string]float64

	shardHeat []float64 // EWMA calls/round per shard
	shardWin  []float64 // current round's counts per shard
}

// newHeatTracker builds a tracker over the given shard count.
func newHeatTracker(shards int) *heatTracker {
	return &heatTracker{
		alpha:      heatAlpha,
		keyHeat:    map[string]float64{},
		keyWin:     map[string]float64{},
		keyShard:   map[string]int{},
		keyTenant:  map[string]string{},
		tenantHeat: map[string]float64{},
		tenantWin:  map[string]float64{},
		shardHeat:  make([]float64, shards),
		shardWin:   make([]float64, shards),
	}
}

// RecordTenant counts n calls for key routed to shard in the current
// round, under the tenant class the call ran as. An empty tenant
// counts the call alone; otherwise the call also feeds the tenant's
// demand EWMA and tags the key with its latest class, which is what
// lets the migrator tell an aggressor's keys from a victim's.
func (h *heatTracker) RecordTenant(key, tenantName string, shard int, n float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if shard < 0 || shard >= len(h.shardWin) {
		return
	}
	h.keyWin[key] += n
	h.shardWin[shard] += n
	h.keyShard[key] = shard
	if tenantName != "" {
		h.keyTenant[key] = tenantName
		h.tenantWin[tenantName] += n
	}
}

// Advance closes the current round: every key's and shard's window
// count folds into its EWMA, windows reset, and keys whose heat
// decayed below the retention floor are forgotten.
func (h *heatTracker) Advance() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for key, heat := range h.keyHeat {
		next := h.alpha*h.keyWin[key] + (1-h.alpha)*heat
		if next < minHeat {
			delete(h.keyHeat, key)
			delete(h.keyShard, key)
			delete(h.keyTenant, key)
			continue
		}
		h.keyHeat[key] = next
	}
	for key, win := range h.keyWin {
		if _, known := h.keyHeat[key]; known || win <= 0 {
			continue
		}
		if next := h.alpha * win; next >= minHeat {
			h.keyHeat[key] = next
		} else {
			// Too faint to track: drop the placement entry RecordTenant left.
			delete(h.keyShard, key)
			delete(h.keyTenant, key)
		}
	}
	h.keyWin = map[string]float64{}
	for i, heat := range h.shardHeat {
		h.shardHeat[i] = h.alpha*h.shardWin[i] + (1-h.alpha)*heat
		h.shardWin[i] = 0
	}
	for tn, heat := range h.tenantHeat {
		next := h.alpha*h.tenantWin[tn] + (1-h.alpha)*heat
		if next < minHeat {
			delete(h.tenantHeat, tn)
			continue
		}
		h.tenantHeat[tn] = next
	}
	for tn, win := range h.tenantWin {
		if _, known := h.tenantHeat[tn]; known || win <= 0 {
			continue
		}
		if next := h.alpha * win; next >= minHeat {
			h.tenantHeat[tn] = next
		}
	}
	h.tenantWin = map[string]float64{}
}

// AddShard grows the tracker by one shard with zero heat — the
// elastic-resize hook. The new shard accumulates heat from its first
// RecordTenant; existing aggregates are untouched.
func (h *heatTracker) AddShard() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.shardHeat = append(h.shardHeat, 0)
	h.shardWin = append(h.shardWin, 0)
}

// ShardHeat returns a snapshot of per-shard EWMA heat.
func (h *heatTracker) ShardHeat() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, len(h.shardHeat))
	copy(out, h.shardHeat)
	return out
}

// TenantHeat returns a snapshot of per-tenant EWMA demand. Empty on
// untenanted fleets.
func (h *heatTracker) TenantHeat() map[string]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]float64, len(h.tenantHeat))
	for tn, v := range h.tenantHeat {
		out[tn] = v
	}
	return out
}

// KeyTenant returns the tenant class key last called under ("" when
// untracked or untenanted).
func (h *heatTracker) KeyTenant(key string) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.keyTenant[key]
}

// ImbalanceScore is max shard heat over mean shard heat: 1 is perfect
// balance, N (the shard count) is everything on one shard. Returns 0
// when the fleet has seen no heat at all.
func (h *heatTracker) ImbalanceScore() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var max, sum float64
	for _, v := range h.shardHeat {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum <= 0 || len(h.shardHeat) == 0 {
		return 0
	}
	return max / (sum / float64(len(h.shardHeat)))
}

// Rebind moves key's heat (and the tracker's placement view) to shard
// `to`, mirroring a migration: the key's EWMA leaves its old shard's
// aggregate and joins the new one, so the very next imbalance reading
// reflects the move instead of waiting a full decay cycle.
func (h *heatTracker) Rebind(key string, to int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if to < 0 || to >= len(h.shardHeat) {
		return
	}
	from, ok := h.keyShard[key]
	if !ok || from == to {
		h.keyShard[key] = to
		return
	}
	heat := h.keyHeat[key]
	h.shardHeat[from] -= heat
	if h.shardHeat[from] < 0 {
		h.shardHeat[from] = 0
	}
	h.shardHeat[to] += heat
	// Any un-folded window counts move too: they were routed to the old
	// shard, but the key will answer from the new one from now on.
	if win := h.keyWin[key]; win > 0 {
		h.shardWin[from] -= win
		if h.shardWin[from] < 0 {
			h.shardWin[from] = 0
		}
		h.shardWin[to] += win
	}
	h.keyShard[key] = to
}

// keysOn returns the keys currently placed on shard, for the migrator.
// Caller must hold no lock; the snapshot is taken under the tracker's.
func (h *heatTracker) keysOn(shard int) map[string]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := map[string]float64{}
	for key, sid := range h.keyShard {
		if sid == shard {
			out[key] = h.keyHeat[key]
		}
	}
	return out
}
