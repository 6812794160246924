package placement

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// trackerAlpha builds a tracker with an explicit EWMA weight, so the
// tests' arithmetic stays exact.
func trackerAlpha(shards int, alpha float64) *heatTracker {
	h := newHeatTracker(shards)
	h.alpha = alpha
	return h
}

// Record counts untenanted calls, the shorthand the tests feed heat with.
func (h *heatTracker) Record(key string, shard int, n float64) {
	h.RecordTenant(key, "", shard, n)
}

// KeyHeat returns key's EWMA heat and the shard the tracker believes
// it lives on (-1 when unknown).
func (h *heatTracker) KeyHeat(key string) (heat float64, shard int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sid, ok := h.keyShard[key]; ok {
		return h.keyHeat[key], sid
	}
	return h.keyHeat[key], -1
}

func TestHeatEWMAFold(t *testing.T) {
	h := trackerAlpha(2, 0.5)
	for i := 0; i < 8; i++ {
		h.Record("hot", 0, 1)
	}
	h.Record("cold", 1, 2)
	h.Advance()

	if heat, sid := h.KeyHeat("hot"); !almost(heat, 4) || sid != 0 {
		t.Fatalf("hot after round 1 = (%v, %d), want (4, 0)", heat, sid)
	}
	if heat, sid := h.KeyHeat("cold"); !almost(heat, 1) || sid != 1 {
		t.Fatalf("cold after round 1 = (%v, %d), want (1, 1)", heat, sid)
	}
	sh := h.ShardHeat()
	if !almost(sh[0], 4) || !almost(sh[1], 1) {
		t.Fatalf("shard heat = %v, want [4 1]", sh)
	}

	// A silent round halves everything (alpha 0.5, zero window).
	h.Advance()
	if heat, _ := h.KeyHeat("hot"); !almost(heat, 2) {
		t.Fatalf("hot after silent round = %v, want 2", heat)
	}
	sh = h.ShardHeat()
	if !almost(sh[0], 2) || !almost(sh[1], 0.5) {
		t.Fatalf("shard heat after silent round = %v, want [2 0.5]", sh)
	}
}

func TestHeatDecayForgetsKeys(t *testing.T) {
	h := trackerAlpha(1, 0.5)
	h.Record("once", 0, 1)
	h.Advance()
	for i := 0; i < 20; i++ {
		h.Advance()
	}
	if heat, sid := h.KeyHeat("once"); heat != 0 || sid != -1 {
		t.Fatalf("decayed key still tracked: (%v, %d)", heat, sid)
	}
	if got := len(h.keyHeat); got != 0 {
		t.Fatalf("keyHeat retains %d entries after full decay", got)
	}
	if got := len(h.keyShard); got != 0 {
		t.Fatalf("keyShard retains %d entries after full decay", got)
	}
}

func TestImbalanceScore(t *testing.T) {
	h := trackerAlpha(4, 0.5)
	if s := h.ImbalanceScore(); s != 0 {
		t.Fatalf("imbalance of silent fleet = %v, want 0", s)
	}
	for i := 0; i < 4; i++ {
		h.Record("k", 0, 1) // everything on shard 0
	}
	h.Advance()
	if s := h.ImbalanceScore(); !almost(s, 4) {
		t.Fatalf("one-shard imbalance = %v, want 4 (the shard count)", s)
	}

	h2 := trackerAlpha(2, 1.0)
	h2.Record("a", 0, 3)
	h2.Record("b", 1, 3)
	h2.Advance()
	if s := h2.ImbalanceScore(); !almost(s, 1) {
		t.Fatalf("balanced imbalance = %v, want 1", s)
	}
}

func TestHeatRebindMovesAggregates(t *testing.T) {
	h := trackerAlpha(2, 1.0)
	h.Record("k", 0, 6)
	h.Record("other", 0, 2)
	h.Advance()

	h.Rebind("k", 1)
	sh := h.ShardHeat()
	if !almost(sh[0], 2) || !almost(sh[1], 6) {
		t.Fatalf("shard heat after rebind = %v, want [2 6]", sh)
	}
	if _, sid := h.KeyHeat("k"); sid != 1 {
		t.Fatalf("key shard after rebind = %d, want 1", sid)
	}

	// Window counts recorded before the rebind move along with the key.
	h.Record("k", 1, 4)
	h.Advance()
	if heat, _ := h.KeyHeat("k"); !almost(heat, 4) {
		t.Fatalf("key heat after post-rebind round = %v, want 4", heat)
	}
}

func TestRecordIgnoresBadShard(t *testing.T) {
	h := trackerAlpha(2, 0.5)
	h.Record("k", -1, 1)
	h.Record("k", 7, 1)
	h.Advance()
	if heat, _ := h.KeyHeat("k"); heat != 0 {
		t.Fatalf("out-of-range record leaked heat %v", heat)
	}
}

func TestRecordTenantHeat(t *testing.T) {
	h := trackerAlpha(2, 0.5)
	h.RecordTenant("a1", "agg", 0, 6)
	h.RecordTenant("v1", "vic", 1, 2)
	h.Record("plain", 0, 1) // untenanted traffic stays untagged
	h.Advance()

	th := h.TenantHeat()
	if got := th["agg"]; !almost(got, 3) {
		t.Fatalf("agg heat = %v, want 3", got)
	}
	if got := th["vic"]; !almost(got, 1) {
		t.Fatalf("vic heat = %v, want 1", got)
	}
	if _, ok := th[""]; ok {
		t.Fatal("untenanted traffic leaked into tenant heat")
	}
	if got := h.KeyTenant("a1"); got != "agg" {
		t.Fatalf("KeyTenant(a1) = %q", got)
	}
	if got := h.KeyTenant("plain"); got != "" {
		t.Fatalf("KeyTenant(plain) = %q, want empty", got)
	}

	// Idle tenants decay out like idle keys.
	for i := 0; i < 20; i++ {
		h.Advance()
	}
	if th := h.TenantHeat(); len(th) != 0 {
		t.Fatalf("idle tenant heat not reclaimed: %v", th)
	}
	if got := h.KeyTenant("a1"); got != "" {
		t.Fatalf("decayed key kept its tenant tag: %q", got)
	}
}
