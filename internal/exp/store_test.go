package exp

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/tech"
)

// TestEvictionScoring exercises the cost-aware LRU-tail policy on
// synthetic entries: the cheapest-to-rebuild-per-byte entry in the tail
// window goes first, and an entry larger than the whole budget is dropped
// immediately.
func TestEvictionScoring(t *testing.T) {
	mkKey := func(target float64) ckKey {
		cfg := core.DefaultFlowConfig(tech.Pattern{Front: 4, Back: 4}, target, 0.7)
		return ckKey{pc: PrefixClass{sk: ClassOf(tech.FFET, cfg).sk}}
	}
	c := NewStore(context.Background(), 100)
	add := func(target float64, bytes, costNs int64) *storeEntry {
		e := &storeEntry{key: mkKey(target), ready: make(chan struct{}), bytes: bytes, costNs: costNs}
		close(e.ready)
		c.mu.Lock()
		c.entries[e.key] = e
		c.stats.ResidentBytes += bytes
		e.elem = c.lru.PushFront(e)
		c.evictLocked()
		c.mu.Unlock()
		return e
	}

	a := add(1.0, 40, 400) // score 10 ns/byte
	b := add(1.1, 40, 40)  // score 1 — the designated victim
	cc := add(1.2, 40, 4000)
	c.mu.Lock()
	_, hasA := c.entries[a.key]
	_, hasB := c.entries[b.key]
	_, hasC := c.entries[cc.key]
	resident, evictions := c.stats.ResidentBytes, c.stats.Evictions
	c.mu.Unlock()
	if !hasA || hasB || !hasC {
		t.Fatalf("victim selection wrong: a=%v b=%v c=%v", hasA, hasB, hasC)
	}
	if resident != 80 || evictions != 1 {
		t.Fatalf("resident %d evictions %d, want 80/1", resident, evictions)
	}

	// An entry bigger than the entire budget cannot be retained.
	d := add(1.3, 200, 1)
	c.mu.Lock()
	_, hasD := c.entries[d.key]
	resident = c.stats.ResidentBytes
	c.mu.Unlock()
	if hasD {
		t.Fatal("over-budget entry retained")
	}
	if resident > 100 {
		t.Fatalf("resident %d > budget after over-budget insert", resident)
	}
}
