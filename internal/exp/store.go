package exp

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/core"
)

// ckKey is the comparable identity of one checkpoint: the sharing class
// of the staged work it holds. A synthesis root's pc carries only the
// synthesis class.
type ckKey struct {
	prefix bool
	pc     PrefixClass
}

// storeEntry is one stored checkpoint. Until ready closes, the entry is a
// pending build owned by the goroutine that inserted it — concurrent
// callers for the same key coalesce by waiting on ready instead of
// building their own copy. Failed builds never stay stored: the builder
// removes the entry before closing ready, so the next caller retries from
// scratch and a transient fault cannot poison the class.
type storeEntry struct {
	key   ckKey
	ready chan struct{}
	flow  *core.Flow // set before ready closes on success
	err   error      // set before ready closes on failure

	bytes  int64 // measured footprint (core.Flow.FootprintBytes)
	costNs int64 // rebuild cost: the stage times the checkpoint retains
	elem   *list.Element
}

// StoreStats is a point-in-time snapshot of the store counters.
type StoreStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Coalesced     int64 `json:"coalesced"`
	Evictions     int64 `json:"evictions"`
	Entries       int   `json:"entries"`
	ResidentBytes int64 `json:"resident_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
}

// Store is the cross-call checkpoint store an executor call may build its
// synthesis roots and placed prefixes through: an LRU of staged core.Flow
// sessions keyed by sharing class, bounded by the measured byte footprint
// of the retained sessions, with concurrent builds of one key coalesced.
// Eviction is cost-aware: among the least-recently-used tail it drops the
// entry with the worst bytes-per-rebuild-nanosecond, so a cheap-to-rebuild
// synthesis root goes before an expensive placed prefix of the same size.
// Evicted sessions stay valid for callers already forking off them — the
// store drops its reference, the garbage collector waits for theirs.
type Store struct {
	// ctx bounds every build: a stored checkpoint outlives the call that
	// started it, so its build ignores that call's cancellation.
	ctx     context.Context
	mu      sync.Mutex
	entries map[ckKey]*storeEntry
	lru     *list.List // Front = most recently used; values are *storeEntry
	stats   StoreStats // counters, resident and budget bytes; Entries unset
}

// NewStore returns an empty store bounded by budgetBytes whose builds run
// under ctx.
func NewStore(ctx context.Context, budgetBytes int64) *Store {
	return &Store{
		ctx:     ctx,
		entries: make(map[ckKey]*storeEntry),
		lru:     list.New(),
		stats:   StoreStats{BudgetBytes: budgetBytes},
	}
}

// getOrBuild returns the checkpoint session for key, building it with
// build on first use. Exactly one goroutine builds a given key at a time;
// the others coalesce onto the pending build and wait for it under their
// own context (waitCtx), so a caller that gives up abandons the wait
// without disturbing the shared build. The reported hit is true when the
// session came from the store (including a coalesced wait) and false when
// this call built it.
func (c *Store) getOrBuild(waitCtx context.Context, key ckKey, build func(context.Context) (*core.Flow, error)) (flow *core.Flow, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.ready:
			// Only successful builds stay in the map once ready closes.
			c.stats.Hits++
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.flow, true, nil
		default:
			c.stats.Coalesced++
			c.mu.Unlock()
			select {
			case <-e.ready:
				if e.err != nil {
					return nil, false, e.err
				}
				c.mu.Lock()
				if e.elem != nil { // nil once evicted
					c.lru.MoveToFront(e.elem)
				}
				c.mu.Unlock()
				return e.flow, true, nil
			case <-waitCtx.Done():
				return nil, false, waitCtx.Err()
			}
		}
	}
	e := &storeEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.stats.Misses++
	c.mu.Unlock()

	flow, err = runBuild(c.ctx, build)
	if err != nil {
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		e.err = err
		close(e.ready)
		c.mu.Unlock()
		return nil, false, err
	}
	e.flow = flow
	e.bytes = flow.FootprintBytes()
	for _, d := range flow.Result().StageTimes {
		e.costNs += d.Nanoseconds()
	}
	c.mu.Lock()
	c.stats.ResidentBytes += e.bytes
	e.elem = c.lru.PushFront(e)
	close(e.ready)
	c.evictLocked()
	c.mu.Unlock()
	return flow, false, nil
}

// runBuild runs one checkpoint build under ctx, containing panics the
// same way the executor contains sweep-point panics: a panicking stage
// body kills only this build. A failed build never returns a session.
func runBuild(ctx context.Context, build func(context.Context) (*core.Flow, error)) (flow *core.Flow, err error) {
	defer func() {
		if r := recover(); r != nil {
			flow, err = nil, core.NewPanicError("checkpoint", r)
		}
	}()
	if flow, err = build(ctx); err != nil {
		return nil, err
	}
	return flow, nil
}

// evictLocked drops entries until the resident footprint fits the
// budget. The victim is chosen from the least-recently-used tail (a
// small window, so recency still dominates): the entry with the lowest
// rebuild-cost-per-byte goes first. An entry larger than the whole
// budget is evicted immediately — its waiters already hold the session
// reference, the store just declines to retain it.
func (c *Store) evictLocked() {
	const window = 4
	for c.stats.ResidentBytes > c.stats.BudgetBytes && c.lru.Len() > 0 {
		victim := c.lru.Back()
		best := victim.Value.(*storeEntry)
		bestScore := score(best)
		for el, i := victim.Prev(), 1; el != nil && i < window; el, i = el.Prev(), i+1 {
			if e := el.Value.(*storeEntry); score(e) < bestScore {
				victim, best, bestScore = el, e, score(e)
			}
		}
		c.lru.Remove(victim)
		delete(c.entries, best.key)
		best.elem = nil
		c.stats.ResidentBytes -= best.bytes
		c.stats.Evictions++
	}
}

// score ranks eviction candidates: rebuild nanoseconds bought per
// resident byte. Lower is a better victim.
func score(e *storeEntry) float64 {
	b := e.bytes
	if b <= 0 {
		b = 1
	}
	return float64(e.costNs) / float64(b)
}

// Stats snapshots the store counters.
func (c *Store) Stats() StoreStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	return st
}
