package server

import (
	"sync/atomic"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/lru"
)

// footprintCache is an LRU (lru.Cache) of answers that stay valid only
// while no ingest batch touches a label their plan reads. Every entry
// records the epoch its answer was computed at and the label footprint
// of the plan that produced it (Stream.Footprint, ReachResult.Footprint);
// a probe hits only while no batch since that epoch has touched any of
// those labels (Store.ValidAt consults the store's per-label modification
// clock). A delta touching only `knows` therefore evicts entries whose
// plan reads `knows` and leaves the rest servable. Hits and misses are counted after
// that check, so an invalidated entry — evicted on probe — counts as a
// miss. An invalidated entry no probe reaches is dropped by the next
// admission after the store's epoch moves (put), so dead answers do not
// hold the LRU's capacity and bytes until they age out. Capacity is
// counted in entries; explicit invalidation (the /cache/invalidate
// endpoint) empties the cache wholesale.
//
// The server keeps two instances. The result cache holds query results
// keyed by the canonical rendering of the PLANNED physical plan plus the
// evaluation limits (the two inputs that determine a result byte for
// byte — the engine's evaluation is deterministic). Each is held as its
// NDJSON encoding (encoded), made once when its evaluation completed and
// rendered with that epoch's graph view: immutable bytes shared by every
// cursor that hits it, which page byte ranges of them at no evaluation,
// rendering or copying cost. An entry pins neither the path set nor the
// graph, and the collector does not scan its bytes. The reach cache
// holds rendered POST /reach answers. They are separate instances
// on purpose: reach answers are path-free while query results are path
// lines, and the two evaluation routes must never alias — a kernel answer
// under a key an enumeration could hit would be a correctness bug, not a
// cache policy choice. Reach keys also carry a "reach:<mode>:" prefix, so
// even a merged store could not collide them.
type footprintCache[V any] struct {
	store        *graph.Store
	entries      *lru.Cache[string, stamped[V]]
	hits, misses atomic.Int64
	swept        atomic.Uint64 // the store epoch of the last sweep (put)
}

// stamped is a cached answer with the epoch it was computed at and its
// plan's label footprint.
type stamped[V any] struct {
	val   V
	epoch uint64
	fp    graph.Footprint
}

func newFootprintCache[V any](store *graph.Store, capacity int) *footprintCache[V] {
	c := &footprintCache[V]{store: store, entries: lru.New[string, stamped[V]](capacity)}
	c.swept.Store(store.Epoch())
	return c
}

// get returns the cached answer for key if it is still valid at the
// store's current epoch, bumping its recency.
func (c *footprintCache[V]) get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	ent, ok := c.entries.Get(key)
	if ok && !c.store.ValidAt(ent.fp, ent.epoch) {
		c.entries.Delete(key)
		ok = false
	}
	if !ok {
		c.misses.Add(1)
		return zero, false
	}
	c.hits.Add(1)
	return ent.val, true
}

// put admits an answer computed at epoch by a plan with footprint fp,
// evicting least-recently-used entries beyond capacity. The first put
// after the store's epoch moves first deletes every entry the store has
// invalidated since, so a store that takes no batches never sweeps.
func (c *footprintCache[V]) put(key string, val V, epoch uint64, fp graph.Footprint) {
	if c == nil {
		return
	}
	if now := c.store.Epoch(); c.swept.Swap(now) != now {
		c.entries.DeleteFunc(func(_ string, ent stamped[V]) bool { return !c.store.ValidAt(ent.fp, ent.epoch) })
	}
	c.entries.Put(key, stamped[V]{val: val, epoch: epoch, fp: fp})
}

// invalidate empties the cache and returns how many entries it dropped.
func (c *footprintCache[V]) invalidate() int {
	if c == nil {
		return 0
	}
	return c.entries.Clear()
}

// snapshot returns (entries, hits, misses) for /stats.
func (c *footprintCache[V]) snapshot() (entries int, hits, misses int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.entries.Len(), c.hits.Load(), c.misses.Load()
}
