package engine

import (
	"hash/fnv"

	"pathalgebra/internal/core"
	"pathalgebra/internal/graph"
	"pathalgebra/internal/lru"
	"pathalgebra/internal/opt"
)

// planCache is a fixed-capacity LRU of planned queries. Keys are the
// normalized fingerprint of the INPUT plan — the FNV-64a hash of its
// canonical String rendering, which the parser and compiler already
// normalize (whitespace, label quoting and operator sugar all disappear
// in the expression tree) — so syntactically different spellings of the
// same logical plan share one cache slot. The stored value is the fully
// planned physical tree with its derivation (opt.Derive: the annotated
// tree the engine evaluates, automata included), both immutable and
// safely shared across evaluations — a hit re-derives nothing. Hits
// verify the full key text: a fingerprint collision (≈2^-64 per pair)
// degrades to a miss, never to a wrong plan.
//
// The cache is engine-private and mutex-guarded (lru.Cache): concurrent
// Plan/Run calls on one engine serialize only the cache probe and the
// (rare) planning of a cold query, never evaluation.
//
// The key additionally carries the limits the plan was planned under
// (folded into the fingerprint, verified on the entry): the same query
// text under MaxLen 2 and MaxLen 5 occupies two slots. An entry also
// records the statistics it was costed against, and a lookup against
// other statistics misses and replaces it. A delta view shares its
// sealed base's statistics (graph.Stats), so a plan is reused across
// ingest batches and costed again only when a reseal or compaction
// publishes a new base. An entry keeps its statistics, and through them
// its base's label index, alive until it is replaced or evicted.
type planCache struct {
	entries *lru.Cache[uint64, *planEntry]
}

type planEntry struct {
	stats   *graph.Stats
	limits  core.Limits
	key     string
	plan    core.PathExpr
	applied []string
	derived *opt.Derivation
}

func newPlanCache(capacity int) *planCache {
	return &planCache{entries: lru.New[uint64, *planEntry](capacity)}
}

// planFingerprint hashes the normalized plan text.
func planFingerprint(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// slotFp folds limits into a plan fingerprint: FNV-64a over their bytes,
// continued from the fingerprint.
func slotFp(fp uint64, lim core.Limits) uint64 {
	for _, v := range [...]uint64{uint64(lim.MaxLen), uint64(lim.MaxPaths), uint64(lim.MaxWork)} {
		for i := 0; i < 8; i++ {
			fp ^= uint64(byte(v >> (8 * i)))
			fp *= 1099511628211 // the 64-bit FNV prime
		}
	}
	return fp
}

func (c *planCache) get(st *graph.Stats, lim core.Limits, fp uint64, key string) (*planEntry, bool) {
	ent, ok := c.entries.Get(slotFp(fp, lim))
	if !ok || ent.key != key || ent.stats != st || ent.limits != lim {
		return nil, false
	}
	return ent, true
}

func (c *planCache) put(fp uint64, ent *planEntry) {
	c.entries.Put(slotFp(fp, ent.limits), ent)
}

// Len returns the number of cached plans.
func (c *planCache) Len() int { return c.entries.Len() }
