package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"pathalgebra/internal/graph"
	"pathalgebra/internal/obs"
	"pathalgebra/internal/path"
)

// cursor is one session-scoped query: its result once known, the cancel
// handle aborting its evaluation, and pagination bookkeeping. Page reads
// serialize on mu (a cursor is a sequential protocol; concurrent /next
// calls on one id would otherwise race the page position).
type cursor struct {
	id     string
	chunk  int
	cancel context.CancelFunc // cancels the query context (deadline included)
	// ready is closed once the result is known: total paths, encoded
	// whole in enc — or, for a no_cache query, encoded a page at a time
	// from paths, whose IDs resolve against g — or err, its evaluation's
	// error. All are written before ready closes and read after.
	ready chan struct{}
	enc   *encoded
	paths []path.Path
	g     *graph.Graph
	total int
	err   error
	// discarded marks a cursor whose registration was rejected after its
	// evaluation had already launched; the completion watcher then skips
	// the completed/failed accounting (the request counted as rejected).
	discarded atomic.Bool

	// trace/root carry the per-query trace when the query is traced (by
	// request or for the slow-query log); both nil otherwise — every span
	// operation through them is a nil no-op. wantTrace gates returning
	// the span tree on the final page (slow-query-only traces stay
	// server-side).
	trace     *obs.Trace
	root      *obs.Span
	wantTrace bool

	mu  sync.Mutex
	pos int // lines paged so far, severed pages included
	// lastRead is the unix-nano time of the last page read (or of
	// creation). It is atomic so the idle sweeper never waits on mu,
	// which a /next holds for its whole page write to the client.
	lastRead atomic.Int64
}

// touch records a page read for the idle-TTL sweeper.
func (c *cursor) touch(now time.Time) {
	c.lastRead.Store(now.UnixNano())
}

// cursorTable is the mutex-guarded cursor registry. Cursors are removed
// on exhaustion, on error delivery, on DELETE, by the idle sweeper, and
// all at once on server close.
type cursorTable struct {
	mu      sync.Mutex
	cursors map[string]*cursor
	max     int
}

func newCursorTable(max int) *cursorTable {
	return &cursorTable{cursors: make(map[string]*cursor), max: max}
}

// add registers c, reporting false when the table is full.
func (t *cursorTable) add(c *cursor) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.cursors) >= t.max {
		return false
	}
	t.cursors[c.id] = c
	return true
}

func (t *cursorTable) get(id string) (*cursor, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.cursors[id]
	return c, ok
}

// remove unregisters id, returning the cursor if it was present. It does
// NOT cancel the cursor — callers decide (exhaustion keeps nothing
// running; DELETE and the sweeper cancel).
func (t *cursorTable) remove(id string) (*cursor, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.cursors[id]
	if ok {
		delete(t.cursors, id)
	}
	return c, ok
}

func (t *cursorTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cursors)
}

// drainAll removes every cursor and returns them for cancellation —
// server close.
func (t *cursorTable) drainAll() []*cursor {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*cursor, 0, len(t.cursors))
	//lint:ignore detorder every collected cursor is cancelled; cancellation order is unobservable
	for id, c := range t.cursors {
		out = append(out, c)
		delete(t.cursors, id)
	}
	return out
}

// sweepIdle removes and returns cursors whose last page read (or
// creation, if never read) is older than ttl.
func (t *cursorTable) sweepIdle(now time.Time, ttl time.Duration) []*cursor {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*cursor
	//lint:ignore detorder every swept cursor is cancelled; cancellation order is unobservable
	for id, c := range t.cursors {
		if now.Sub(time.Unix(0, c.lastRead.Load())) > ttl {
			out = append(out, c)
			delete(t.cursors, id)
		}
	}
	return out
}
