package graph

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"pathalgebra/internal/fault"
)

// Store is the mutable home of a live graph: a sequence of immutable
// epochs, each a *Graph (sealed CSR or delta view), swapped atomically as
// batches apply. Readers take an epoch with Current and evaluate against
// it unchanged — the automaton/core/arena read path never learns the
// graph is live — while a single writer applies batches and a compactor
// folds accumulated deltas back into a fresh sealed CSR. A published
// graph is never written again, so an epoch is a plain value: a reader
// holding it needs no pin, and the GC frees it once nothing refers to it.
//
// Epoch numbering is logical: epoch N is the state after N applied
// batches. Compaction is a physical swap — it replaces the delta view
// with an equivalent sealed graph under the same epoch number, so cached
// results and cursors keyed by epoch stay valid across it.
type Store struct {
	mu   sync.Mutex // serializes writers: Apply, Compact
	cur  atomic.Pointer[epochState]
	opts StoreOptions

	compactions atomic.Uint64

	// Durability: when wal is non-nil (OpenDurable), Apply logs and
	// fsyncs every batch before publishing its epoch, and the compactor
	// checkpoints (snapshot + WAL reset) after each fold. Both fields
	// are guarded by mu.
	wal          *WAL
	snapshotPath string
	checkpoints  atomic.Uint64

	// Compaction failures are survivable — the store keeps serving from
	// the un-compacted overlay — so they surface as counters plus a
	// last-error detail instead of dying silently.
	compactionErrs atomic.Uint64
	lastErrMu      sync.Mutex
	lastCompactErr string

	compactCh chan struct{}
	stopOnce  sync.Once
	stopCh    chan struct{}
	doneCh    chan struct{}
}

// StoreOptions tunes a Store.
type StoreOptions struct {
	// CompactThreshold is the delta size (appended objects + tombstones)
	// at which the store compacts the overlay into a fresh sealed CSR.
	// 0 selects DefaultCompactThreshold; negative disables automatic
	// compaction (Compact can still be called explicitly).
	CompactThreshold int
	// SyncCompact folds the delta inline in Apply when the threshold is
	// reached instead of handing it to the background compactor —
	// deterministic, for tests and single-shot CLI use.
	SyncCompact bool
}

// DefaultCompactThreshold is the delta size that triggers compaction when
// StoreOptions.CompactThreshold is zero.
const DefaultCompactThreshold = 4096

// epochState is one published epoch, immutable after publish.
type epochState struct {
	epoch uint64
	g     *Graph
	clock *labelClock
}

// NewStore wraps a sealed graph as epoch 0 of a live store. The graph
// must not be mutated afterwards (graphs built by Build never are).
func NewStore(g *Graph, opts StoreOptions) *Store {
	return newStoreAt(g, 0, opts)
}

// newStoreAt is NewStore starting at an arbitrary epoch — WAL recovery
// resumes numbering where the checkpoint left off.
func newStoreAt(g *Graph, epoch uint64, opts StoreOptions) *Store {
	if opts.CompactThreshold == 0 {
		opts.CompactThreshold = DefaultCompactThreshold
	}
	s := &Store{
		opts:   opts,
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	s.cur.Store(&epochState{epoch: epoch, g: g, clock: newLabelClock()})
	if opts.CompactThreshold > 0 && !opts.SyncCompact {
		s.compactCh = make(chan struct{}, 1)
		go s.compactor()
	} else {
		close(s.doneCh)
	}
	return s
}

// Close stops the background compactor and closes the WAL (if any).
// Graphs already handed out stay usable.
func (s *Store) Close() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	<-s.doneCh
	s.mu.Lock()
	if s.wal != nil {
		s.wal.Close()
	}
	s.mu.Unlock()
}

// Compaction retry backoff bounds: a failed fold retries on a doubling
// timer instead of giving up, while reads keep serving the overlay.
const (
	compactRetryBase = 25 * time.Millisecond
	compactRetryMax  = 5 * time.Second
)

func (s *Store) compactor() {
	defer close(s.doneCh)
	// Last-resort isolation: a panic escaping an attempt (each attempt
	// recovers its own — see compactOnce) must not kill the process via
	// an unrecovered goroutine.
	defer func() {
		if r := recover(); r != nil {
			s.noteCompactionError(fmt.Errorf("graph: compactor loop panic: %v", r))
		}
	}()
	backoff := compactRetryBase
	var timer *time.Timer
	var retryCh <-chan time.Time
	for {
		select {
		case <-s.stopCh:
			if timer != nil {
				timer.Stop()
			}
			return
		case <-s.compactCh:
		case <-retryCh:
			retryCh = nil
		}
		if err := s.compactOnce(); err != nil {
			s.noteCompactionError(err)
			if timer == nil {
				timer = time.NewTimer(backoff)
			} else {
				timer.Reset(backoff)
			}
			retryCh = timer.C
			backoff = min(backoff*2, compactRetryMax)
		} else {
			backoff = compactRetryBase
		}
	}
}

// compactOnce is one compaction attempt (plus checkpoint when the store
// is durable), with panics contained to the attempt: a poisoned overlay
// surfaces as a counted error and a retry, not a dead process — and
// never a dead compactor, so the store keeps serving the overlay and
// keeps trying.
func (s *Store) compactOnce() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("graph: compaction panic: %v\n%s", r, debug.Stack())
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.compactLocked(); err != nil {
		return err
	}
	return s.checkpointLocked()
}

// noteCompactionError records a failed compaction attempt for /stats.
func (s *Store) noteCompactionError(err error) {
	s.compactionErrs.Add(1)
	s.lastErrMu.Lock()
	s.lastCompactErr = err.Error()
	s.lastErrMu.Unlock()
}

// CompactionErrors returns the failed-attempt count and the most recent
// failure detail ("" when none) — advisory metrics for /stats.
func (s *Store) CompactionErrors() (uint64, string) {
	s.lastErrMu.Lock()
	last := s.lastCompactErr
	s.lastErrMu.Unlock()
	return s.compactionErrs.Load(), last
}

// Checkpoints returns the number of completed checkpoints (snapshot
// written + WAL reset); always 0 on a non-durable store.
func (s *Store) Checkpoints() uint64 { return s.checkpoints.Load() }

// WALStats reports the live WAL's record count and byte size; ok is
// false on a non-durable store.
func (s *Store) WALStats() (records int, bytes int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return 0, 0, false
	}
	return s.wal.Records(), s.wal.Size(), true
}

// Checkpoint folds the delta into a sealed CSR, writes it as the
// snapshot file, and resets the WAL under the current epoch. No-op on a
// non-durable store (Compact still runs).
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.compactLocked(); err != nil {
		return err
	}
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	if s.wal == nil {
		return nil
	}
	t0 := time.Now()
	cur := s.cur.Load()
	if err := writeSnapshot(s.snapshotPath, cur.epoch, cur.g); err != nil {
		return err
	}
	if err := s.wal.Reset(cur.epoch); err != nil {
		return err
	}
	checkpointSeconds.ObserveSince(t0)
	s.checkpoints.Add(1)
	return nil
}

// Epoch returns the current epoch number.
func (s *Store) Epoch() uint64 { return s.cur.Load().epoch }

// Graph returns the current epoch's graph — for one-shot reads where
// the epoch number does not matter. Use Current for evaluation.
func (s *Store) Graph() *Graph { return s.cur.Load().g }

// Current returns the current epoch's graph and number, read from one
// published state so the pair is never torn by a concurrent Apply.
func (s *Store) Current() (*Graph, uint64) {
	st := s.cur.Load()
	return st.g, st.epoch
}

// DeltaSize returns the current epoch's delta record count (appended
// objects plus tombstones); 0 when sealed.
func (s *Store) DeltaSize() int {
	if g := s.cur.Load().g; g.ov != nil {
		return g.ov.deltaSize()
	}
	return 0
}

// DeltaCounts returns the appended/tombstoned node and edge counts of the
// current epoch's overlay.
func (s *Store) DeltaCounts() (addedNodes, addedEdges, deadNodes, deadEdges int) {
	if g := s.cur.Load().g; g.ov != nil {
		ov := g.ov
		return len(ov.extraNodes), len(ov.extraEdges), len(ov.deadNodes), len(ov.deadEdges)
	}
	return 0, 0, 0, 0
}

// Compactions returns the number of compactions performed (inline reseals
// for unseen labels included).
func (s *Store) Compactions() uint64 { return s.compactions.Load() }

// ValidAt reports whether a result computed at the given epoch with the
// given label footprint is still current: no later batch touched any
// label the footprint reads.
func (s *Store) ValidAt(fp Footprint, epoch uint64) bool {
	return s.cur.Load().clock.validAt(fp, epoch)
}

// Compact folds the current delta view into a fresh sealed CSR under the
// same epoch number. No-op when already sealed.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	cur := s.cur.Load()
	if cur.g.ov == nil {
		return nil
	}
	t0 := time.Now()
	g, err := cur.g.Rebuild()
	if err != nil {
		return err
	}
	if err := fault.Hit("compact.swap"); err != nil {
		return fmt.Errorf("graph: compaction: %w", err)
	}
	s.cur.Store(&epochState{epoch: cur.epoch, g: g, clock: cur.clock})
	compactionSeconds.ObserveSince(t0)
	s.compactions.Add(1)
	return nil
}

// Apply applies one batch atomically and publishes the next epoch. On
// error nothing is published and the error wraps one of the typed
// sentinels (ErrDuplicateKey, ErrUnknownNode, ErrUnknownKey,
// ErrInvalidValue). A batch whose edge labels are all known to the
// sealed base extends the overlay at a cost of the batch plus what it
// touched — the previous epoch's patches of the nodes it touched and
// lists of the labels it touched, each copied once with its changes
// (finalize) — and a copy of the overlay's maps (clone); a batch
// introducing an unseen edge label reseals inline with Rebuild's fold
// (the lexicographic symbol order the CSR depends on cannot absorb a new
// symbol without perturbing discovery order).
func (s *Store) Apply(b Batch) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	cur := s.cur.Load()
	ov := overlayFor(cur.g).clone()

	eff, err := ov.applyOps(b)
	if err != nil {
		return cur.epoch, err
	}
	// Durability point: the validated batch is logged and fsync'd BEFORE
	// its epoch publishes, so an acknowledged Apply survives a crash. On
	// a WAL failure nothing publishes — the caller sees a typed error
	// and the store still serves the previous epoch.
	if s.wal != nil {
		if err := s.wal.Append(b); err != nil {
			return cur.epoch, err
		}
	}
	epoch := cur.epoch + 1
	clock := cur.clock.advance(eff, epoch)

	var g *Graph
	if eff.newLabel {
		// Reseal: the fold reads the appended rows and the tombstones,
		// never the patches or label lists finalize would have set.
		t0 := time.Now()
		g, err = ov.graph().Rebuild()
		if err != nil {
			return cur.epoch, err
		}
		compactionSeconds.ObserveSince(t0)
		s.compactions.Add(1)
	} else {
		ov.finalize(eff)
		g = ov.graph()
	}
	s.cur.Store(&epochState{epoch: epoch, g: g, clock: clock})

	if g.ov != nil && s.opts.CompactThreshold > 0 && g.ov.deltaSize() >= s.opts.CompactThreshold {
		if s.opts.SyncCompact {
			if err := s.compactLocked(); err != nil {
				return epoch, err
			}
			if err := s.checkpointLocked(); err != nil {
				return epoch, err
			}
		} else if s.compactCh != nil {
			select {
			case s.compactCh <- struct{}{}:
			default: // a compaction is already queued
			}
		}
	}
	return epoch, nil
}

func overlayFor(g *Graph) *overlay {
	if g.ov != nil {
		return g.ov
	}
	return emptyOverlay(g)
}

// effects accumulates what one batch touched, for patch finalization
// and the label clock.
type effects struct {
	touchedOut map[NodeID]struct{}
	touchedIn  map[NodeID]struct{}

	nodeLabels map[string]struct{}
	edgeLabels map[string]struct{}

	// The batch's own delta: the appended-object counts the clone started
	// from — extraNodes[startNodes:] and extraEdges[startEdges:] are what
	// the batch appended — and the IDs it killed, in the order it killed
	// them (finalize sorts them).
	startNodes, startEdges int
	killedNodes            []NodeID
	killedEdges            []EdgeID

	anyNode, anyEdge bool
	newLabel         bool
}

func newEffects(ov *overlay) *effects {
	return &effects{
		touchedOut: map[NodeID]struct{}{},
		touchedIn:  map[NodeID]struct{}{},
		nodeLabels: map[string]struct{}{},
		edgeLabels: map[string]struct{}{},
		startNodes: len(ov.extraNodes),
		startEdges: len(ov.extraEdges),
	}
}

// applyOps applies the batch's operations, in order, to the (private,
// pre-publish) overlay clone: object and key bookkeeping only — adjacency
// patches and label indexes are deferred to finalize so a
// failed op leaves nothing to unwind. Mid-batch reads therefore go
// through the key maps and liveIncident, never through the stale patches.
func (ov *overlay) applyOps(b Batch) (*effects, error) {
	eff := newEffects(ov)
	for i, op := range b.Ops {
		if err := checkSnapshottable(op); err != nil {
			return nil, fmt.Errorf("graph: batch op %d: %w", i, err)
		}
		var err error
		switch op.Kind {
		case OpAddNode:
			err = ov.applyAddNode(op, eff)
		case OpAddEdge:
			err = ov.applyAddEdge(op, eff)
		case OpDelNode:
			err = ov.applyDelNode(op, eff)
		case OpDelEdge:
			err = ov.applyDelEdge(op, eff)
		default:
			err = fmt.Errorf("graph: unknown op kind %d", op.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("graph: batch op %d: %w", i, err)
		}
	}
	return eff, nil
}

// checkSnapshottable rejects an op that WriteJSON — `export` and the
// `-graph` files — cannot hold: a string that is not valid UTF-8 (the
// rule checkUTF8 states for CSV cells; it would read back with U+FFFD in
// place of the bad bytes) or a NaN or infinite float, which JSON cannot
// encode at all. The binary checkpoint holds both exactly, so a graph
// built with them (Builder accepts them) checkpoints and recovers; the
// store refuses them from batches so that what it serves also exports.
func checkSnapshottable(op Op) error {
	for _, s := range [...]string{op.Key, op.Src, op.Dst, op.Label} {
		if !utf8.ValidString(s) {
			return fmt.Errorf("%s %q: invalid UTF-8: %w", op.Kind, op.Key, ErrInvalidValue)
		}
	}
	for _, name := range sortedPropNames(op.Props) {
		v := op.Props[name]
		if !utf8.ValidString(name) || v.Kind == KindString && !utf8.ValidString(v.Str()) {
			return fmt.Errorf("%s %q: property %q: invalid UTF-8: %w", op.Kind, op.Key, name, ErrInvalidValue)
		}
		if v.Kind == KindFloat && (math.IsNaN(v.Float()) || math.IsInf(v.Float(), 0)) {
			return fmt.Errorf("%s %q: property %q: %v is not a finite number: %w", op.Kind, op.Key, name, v.Float(), ErrInvalidValue)
		}
	}
	return nil
}

func (ov *overlay) keyInUse(key string) bool {
	if _, ok := ov.nodeByKey(key); ok {
		return true
	}
	_, ok := ov.edgeByKey(key)
	return ok
}

func (ov *overlay) applyAddNode(op Op, eff *effects) error {
	if ov.keyInUse(op.Key) {
		return fmt.Errorf("add_node %q: %w", op.Key, ErrDuplicateKey)
	}
	id := NodeID(ov.base.NumNodes() + len(ov.extraNodes))
	ov.extraNodes = append(ov.extraNodes, Node{
		ID: id, Key: op.Key, Label: op.Label, Props: maps.Clone(op.Props),
	})
	ov.addedNodeKeys[op.Key] = id
	ov.liveNodes++
	eff.nodeLabels[op.Label] = struct{}{}
	eff.anyNode = true
	return nil
}

func (ov *overlay) applyAddEdge(op Op, eff *effects) error {
	if ov.keyInUse(op.Key) {
		return fmt.Errorf("add_edge %q: %w", op.Key, ErrDuplicateKey)
	}
	src, okSrc := ov.nodeByKey(op.Src)
	if !okSrc {
		return fmt.Errorf("add_edge %q: source %q: %w", op.Key, op.Src, ErrUnknownNode)
	}
	dst, okDst := ov.nodeByKey(op.Dst)
	if !okDst {
		return fmt.Errorf("add_edge %q: target %q: %w", op.Key, op.Dst, ErrUnknownNode)
	}
	sym := SymbolID(NoSymbol)
	if s, ok := ov.base.symbolOf[op.Label]; ok {
		sym = s
	} else {
		eff.newLabel = true // forces an inline reseal; sym stays NoSymbol
	}
	id := EdgeID(ov.base.NumEdges() + len(ov.extraEdges))
	ov.extraEdges = append(ov.extraEdges, Edge{
		ID: id, Key: op.Key, Src: src, Dst: dst, Label: op.Label, Props: maps.Clone(op.Props),
	})
	ov.extraEdgeSym = append(ov.extraEdgeSym, sym)
	ov.addedEdgeKeys[op.Key] = id
	ov.liveEdges++
	eff.edgeLabels[op.Label] = struct{}{}
	eff.touchedOut[src] = struct{}{}
	eff.touchedIn[dst] = struct{}{}
	eff.anyEdge = true
	return nil
}

func (ov *overlay) applyDelNode(op Op, eff *effects) error {
	n, ok := ov.nodeByKey(op.Key)
	if !ok {
		return fmt.Errorf("del_node %q: %w", op.Key, ErrUnknownKey)
	}
	// Cascade: every live incident edge dies with its endpoint.
	for _, e := range ov.liveIncident(n, eff) {
		ov.killEdge(e, eff)
	}
	ov.deadNodes[n] = struct{}{}
	eff.killedNodes = append(eff.killedNodes, n)
	if _, added := ov.addedNodeKeys[op.Key]; added {
		delete(ov.addedNodeKeys, op.Key)
	}
	if _, inBase := ov.base.nodeKeys.find(op.Key); inBase {
		ov.deadNodeKeys[op.Key] = struct{}{}
	}
	ov.liveNodes--
	eff.nodeLabels[ov.nodeLabel(n)] = struct{}{}
	eff.anyNode = true
	eff.touchedOut[n] = struct{}{}
	eff.touchedIn[n] = struct{}{}
	return nil
}

func (ov *overlay) applyDelEdge(op Op, eff *effects) error {
	e, ok := ov.edgeByKey(op.Key)
	if !ok {
		return fmt.Errorf("del_edge %q: %w", op.Key, ErrUnknownKey)
	}
	ov.killEdge(e, eff)
	return nil
}

func (ov *overlay) killEdge(id EdgeID, eff *effects) {
	key := ov.edgeKey(id)
	src, dst := ov.endpoints(id)
	ov.deadEdges[id] = struct{}{}
	eff.killedEdges = append(eff.killedEdges, id)
	if _, added := ov.addedEdgeKeys[key]; added {
		delete(ov.addedEdgeKeys, key)
	}
	if _, inBase := ov.base.edgeKeys.find(key); inBase {
		ov.deadEdgeKeys[key] = struct{}{}
	}
	ov.liveEdges--
	eff.edgeLabels[ov.edgeLabel(id)] = struct{}{}
	eff.touchedOut[src] = struct{}{}
	eff.touchedIn[dst] = struct{}{}
	eff.anyEdge = true
}

// liveIncident returns the live edges incident to n (out and in, a
// self-loop once). It reads n's adjacency at the previous epoch (patch or
// base range) and the edges this batch appended, so it stays correct
// mid-batch while the patches are stale.
func (ov *overlay) liveIncident(n NodeID, eff *effects) []EdgeID {
	var out []EdgeID
	for _, e := range ov.prevAdj(n, true).Edges {
		if _, dead := ov.deadEdges[e]; !dead {
			out = append(out, e)
		}
	}
	in := ov.prevAdj(n, false)
	for i, e := range in.Edges {
		if _, dead := ov.deadEdges[e]; !dead && in.Nbrs[i] != n { // a self-loop is in out already
			out = append(out, e)
		}
	}
	for i := eff.startEdges; i < len(ov.extraEdges); i++ {
		e := &ov.extraEdges[i]
		if _, dead := ov.deadEdges[e.ID]; !dead && (e.Src == n || e.Dst == n) {
			out = append(out, e.ID)
		}
	}
	return out
}

// finalize rematerializes the adjacency patches and label indexes the
// batch invalidated, each from the previous epoch's: a touched node's
// patch loses the edges the batch killed and gains the live edges it
// appended, and a touched label's list the same.
func (ov *overlay) finalize(eff *effects) {
	slices.Sort(eff.killedNodes)
	slices.Sort(eff.killedEdges)
	outDrop, inDrop := map[NodeID][]adjRec{}, map[NodeID][]adjRec{}
	prevEdges := EdgeID(ov.base.NumEdges() + eff.startEdges)
	for _, e := range eff.killedEdges {
		if e < prevEdges { // in the previous epoch's adjacency
			src, dst := ov.endpoints(e)
			sym := ov.edgeSym(e)
			outDrop[src] = append(outDrop[src], adjRec{sym, e, dst})
			inDrop[dst] = append(inDrop[dst], adjRec{sym, e, src})
		}
	}
	outAdd, inAdd := map[NodeID][]adjRec{}, map[NodeID][]adjRec{}
	for i := eff.startEdges; i < len(ov.extraEdges); i++ {
		e := &ov.extraEdges[i]
		if _, dead := ov.deadEdges[e.ID]; !dead {
			sym := ov.extraEdgeSym[i]
			outAdd[e.Src] = append(outAdd[e.Src], adjRec{sym, e.ID, e.Dst})
			inAdd[e.Dst] = append(inAdd[e.Dst], adjRec{sym, e.ID, e.Src})
		}
	}
	for _, m := range []map[NodeID][]adjRec{outDrop, inDrop, outAdd, inAdd} {
		for _, recs := range m {
			slices.SortFunc(recs, func(a, b adjRec) int {
				if a.sym != b.sym {
					return cmp.Compare(a.sym, b.sym)
				}
				return cmp.Compare(a.id, b.id)
			})
		}
	}
	for n := range eff.touchedOut {
		ov.outPatch[n] = patchAdj(ov.prevAdj(n, true), outDrop[n], outAdd[n])
	}
	for n := range eff.touchedIn {
		ov.inPatch[n] = patchAdj(ov.prevAdj(n, false), inDrop[n], inAdd[n])
	}
	for l := range eff.nodeLabels {
		if l != "" { // unlabelled objects have no index entry (labelIndex)
			ov.patchNodeLabel(l, eff)
		}
	}
	for l := range eff.edgeLabels {
		if l != "" {
			ov.patchEdgeLabel(l, eff)
		}
	}
}

// labelClock is the immutable invalidation clock one epoch publishes:
// per-label last-modified epochs plus catch-all any-node/any-edge marks.
// A cached result with footprint fp computed at epoch e is current iff
// every label fp reads was last modified at or before e.
type labelClock struct {
	anyNode, anyEdge uint64
	nodeLabels       map[string]uint64
	edgeLabels       map[string]uint64
}

func newLabelClock() *labelClock {
	return &labelClock{
		nodeLabels: map[string]uint64{},
		edgeLabels: map[string]uint64{},
	}
}

// advance returns a new clock with the batch's touched labels stamped at
// epoch. The receiver is not modified (prior epochs keep their clocks).
func (c *labelClock) advance(eff *effects, epoch uint64) *labelClock {
	nc := &labelClock{
		anyNode:    c.anyNode,
		anyEdge:    c.anyEdge,
		nodeLabels: make(map[string]uint64, len(c.nodeLabels)+len(eff.nodeLabels)),
		edgeLabels: make(map[string]uint64, len(c.edgeLabels)+len(eff.edgeLabels)),
	}
	for l, e := range c.nodeLabels {
		nc.nodeLabels[l] = e
	}
	for l, e := range c.edgeLabels {
		nc.edgeLabels[l] = e
	}
	if eff.anyNode {
		nc.anyNode = epoch
	}
	if eff.anyEdge {
		nc.anyEdge = epoch
	}
	for l := range eff.nodeLabels {
		nc.nodeLabels[l] = epoch
	}
	for l := range eff.edgeLabels {
		nc.edgeLabels[l] = epoch
	}
	return nc
}

func (c *labelClock) validAt(fp Footprint, epoch uint64) bool {
	if fp.AllNodes && c.anyNode > epoch {
		return false
	}
	if fp.AllEdges && c.anyEdge > epoch {
		return false
	}
	for _, l := range fp.NodeLabels {
		if c.nodeLabels[l] > epoch {
			return false
		}
	}
	for _, l := range fp.EdgeLabels {
		if c.edgeLabels[l] > epoch {
			return false
		}
	}
	return true
}
