package graph

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pathalgebra/internal/fault"
)

// durableOpts disables auto-compaction so tests control checkpoint
// timing explicitly.
var durableOpts = StoreOptions{CompactThreshold: -1}

func openDurable(t *testing.T, dir string, seed *Graph) *Store {
	t.Helper()
	s, err := OpenDurable(dir, seed, durableOpts)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return s
}

// TestWALRoundTrip: applied batches survive close+reopen, and the
// recovered adjacency is byte-identical (in key space) to the live
// store's view at close.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, seedGraph(t))
	mustApply(t, s,
		Op{Kind: OpAddNode, Key: "d", Label: "Person", Props: Props("name", "D", "age", int64(7), "score", 1.5, "ok", true)},
		Op{Kind: OpAddEdge, Key: "cd", Src: "c", Dst: "d", Label: "Knows"},
	)
	mustApply(t, s, Op{Kind: OpDelEdge, Key: "ac"})
	want := renderAdjacency(s.Graph())
	wantEpoch := s.Epoch()
	s.Close()

	r := openDurable(t, dir, seedGraph(t))
	defer r.Close()
	if got := renderAdjacency(r.Graph()); got != want {
		t.Errorf("recovered adjacency differs:\n got %s\nwant %s", got, want)
	}
	if r.Epoch() != wantEpoch {
		t.Errorf("recovered epoch = %d, want %d", r.Epoch(), wantEpoch)
	}
	// Recovered properties round-tripped through the binary encoding.
	n, ok := r.Graph().NodeByKey("d")
	if !ok {
		t.Fatal("node d missing after recovery")
	}
	for prop, want := range map[string]Value{
		"name": StringValue("D"), "age": IntValue(7), "score": FloatValue(1.5), "ok": BoolValue(true),
	} {
		if got := r.Graph().NodeProp(n.ID, prop); got != want {
			t.Errorf("prop %s = %v, want %v", prop, got, want)
		}
	}
}

// TestWALTornTailTruncated: a crash mid-append leaves a torn final
// record; recovery truncates it and serves the pre-batch state, and the
// log accepts appends again.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, seedGraph(t))
	mustApply(t, s, Op{Kind: OpAddNode, Key: "d", Label: "Person"})
	pre := renderAdjacency(s.Graph())
	s.Close()

	// Simulate the torn write by chopping bytes off the log's tail.
	walPath := filepath.Join(dir, WALFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, seedGraph(t))
	defer r.Close()
	if got := renderAdjacency(r.Graph()); got == pre {
		t.Fatal("torn record replayed in full — truncation did not drop it")
	}
	if _, ok := r.Graph().NodeByKey("d"); ok {
		t.Fatal("torn batch's node visible after recovery")
	}
	// The truncated log is healthy: appends apply and survive.
	mustApply(t, r, Op{Kind: OpAddNode, Key: "e", Label: "Person"})
	after := renderAdjacency(r.Graph())
	r.Close()
	r2 := openDurable(t, dir, seedGraph(t))
	defer r2.Close()
	if got := renderAdjacency(r2.Graph()); got != after {
		t.Errorf("post-truncation append lost:\n got %s\nwant %s", got, after)
	}
}

// TestWALMidLogCorruption: a checksum failure BELOW intact records is
// data loss over acknowledged batches — recovery must refuse with
// ErrWALCorrupt, not truncate silently.
func TestWALMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, seedGraph(t))
	mustApply(t, s, Op{Kind: OpAddNode, Key: "d", Label: "Person"})
	mustApply(t, s, Op{Kind: OpAddNode, Key: "e", Label: "Person"})
	s.Close()

	walPath := filepath.Join(dir, WALFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the FIRST record (just past its header).
	data[walHeaderLen+walRecHdrLen] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenDurable(dir, seedGraph(t), durableOpts)
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("mid-log corruption: got %v, want ErrWALCorrupt", err)
	}
}

// TestWALCheckpointNoDuplicateReplay: a crash between the checkpoint's
// snapshot rename and its WAL reset leaves a stale WAL whose records
// pre-date the snapshot; replay must skip them (reapplying an add would
// be ErrDuplicateKey on the snapshot state).
func TestWALCheckpointNoDuplicateReplay(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, seedGraph(t))
	mustApply(t, s, Op{Kind: OpAddNode, Key: "d", Label: "Person"})

	// Crash the checkpoint after the snapshot landed, before the WAL
	// reset: the snapshot now covers the logged batch.
	restore := fault.Arm(fault.Schedule{Rules: []fault.Rule{{Site: "wal.reset", Nth: 1}}})
	err := s.Checkpoint()
	restore()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Checkpoint with wal.reset fault: got %v, want injected", err)
	}
	want := renderAdjacency(s.Graph())
	wantEpoch := s.Epoch()
	s.Close()

	r := openDurable(t, dir, seedGraph(t))
	defer r.Close()
	if got := renderAdjacency(r.Graph()); got != want {
		t.Errorf("stale-WAL recovery diverged:\n got %s\nwant %s", got, want)
	}
	if r.Epoch() != wantEpoch {
		t.Errorf("recovered epoch = %d, want %d", r.Epoch(), wantEpoch)
	}
}

// TestWALCheckpointRoundTrip: after a clean checkpoint the WAL is empty
// and recovery comes from the snapshot alone; batches after the
// checkpoint replay on top of it.
func TestWALCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, seedGraph(t))
	mustApply(t, s, Op{Kind: OpAddNode, Key: "d", Label: "Person"})
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if n, _, ok := s.WALStats(); !ok || n != 0 {
		t.Fatalf("WAL records after checkpoint = %d (ok=%v), want 0", n, ok)
	}
	if s.Checkpoints() != 1 {
		t.Fatalf("Checkpoints() = %d, want 1", s.Checkpoints())
	}
	mustApply(t, s, Op{Kind: OpAddEdge, Key: "cd", Src: "c", Dst: "d", Label: "Knows"})
	want := renderAdjacency(s.Graph())
	wantEpoch := s.Epoch()
	s.Close()

	// The snapshot carries the full state: the seed is ignored (pass a
	// graph that would collide if replayed from scratch).
	r := openDurable(t, dir, nil)
	defer r.Close()
	if got := renderAdjacency(r.Graph()); got != want {
		t.Errorf("post-checkpoint recovery diverged:\n got %s\nwant %s", got, want)
	}
	if r.Epoch() != wantEpoch {
		t.Errorf("recovered epoch = %d, want %d", r.Epoch(), wantEpoch)
	}
}

// TestWALCheckpointWriteError: a checkpoint whose snapshot write fails
// (the checkpoint.write fault site) must fail without writing a
// snapshot or touching the log, so the batches the log acknowledged
// still recover. The seed graph holds a NaN, which Store.Apply refuses
// but Builder accepts, and the recovered graph must still hold it.
func TestWALCheckpointWriteError(t *testing.T) {
	b := NewBuilder()
	b.AddNode("a", "Person", Props("name", "A"))
	b.AddNode("nan", "Person", Props("score", math.NaN()))
	seed := b.MustBuild()
	dir := t.TempDir()
	s := openDurable(t, dir, seed)
	mustApply(t, s, Op{Kind: OpAddNode, Key: "d", Label: "Person"})
	restore := fault.Arm(fault.Schedule{Rules: []fault.Rule{{Site: "checkpoint.write", Nth: 1}}})
	err := s.Checkpoint()
	restore()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Checkpoint with checkpoint.write fault: got %v, want injected", err)
	}
	snapPath := filepath.Join(dir, SnapshotFile)
	for _, p := range []string{snapPath, snapPath + ".tmp"} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("failed checkpoint left %s behind (stat: %v)", filepath.Base(p), err)
		}
	}
	if n, _, ok := s.WALStats(); !ok || n != 1 {
		t.Fatalf("WAL records after the failed checkpoint = %d (ok=%v), want 1", n, ok)
	}
	want := renderAdjacency(s.Graph())
	s.Close()

	r := openDurable(t, dir, seed)
	defer r.Close()
	if got := renderAdjacency(r.Graph()); got != want {
		t.Errorf("recovery after a failed checkpoint diverged:\n got %s\nwant %s", got, want)
	}
	if _, ok := r.Graph().NodeByKey("d"); !ok {
		t.Fatal("the batch logged before the failed checkpoint was lost")
	}
	n, _ := r.Graph().NodeByKey("nan")
	if v := r.Graph().NodeProp(n.ID, "score"); !math.IsNaN(v.Float()) {
		t.Errorf("recovered score = %v, want NaN", v)
	}
}

// TestWALRejectsUnsnapshottable: Apply refuses a batch holding a string
// that is not valid UTF-8 or a NaN or infinite float before the log sees
// it — WriteJSON would write the string back with U+FFFD in it, and
// cannot encode the float at all — and a checkpointed store reopens as
// the graph it saved.
func TestWALRejectsUnsnapshottable(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, seedGraph(t))
	for _, op := range []Op{
		{Kind: OpAddNode, Key: "bad\xff", Label: "Person"},
		{Kind: OpAddNode, Key: "d", Label: "Per\xffson"},
		{Kind: OpAddNode, Key: "d", Label: "Person", Props: Props("n\xffame", "D")},
		{Kind: OpAddNode, Key: "d", Label: "Person", Props: Props("name", "D\xff")},
		{Kind: OpAddEdge, Key: "ab2", Src: "a\xff", Dst: "b", Label: "Knows"},
		{Kind: OpAddEdge, Key: "ab2", Src: "a", Dst: "b\xff", Label: "Knows"},
		{Kind: OpDelNode, Key: "a\xff"},
		{Kind: OpAddNode, Key: "d", Label: "Person", Props: Props("score", math.NaN())},
		{Kind: OpAddNode, Key: "d", Label: "Person", Props: Props("score", math.Inf(1))},
		{Kind: OpAddEdge, Key: "ab2", Src: "a", Dst: "b", Label: "Knows", Props: Props("w", math.Inf(-1))},
	} {
		// A valid op leads: the refusal must take the whole batch.
		_, err := s.Apply(Batch{Ops: []Op{{Kind: OpAddNode, Key: "ok", Label: "Person"}, op}})
		if !errors.Is(err, ErrInvalidValue) {
			t.Fatalf("Apply(%+v) = %v, want ErrInvalidValue", op, err)
		}
	}
	if s.Epoch() != 0 {
		t.Fatalf("refused batches moved the epoch to %d", s.Epoch())
	}
	if n, _, ok := s.WALStats(); !ok || n != 0 {
		t.Fatalf("WAL records after refused batches = %d (ok=%v), want 0", n, ok)
	}
	mustApply(t, s, Op{Kind: OpAddNode, Key: "good\u00ff", Label: "Person", Props: Props("name", "\u00ff")})
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	want := renderAdjacency(s.Graph())
	s.Close()

	r := openDurable(t, dir, nil)
	defer r.Close()
	if got := renderAdjacency(r.Graph()); got != want {
		t.Errorf("reopened store diverged:\n got %s\nwant %s", got, want)
	}
	for _, key := range []string{"bad\xff", "ok"} {
		if _, ok := r.Graph().NodeByKey(key); ok {
			t.Errorf("node %q of a refused batch was stored", key)
		}
	}
	if _, ok := r.Graph().NodeByKey("good\u00ff"); !ok {
		t.Error("node \"good\u00ff\" lost in the checkpoint")
	}
}

// TestWALReplayCollidingSeed: replaying a log against a seed graph
// whose keys collide with logged batches is a typed validation error —
// never a panic, never silent divergence.
func TestWALReplayCollidingSeed(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, seedGraph(t))
	mustApply(t, s, Op{Kind: OpAddNode, Key: "d", Label: "Person"})
	s.Close()

	b := NewBuilder()
	b.AddNode("a", "Person", nil)
	b.AddNode("d", "Person", nil) // collides with the logged batch
	colliding := b.MustBuild()

	_, err := OpenDurable(dir, colliding, durableOpts)
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("colliding-seed replay: got %v, want ErrDuplicateKey", err)
	}
}

// TestWALAppendFailureRepairs: an injected append/fsync failure fails
// the Apply with a typed error, nothing publishes, and the log repairs
// itself — the NEXT Apply succeeds and survives recovery.
func TestWALAppendFailureRepairs(t *testing.T) {
	for _, site := range []string{"wal.append", "wal.torn", "wal.fsync"} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			s := openDurable(t, dir, seedGraph(t))
			pre := renderAdjacency(s.Graph())
			preEpoch := s.Epoch()

			restore := fault.Arm(fault.Schedule{Rules: []fault.Rule{{Site: site, Nth: 1}}})
			_, err := s.Apply(Batch{Ops: []Op{{Kind: OpAddNode, Key: "d", Label: "Person"}}})
			restore()
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("Apply under %s fault: got %v, want injected", site, err)
			}
			if got := renderAdjacency(s.Graph()); got != pre || s.Epoch() != preEpoch {
				t.Fatal("failed Apply published state")
			}

			mustApply(t, s, Op{Kind: OpAddNode, Key: "e", Label: "Person"})
			want := renderAdjacency(s.Graph())
			s.Close()

			r := openDurable(t, dir, seedGraph(t))
			defer r.Close()
			if got := renderAdjacency(r.Graph()); got != want {
				t.Errorf("recovery after repaired %s failure diverged:\n got %s\nwant %s", site, got, want)
			}
		})
	}
}

// TestWALPoisoned: when the post-failure repair itself fails (simulated
// by yanking the file out from under the log), the WAL poisons itself
// and the store turns down writes with ErrWALFailed instead of
// acknowledging unlogged batches.
func TestWALPoisoned(t *testing.T) {
	dir := t.TempDir()
	s := openDurable(t, dir, seedGraph(t))
	defer s.Close()

	s.mu.Lock()
	s.wal.f.Close() // every Write and Truncate on the handle now fails
	s.mu.Unlock()

	_, err := s.Apply(Batch{Ops: []Op{{Kind: OpAddNode, Key: "d", Label: "Person"}}})
	if !errors.Is(err, ErrWALFailed) {
		t.Fatalf("Apply on dead file: got %v, want ErrWALFailed", err)
	}
	_, err = s.Apply(Batch{Ops: []Op{{Kind: OpAddNode, Key: "e", Label: "Person"}}})
	if !errors.Is(err, ErrWALFailed) {
		t.Fatalf("Apply on poisoned WAL: got %v, want sticky ErrWALFailed", err)
	}
	s.mu.Lock()
	s.wal.f = nil // Close would double-close the dead handle
	s.mu.Unlock()
}

// roundTripBatch covers every op kind and value kind.
func roundTripBatch() Batch {
	return Batch{Ops: []Op{
		{Kind: OpAddNode, Key: "n1", Label: "Person", Props: map[string]Value{
			"s": StringValue("héllo\x00world"), "i": IntValue(-42), "f": FloatValue(-0.25), "b": BoolValue(false), "z": Null(),
		}},
		{Kind: OpAddEdge, Key: "e1", Src: "n1", Dst: "n1", Label: "Knows"},
		{Kind: OpDelEdge, Key: "e1"},
		{Kind: OpDelNode, Key: "n1"},
		{Kind: OpAddNode, Key: "", Label: ""}, // empty strings survive
	}}
}

// TestBatchEncodingRoundTrip: the WAL's binary batch encoding is
// lossless over all op kinds and value kinds.
func TestBatchEncodingRoundTrip(t *testing.T) {
	in := roundTripBatch()
	out, err := decodeBatch(appendBatch(nil, in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip diverged:\n in  %+v\n out %+v", in, out)
	}
	// Encoding is deterministic (sorted props) — same bytes twice.
	a, b := appendBatch(nil, in), appendBatch(nil, in)
	if string(a) != string(b) {
		t.Error("encoding is not deterministic across calls")
	}
}

// TestDecodeBatchRejectsGarbage: truncated and trailing-garbage
// payloads fail with errors, not panics (the CRC normally screens
// these; decode is the second line of defense).
func TestDecodeBatchRejectsGarbage(t *testing.T) {
	good := appendBatch(nil, Batch{Ops: []Op{{Kind: OpAddNode, Key: "k", Label: "L"}}})
	for i := 1; i < len(good); i++ {
		if _, err := decodeBatch(good[:i]); err == nil {
			t.Errorf("truncation at %d decoded without error", i)
		}
	}
	if _, err := decodeBatch(append(append([]byte{}, good...), 0x01)); err == nil {
		t.Error("trailing garbage decoded without error")
	}
}

// FuzzDecodeBatch: the WAL record decoder never panics; what it accepts
// re-encodes to a canonical form that decodes to the same bytes again;
// and applying an accepted batch to a live store is all or nothing —
// the epoch advances by exactly one, or the error leaves the epoch and
// the adjacency as they were.
func FuzzDecodeBatch(f *testing.F) {
	good := appendBatch(nil, roundTripBatch())
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte{}, good...), 0x01))
	f.Fuzz(func(t *testing.T, payload []byte) {
		b, err := decodeBatch(payload)
		if err != nil {
			return
		}
		checkReencodes(t, b)
		checkAllOrNothing(t, b)
	})
}

// checkReencodes asserts that b's WAL encoding decodes to a batch that
// encodes to the same bytes again.
func checkReencodes(t *testing.T, b Batch) {
	t.Helper()
	enc := appendBatch(nil, b)
	again, err := decodeBatch(enc)
	if err != nil {
		t.Fatalf("re-encoded batch fails to decode: %v", err)
	}
	if reenc := appendBatch(nil, again); !bytes.Equal(reenc, enc) {
		t.Fatalf("re-encoding is not stable:\n first  %x\n second %x", enc, reenc)
	}
}

// checkAllOrNothing applies b to a fresh store and asserts that the
// epoch advances by exactly one, or that the error leaves the epoch and
// the adjacency as they were.
func checkAllOrNothing(t *testing.T, b Batch) {
	t.Helper()
	s := NewStore(seedGraph(t), StoreOptions{CompactThreshold: -1})
	defer s.Close()
	before := renderAdjacency(s.Graph())
	epoch, err := s.Apply(b)
	if err != nil {
		if epoch != 0 || s.Epoch() != 0 {
			t.Fatalf("failed Apply moved the epoch to %d (returned %d): %v", s.Epoch(), epoch, err)
		}
		if got := renderAdjacency(s.Graph()); got != before {
			t.Fatalf("failed Apply changed the graph (%v):\n got %s\nwant %s", err, got, before)
		}
		return
	}
	if epoch != 1 || s.Epoch() != 1 {
		t.Fatalf("Apply returned epoch %d, store at %d, want 1", epoch, s.Epoch())
	}
}
