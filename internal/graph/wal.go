package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"pathalgebra/internal/fault"
	"pathalgebra/internal/obs"
)

// Package-level latency histograms of the WAL and the store's folds and
// checkpoints. They are always-on (each timed operation is fsync- or
// rebuild-bound, so two time.Now calls are noise) and standalone so the
// server can fold them into its registry without the graph layer
// knowing about scrape endpoints.
var (
	walAppendSeconds  = &obs.Histogram{}
	walFsyncSeconds   = &obs.Histogram{}
	checkpointSeconds = &obs.Histogram{}
	compactionSeconds = &obs.Histogram{}
)

// WALAppendSeconds is the process-wide histogram of full WAL append
// latency (serialize + write + fsync), for registry registration.
func WALAppendSeconds() *obs.Histogram { return walAppendSeconds }

// WALFsyncSeconds is the process-wide histogram of the fsync portion
// of WAL appends.
func WALFsyncSeconds() *obs.Histogram { return walFsyncSeconds }

// CheckpointSeconds is the process-wide histogram of completed
// checkpoints: snapshot written and WAL reset.
func CheckpointSeconds() *obs.Histogram { return checkpointSeconds }

// CompactionSeconds is the process-wide histogram of completed folds of
// a delta view into a sealed graph, inline reseals included.
func CompactionSeconds() *obs.Histogram { return compactionSeconds }

// Write-ahead logging for Store.Apply. The durability contract:
//
//   - Every batch is serialized, CRC-checksummed and fsync'd to the WAL
//     BEFORE its epoch is published — an acknowledged /ingest survives a
//     crash.
//   - Startup (OpenDurable) loads the newest checkpoint snapshot (or the
//     seed graph when none exists) and replays the WAL over it. A torn
//     final record — a crash mid-append — is truncated away; a corrupt
//     record with intact records after it is ErrWALCorrupt (data loss,
//     refuse to serve).
//   - Checkpoint writes the compacted graph's source columns to a
//     snapshot file (written to a temp file, fsync'd, renamed) and resets
//     the WAL under a new base epoch. A crash between the two renames leaves a stale WAL
//     whose leading records pre-date the snapshot; replay skips them by
//     epoch arithmetic, so checkpointed batches are never applied twice.
//   - A WAL append failure is repaired by truncating the log back to its
//     pre-record length; if the repair itself fails, the WAL is poisoned
//     (sticky ErrWALFailed) and the store refuses further writes rather
//     than risk serving acknowledged-but-unlogged state.
//
// File formats (all integers little-endian):
//
//	wal.log:        8-byte magic "PAWLOG\x01\x00", 8-byte base epoch,
//	                then records: u32 payload length, u32 CRC-32 (IEEE)
//	                of the payload, payload (one encoded Batch).
//	snapshot.graph: 8-byte magic "PASNAP\x02\x00", 8-byte epoch, then
//	                sections, each a u64 payload length, a u32 CRC-32C
//	                (Castagnoli) of the payload, and the payload. No byte
//	                follows the last. In order:
//	                  counts: u64 nodes n, u64 edges m;
//	                  node label names, then n u32 label IDs;
//	                  edge symbols, strictly ascending, then m u32
//	                  symbol IDs; m u32 sources; m u32 targets;
//	                  per kind, nodes then edges: the keys' text, each
//	                  key between its quotes, then its count+1 u32
//	                  offsets (0, ..., len(text));
//	                  per kind: the string values' text; the property
//	                  names, strictly ascending; per name, its count
//	                  kind bytes (ValueKind), then count u64 payloads
//	                  (int, float bits, bool 0/1, string lo<<32|hi into
//	                  the text, 0 when absent).
//	                A list of names is a u32 count, then per name a u32
//	                length and its bytes. Nothing derived is stored: the
//	                reader validates the columns and rebuilds the CSR,
//	                label indexes, statistics and key tables as Build
//	                does (snapshot.go). Magic "PASNAP\x01\x00" marks
//	                the earlier format, WriteJSON bytes after the
//	                header; it still loads through ReadJSON.

var (
	// ErrWALCorrupt reports a checksum or framing failure in the middle
	// of the log — records exist after the damage, so truncating would
	// silently drop acknowledged batches. Recovery refuses to proceed.
	ErrWALCorrupt = errors.New("graph: WAL corrupt")
	// ErrWALFailed reports a poisoned WAL: an append failed and the
	// repair truncation failed too, so the log's tail state is unknown.
	// The store stops accepting writes; restart recovery re-establishes
	// a consistent prefix.
	ErrWALFailed = errors.New("graph: WAL failed, store is read-only until restart")
)

const (
	walMagic      = "PAWLOG\x01\x00"
	walHeaderLen  = 16 // magic + base epoch
	walRecHdrLen  = 8  // payload length + CRC
	walMaxPayload = 1 << 30
)

// WAL is an open write-ahead log. A WAL is owned by exactly one Store
// and is only written under the store's writer mutex; it has no locking
// of its own.
type WAL struct {
	f         *os.File
	path      string
	baseEpoch uint64
	off       int64 // logical end: header + all intact records
	records   int   // appended since open/reset (observability)
	poisoned  bool
	scratch   []byte
}

// Records returns the record count appended or replayed since open.
func (w *WAL) Records() int { return w.records }

// Size returns the logical log size in bytes.
func (w *WAL) Size() int64 { return w.off }

// createWAL creates (or atomically replaces) the log at path with an
// empty record section under the given base epoch: temp file, fsync,
// rename, directory fsync — a crash leaves either the old or the new
// log, never a half-written header.
func createWAL(path string, baseEpoch uint64) (*WAL, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("graph: creating WAL: %w", err)
	}
	hdr := make([]byte, walHeaderLen)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint64(hdr[8:], baseEpoch)
	if _, err = f.Write(hdr); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("graph: creating WAL: %w", err)
	}
	if err := renameAndSyncDir(tmp, path); err != nil {
		f.Close()
		return nil, fmt.Errorf("graph: creating WAL: %w", err)
	}
	return &WAL{f: f, path: path, baseEpoch: baseEpoch, off: walHeaderLen}, nil
}

// openWAL opens an existing log and replays its intact records. A torn
// tail (short header, short payload, or a bad checksum on the final
// record) is truncated away and reported in torn; damage with intact
// records after it is ErrWALCorrupt.
func openWAL(path string) (w *WAL, batches []Batch, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, false, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("graph: reading WAL: %w", err)
	}
	if len(data) < walHeaderLen || string(data[:8]) != walMagic {
		f.Close()
		return nil, nil, false, fmt.Errorf("%w: bad header", ErrWALCorrupt)
	}
	w = &WAL{f: f, path: path, baseEpoch: binary.LittleEndian.Uint64(data[8:16])}

	off := int64(walHeaderLen)
	tornAt := int64(-1)
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < walRecHdrLen {
			tornAt = off // crash mid record header
			break
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > walMaxPayload {
			f.Close()
			return nil, nil, false, fmt.Errorf("%w: record %d: implausible length %d", ErrWALCorrupt, len(batches), n)
		}
		if int64(len(rest)) < walRecHdrLen+int64(n) {
			tornAt = off // crash mid record payload
			break
		}
		payload := rest[walRecHdrLen : walRecHdrLen+int64(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			// A bad checksum on the FINAL record is a torn tail (the
			// record never fully reached the platter); anywhere else it
			// is mid-log corruption over acknowledged data.
			if off+walRecHdrLen+int64(n) == int64(len(data)) {
				tornAt = off
				break
			}
			f.Close()
			return nil, nil, false, fmt.Errorf("%w: record %d: checksum mismatch", ErrWALCorrupt, len(batches))
		}
		b, err := decodeBatch(payload)
		if err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("%w: record %d: %v", ErrWALCorrupt, len(batches), err)
		}
		batches = append(batches, b)
		off += walRecHdrLen + int64(n)
	}
	if tornAt >= 0 {
		if err = f.Truncate(tornAt); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, nil, false, fmt.Errorf("graph: truncating torn WAL tail: %w", err)
		}
		off = tornAt
		torn = true
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, false, fmt.Errorf("graph: seeking WAL: %w", err)
	}
	w.off = off
	w.records = len(batches)
	return w, batches, torn, nil
}

// Append serializes, checksums and fsyncs one batch. On a write or sync
// failure it repairs the log by truncating back to the pre-record
// length; if the repair fails the WAL is poisoned (ErrWALFailed from
// then on). Fault sites: wal.append (fail before any byte is written),
// wal.torn (write a half record, then fail — the crash the torn-tail
// recovery handles), wal.fsync (fail after the write, before the sync).
func (w *WAL) Append(b Batch) error {
	if w.poisoned {
		return ErrWALFailed
	}
	if err := fault.Hit("wal.append"); err != nil {
		return fmt.Errorf("graph: WAL append: %w", err)
	}
	t0 := time.Now()
	defer walAppendSeconds.ObserveSince(t0)
	payload := appendBatch(w.scratch[:0], b)
	w.scratch = payload[:0]
	rec := make([]byte, walRecHdrLen+len(payload))
	binary.LittleEndian.PutUint32(rec[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	copy(rec[walRecHdrLen:], payload)

	if err := fault.Hit("wal.torn"); err != nil {
		// Simulated mid-write crash: half the record reaches the file.
		w.f.Write(rec[:len(rec)/2])
		w.f.Sync()
		return w.repair(fmt.Errorf("graph: WAL append: %w", err))
	}
	if _, err := w.f.Write(rec); err != nil {
		return w.repair(fmt.Errorf("graph: WAL append: %w", err))
	}
	if err := fault.Hit("wal.fsync"); err != nil {
		return w.repair(fmt.Errorf("graph: WAL fsync: %w", err))
	}
	s0 := time.Now()
	if err := w.f.Sync(); err != nil {
		return w.repair(fmt.Errorf("graph: WAL fsync: %w", err))
	}
	walFsyncSeconds.ObserveSince(s0)
	w.off += int64(len(rec))
	w.records++
	return nil
}

// repair truncates the log back to its last known-good length after a
// failed append. If truncation succeeds the WAL stays usable and the
// append's error is returned; if it fails the WAL poisons itself.
func (w *WAL) repair(cause error) error {
	if err := w.f.Truncate(w.off); err == nil {
		if _, err = w.f.Seek(w.off, io.SeekStart); err == nil {
			err = w.f.Sync()
		}
		if err == nil {
			return cause
		}
	}
	w.poisoned = true
	return fmt.Errorf("%w (after: %v)", ErrWALFailed, cause)
}

// Reset atomically replaces the log with an empty one under a new base
// epoch — the tail end of a checkpoint. The old file handle is swapped
// for the new one on success.
func (w *WAL) Reset(baseEpoch uint64) error {
	if w.poisoned {
		return ErrWALFailed
	}
	if err := fault.Hit("wal.reset"); err != nil {
		return fmt.Errorf("graph: WAL reset: %w", err)
	}
	nw, err := createWAL(w.path, baseEpoch)
	if err != nil {
		return err
	}
	w.f.Close()
	*w = *nw
	return nil
}

// Close closes the underlying file. The owning Store calls it.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// renameAndSyncDir renames tmp over dst and fsyncs the parent directory
// so the rename itself is durable.
func renameAndSyncDir(tmp, dst string) error {
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(dst))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// --- batch wire encoding -------------------------------------------------
//
// One batch: uvarint op count, then per op: kind byte, key, src, dst,
// label (uvarint-length-prefixed strings), uvarint prop count, then per
// prop: name string, value kind byte, kind-dependent payload. Strings
// are raw bytes (keys and labels are opaque to the engine).

func appendBatch(dst []byte, b Batch) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b.Ops)))
	for _, op := range b.Ops {
		dst = append(dst, byte(op.Kind))
		dst = appendString(dst, op.Key)
		dst = appendString(dst, op.Src)
		dst = appendString(dst, op.Dst)
		dst = appendString(dst, op.Label)
		dst = binary.AppendUvarint(dst, uint64(len(op.Props)))
		for _, name := range sortedPropNames(op.Props) {
			dst = appendString(dst, name)
			dst = appendValue(dst, op.Props[name])
		}
	}
	return dst
}

// sortedPropNames returns the property names in ascending order so the
// encoding (and therefore the record checksum) is deterministic.
func sortedPropNames(props map[string]Value) []string {
	if len(props) == 0 {
		return nil
	}
	names := make([]string, 0, len(props))
	//lint:ignore detorder collected names are sorted immediately below
	for name := range props {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ { // insertion sort: prop maps are tiny
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case KindString:
		dst = appendString(dst, v.str)
	case KindInt:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i64))
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.f64))
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// walDecoder decodes one record payload; all methods fail soft (set
// err) so the caller checks once.
type walDecoder struct {
	p   []byte
	err error
}

func (d *walDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.err = fmt.Errorf("truncated varint")
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *walDecoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.p) {
		d.err = fmt.Errorf("truncated field (%d bytes wanted, %d left)", n, len(d.p))
		return nil
	}
	b := d.p[:n]
	d.p = d.p[n:]
	return b
}

func (d *walDecoder) string() string { return string(d.bytes(int(d.uvarint()))) }

func (d *walDecoder) value() Value {
	kind := d.bytes(1)
	if d.err != nil {
		return Null()
	}
	switch ValueKind(kind[0]) {
	case KindNull:
		return Null()
	case KindString:
		return StringValue(d.string())
	case KindInt:
		b := d.bytes(8)
		if d.err != nil {
			return Null()
		}
		return IntValue(int64(binary.LittleEndian.Uint64(b)))
	case KindFloat:
		b := d.bytes(8)
		if d.err != nil {
			return Null()
		}
		return FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	case KindBool:
		b := d.bytes(1)
		if d.err != nil {
			return Null()
		}
		return BoolValue(b[0] != 0)
	default:
		d.err = fmt.Errorf("unknown value kind %d", kind[0])
		return Null()
	}
}

func decodeBatch(payload []byte) (Batch, error) {
	d := &walDecoder{p: payload}
	n := d.uvarint()
	if d.err != nil {
		return Batch{}, d.err
	}
	if n > uint64(len(payload)) { // each op needs >= 1 byte
		return Batch{}, fmt.Errorf("implausible op count %d", n)
	}
	b := Batch{Ops: make([]Op, 0, n)}
	for i := uint64(0); i < n; i++ {
		kind := d.bytes(1)
		if d.err != nil {
			return Batch{}, fmt.Errorf("op %d: %w", i, d.err)
		}
		op := Op{
			Kind:  OpKind(kind[0]),
			Key:   d.string(),
			Src:   d.string(),
			Dst:   d.string(),
			Label: d.string(),
		}
		if np := d.uvarint(); np > 0 {
			if np > uint64(len(payload)) {
				return Batch{}, fmt.Errorf("op %d: implausible prop count %d", i, np)
			}
			op.Props = make(map[string]Value, np)
			for j := uint64(0); j < np; j++ {
				name := d.string()
				op.Props[name] = d.value()
			}
		}
		if d.err != nil {
			return Batch{}, fmt.Errorf("op %d: %w", i, d.err)
		}
		b.Ops = append(b.Ops, op)
	}
	if len(d.p) != 0 {
		return Batch{}, fmt.Errorf("%d trailing bytes after final op", len(d.p))
	}
	return b, nil
}
