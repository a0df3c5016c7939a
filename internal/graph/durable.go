package graph

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"pathalgebra/internal/fault"
)

// SnapshotFile and WALFile are the fixed file names inside a durable
// store's data directory.
const (
	SnapshotFile = "snapshot.graph"
	WALFile      = "wal.log"
)

// OpenDurable opens (or initializes) a WAL-durable store in dir.
//
// Recovery order: the newest checkpoint snapshot if one exists (the
// seed graph otherwise), then every WAL record past the snapshot's
// epoch, replayed through the ordinary Apply validation — a record that
// no longer validates (e.g. the seed graph changed between runs and its
// keys collide with logged batches) is a typed error wrapping the usual
// sentinels, never a panic. A torn final record is truncated away;
// corruption below intact records is ErrWALCorrupt.
//
// The returned store logs every subsequent Apply to the WAL before
// publishing its epoch, and checkpoints (snapshot + WAL reset) after
// each background compaction; Close closes the WAL.
func OpenDurable(dir string, seed *Graph, opts StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("graph: OpenDurable: %w", err)
	}
	snapPath := filepath.Join(dir, SnapshotFile)
	walPath := filepath.Join(dir, WALFile)
	// A crash mid-checkpoint can leave temp files; they were never
	// renamed into place, so they are dead weight.
	os.Remove(snapPath + ".tmp")
	os.Remove(walPath + ".tmp")

	base := seed
	var snapEpoch uint64
	switch g, epoch, err := readSnapshot(snapPath); {
	case err == nil:
		base, snapEpoch = g, epoch
	case errors.Is(err, os.ErrNotExist):
	default:
		return nil, err
	}
	if base == nil {
		return nil, fmt.Errorf("graph: OpenDurable: no snapshot in %s and no seed graph", dir)
	}

	var w *WAL
	var batches []Batch
	if _, err := os.Stat(walPath); errors.Is(err, os.ErrNotExist) {
		w, err = createWAL(walPath, snapEpoch)
		if err != nil {
			return nil, err
		}
	} else {
		w, batches, _, err = openWAL(walPath)
		if err != nil {
			return nil, err
		}
		if w.baseEpoch > snapEpoch {
			w.Close()
			return nil, fmt.Errorf("%w: WAL base epoch %d is ahead of snapshot epoch %d", ErrWALCorrupt, w.baseEpoch, snapEpoch)
		}
	}

	s := newStoreAt(base, snapEpoch, opts)
	for i, b := range batches {
		// Record i applies on top of epoch baseEpoch+i. Records at or
		// below the snapshot epoch were already folded into the snapshot
		// by a checkpoint whose WAL reset did not complete — skipping
		// them is what makes replay idempotent across that crash window.
		if w.baseEpoch+uint64(i)+1 <= snapEpoch {
			continue
		}
		if _, err := s.Apply(b); err != nil {
			s.Close()
			w.Close()
			return nil, fmt.Errorf("graph: WAL replay record %d: %w", i, err)
		}
	}
	// Attach the WAL only after replay: replayed batches must not be
	// re-appended to the log they came from.
	s.mu.Lock()
	s.wal = w
	s.snapshotPath = snapPath
	s.mu.Unlock()
	return s, nil
}

// writeSnapshot atomically writes the snapshot of the sealed graph g:
// temp file, fsync, rename, directory fsync. Fault sites:
// checkpoint.write (fail before the temp file is complete),
// checkpoint.rename (fail between the durable temp file and its rename
// into place).
func writeSnapshot(path string, epoch uint64, g *Graph) error {
	if err := fault.Hit("checkpoint.write"); err != nil {
		return fmt.Errorf("graph: checkpoint: %w", err)
	}
	data, err := encodeSnapshot(epoch, g)
	if err != nil {
		return fmt.Errorf("graph: checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("graph: checkpoint: %w", err)
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("graph: checkpoint: %w", err)
	}
	if err := fault.Hit("checkpoint.rename"); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("graph: checkpoint: %w", err)
	}
	if err := renameAndSyncDir(tmp, path); err != nil {
		return fmt.Errorf("graph: checkpoint: %w", err)
	}
	return nil
}

// readSnapshot loads a snapshot file written by writeSnapshot, or by a
// version that wrote it as JSON. A damaged file is an error wrapping
// ErrSnapshotCorrupt; a missing one wraps os.ErrNotExist.
func readSnapshot(path string) (*Graph, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	g, epoch, err := decodeSnapshot(data)
	if err != nil {
		return nil, 0, fmt.Errorf("graph: snapshot %s: %w", path, err)
	}
	return g, epoch, nil
}
