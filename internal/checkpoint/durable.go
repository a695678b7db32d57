package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"github.com/softwarefaults/redundancy/internal/obs"
)

// Durable checkpointing extends the in-memory Runner to a disk-backed
// store that survives a process crash: acknowledged operations go to the
// WAL before the acknowledgment returns, snapshots compact the log via
// write-temp-then-atomic-rename, and OpenDurableRunner recovers the
// exact acknowledged state — latest valid snapshot plus a replay of the
// log suffix, with any torn tail truncated deterministically.
//
// Snapshot files are named snap-<seq>.ckpt, where seq is the last
// operation sequence number the snapshot covers, and framed as
//
//	[8-byte little-endian covered seq]
//	[4-byte CRC32 (IEEE) over the gob payload]
//	[gob-encoded state]
//
// A snapshot that fails its CRC or decodes short is skipped in favor of
// the next older one (the WAL still holds every operation a skipped
// snapshot covered, because compaction only drops segments after the
// covering snapshot is durably renamed into place).

const (
	snapHeader = 8 + 4
	// defaultSnapshotInterval snapshots every 64 applied operations.
	defaultSnapshotInterval = 64
	// defaultKeepSnapshots retains the two most recent snapshot files, so
	// one corrupt latest snapshot still leaves a valid recovery point.
	defaultKeepSnapshots = 2
)

// DurableOptions configures a DurableRunner.
type DurableOptions struct {
	// Name labels the runner in observation events (CheckpointTaken,
	// WALReplayed); empty means "durable".
	Name string
	// SnapshotInterval is the number of applied operations between
	// snapshots; values < 1 use the default of 64.
	SnapshotInterval int
	// KeepSnapshots retains this many recent snapshot files; values < 1
	// keep 2.
	KeepSnapshots int
	// WAL configures the operation log.
	WAL WALOptions
	// Observer receives CheckpointTaken and WALReplayed events; nil
	// observes nothing.
	Observer obs.Observer
}

func (o DurableOptions) name() string {
	if o.Name == "" {
		return "durable"
	}
	return o.Name
}

func (o DurableOptions) snapshotInterval() int {
	if o.SnapshotInterval < 1 {
		return defaultSnapshotInterval
	}
	return o.SnapshotInterval
}

func (o DurableOptions) keepSnapshots() int {
	if o.KeepSnapshots < 1 {
		return defaultKeepSnapshots
	}
	return o.KeepSnapshots
}

// DurableRunner drives a deterministic state machine with a disk-backed
// checkpoint store: every successfully applied operation is appended to
// the WAL (the acknowledgment point), and snapshots taken at the
// configured interval compact the log. A crashed runner is recovered by
// OpenDurableRunner on the same directory; the restored state reflects
// exactly the acknowledged operations.
//
// Like Runner, Apply must be a pure transition function and the op type
// must round-trip through gob. The runner is not safe for concurrent
// use; the owning component serializes access.
type DurableRunner[S, M any] struct {
	// Apply is the state transition function.
	Apply func(state S, op M) (S, error)

	dir   string
	opts  DurableOptions
	wal   *WAL
	state S

	lastSnapSeq uint64 // last seq covered by a durable snapshot
	sinceSnap   int    // applied ops since the last snapshot

	replayed  int   // ops re-applied during Open
	truncated int64 // torn-tail bytes discarded during Open
}

// OpenDurableRunner opens (creating if needed) the store in dir and
// recovers the runner's state: the latest valid snapshot is restored and
// the WAL suffix re-applied. A fresh directory yields initial as the
// state. The returned runner owns the directory until Close.
func OpenDurableRunner[S, M any](dir string, initial S, apply func(S, M) (S, error), opts DurableOptions) (*DurableRunner[S, M], error) {
	if apply == nil {
		return nil, errors.New("checkpoint: nil apply function")
	}
	wal, err := OpenWAL(filepath.Join(dir, "wal"), opts.WAL)
	if err != nil {
		return nil, err
	}
	r := &DurableRunner[S, M]{
		Apply: apply,
		dir:   dir,
		opts:  opts,
		wal:   wal,
		state: initial,
	}
	if err := r.recover(); err != nil {
		_ = wal.Close()
		return nil, err
	}
	return r, nil
}

// recover restores the latest valid snapshot and replays the log suffix.
func (r *DurableRunner[S, M]) recover() error {
	state, seq, err := restoreLatestSnapshot[S](r.dir)
	switch {
	case err == nil:
		r.state = state
		r.lastSnapSeq = seq
	case errors.Is(err, ErrNoCheckpoint):
		// Fresh store: keep the initial state.
	default:
		return err
	}
	n, err := r.wal.Replay(r.lastSnapSeq, func(_ uint64, payload []byte) error {
		var op M
		if derr := gob.NewDecoder(bytes.NewReader(payload)).Decode(&op); derr != nil {
			return fmt.Errorf("%w: wal record: %w", ErrCorruptCheckpoint, derr)
		}
		next, aerr := r.Apply(r.state, op)
		if aerr != nil {
			return fmt.Errorf("checkpoint: replaying acknowledged op: %w", aerr)
		}
		r.state = next
		return nil
	})
	if err != nil {
		return err
	}
	r.replayed = n
	r.truncated = r.wal.TruncatedBytes()
	r.sinceSnap = n
	if o := r.opts.Observer; o != nil {
		obs.Emit(o, obs.WALReplayed(r.opts.name(), n, r.truncated))
	}
	return nil
}

// State returns the current committed state.
func (r *DurableRunner[S, M]) State() S { return r.state }

// LastSeq returns the sequence number of the last acknowledged operation
// (0 when none).
func (r *DurableRunner[S, M]) LastSeq() uint64 { return r.wal.LastSeq() }

// Replayed reports how many operations Open re-applied on top of the
// restored snapshot.
func (r *DurableRunner[S, M]) Replayed() int { return r.replayed }

// TruncatedBytes reports how many torn-tail bytes Open discarded.
func (r *DurableRunner[S, M]) TruncatedBytes() int64 { return r.truncated }

// Step applies one operation. On success the operation is durably logged
// — when Step returns, the op is acknowledged and will survive a crash —
// and, at the configured interval, a snapshot is taken and the log
// compacted. On failure the committed state and the log are unchanged.
func (r *DurableRunner[S, M]) Step(op M) (uint64, error) {
	next, err := r.Apply(r.state, op)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&op); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrEncodeCheckpoint, err)
	}
	seq, err := r.wal.Append(buf.Bytes())
	if err != nil {
		return 0, err
	}
	r.state = next
	r.sinceSnap++
	if r.sinceSnap >= r.opts.snapshotInterval() {
		if err := r.Snapshot(); err != nil {
			return seq, fmt.Errorf("checkpointing after op %d: %w", seq, err)
		}
	}
	return seq, nil
}

// Snapshot durably commits the current state, covering every
// acknowledged operation, and compacts the log. It is called
// automatically by Step at the configured interval; explicit calls are
// useful before an orderly shutdown.
func (r *DurableRunner[S, M]) Snapshot() error {
	seq := r.wal.LastSeq()
	size, err := writeSnapshot(r.dir, seq, &r.state)
	if err != nil {
		return err
	}
	r.lastSnapSeq = seq
	r.sinceSnap = 0
	pruneSnapshots(r.dir, r.opts.keepSnapshots())
	if err := r.wal.TruncateThrough(seq); err != nil {
		return err
	}
	if o := r.opts.Observer; o != nil {
		obs.Emit(o, obs.CheckpointTaken(r.opts.name(), seq, size))
	}
	return nil
}

// Close syncs and closes the underlying log. The directory can be
// reopened with OpenDurableRunner.
func (r *DurableRunner[S, M]) Close() error { return r.wal.Close() }

// snapName formats a snapshot file name.
func snapName(seq uint64) string { return fmt.Sprintf("snap-%020d.ckpt", seq) }

// snapSeqOf parses a snapshot file name; ok is false for foreign files.
func snapSeqOf(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "snap-%020d.ckpt", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// writeSnapshot gob-encodes state and commits it via
// write-temp-then-atomic-rename, returning the encoded size.
func writeSnapshot[S any](dir string, seq uint64, state *S) (int, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(state); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrEncodeCheckpoint, err)
	}
	buf := make([]byte, snapHeader+payload.Len())
	binary.LittleEndian.PutUint64(buf[0:8], seq)
	binary.LittleEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(payload.Bytes()))
	copy(buf[snapHeader:], payload.Bytes())

	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmpName)
		return 0, fmt.Errorf("checkpoint: snapshot write: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, snapName(seq))); err != nil {
		_ = os.Remove(tmpName)
		return 0, fmt.Errorf("checkpoint: snapshot rename: %w", err)
	}
	SyncDir(dir)
	return payload.Len(), nil
}

// snapshotSeqs lists snapshot sequence numbers in dir, ascending.
func snapshotSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: snapshot dir: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		if seq, ok := snapSeqOf(e.Name()); ok {
			out = append(out, seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// restoreLatestSnapshot decodes the newest valid snapshot in dir. A
// snapshot with a bad CRC, a short read, or an undecodable payload is
// skipped in favor of the next older one; with no valid snapshot at all
// it returns ErrNoCheckpoint.
func restoreLatestSnapshot[S any](dir string) (S, uint64, error) {
	var zero S
	seqs, err := snapshotSeqs(dir)
	if err != nil {
		return zero, 0, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		state, err := readSnapshot[S](filepath.Join(dir, snapName(seqs[i])), seqs[i])
		if err != nil {
			if errors.Is(err, ErrCorruptCheckpoint) {
				continue
			}
			return zero, 0, err
		}
		return state, seqs[i], nil
	}
	return zero, 0, ErrNoCheckpoint
}

// readSnapshot decodes one snapshot file, validating the frame.
func readSnapshot[S any](path string, wantSeq uint64) (S, error) {
	var state S
	data, err := os.ReadFile(path)
	if err != nil {
		return state, fmt.Errorf("checkpoint: snapshot read: %w", err)
	}
	if len(data) < snapHeader {
		return state, fmt.Errorf("%w: snapshot of %d bytes is shorter than its header", ErrCorruptCheckpoint, len(data))
	}
	seq := binary.LittleEndian.Uint64(data[0:8])
	crc := binary.LittleEndian.Uint32(data[8:12])
	payload := data[snapHeader:]
	if seq != wantSeq || crc32.ChecksumIEEE(payload) != crc {
		return state, fmt.Errorf("%w: snapshot frame check failed", ErrCorruptCheckpoint)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&state); err != nil {
		return state, fmt.Errorf("%w: %w", ErrCorruptCheckpoint, err)
	}
	return state, nil
}

// pruneSnapshots removes all but the newest keep snapshot files.
// Failures are ignored: stale snapshots are garbage, not corruption.
func pruneSnapshots(dir string, keep int) {
	seqs, err := snapshotSeqs(dir)
	if err != nil || len(seqs) <= keep {
		return
	}
	for _, seq := range seqs[:len(seqs)-keep] {
		_ = os.Remove(filepath.Join(dir, snapName(seq)))
	}
}
