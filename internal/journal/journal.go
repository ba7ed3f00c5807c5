// Package journal is the durable write-ahead log behind lease state:
// an append-only file of lease transitions (grant, release,
// heartbeat-extend, revoke, expire, token-band reserve) that a
// restarted lockd replays to resume serving its grants instead of
// rejoining blank. The log is the restart half of the fencing-token
// story: tokens only order operations if they are never reissued, and
// without persistence a restart would wind the counter back to zero.
//
// On-disk format. Every record is one self-checking frame:
//
//	| len u32 LE | crc32c u32 LE | payload |
//	payload = lsn uvarint | op u8 | token uvarint | deadline uvarint | name bytes
//
// len counts the payload only; the CRC (Castagnoli, the polynomial
// with hardware support on both amd64 and arm64) covers the payload.
// The LSN is a log-wide sequence number, which is what makes snapshot
// + log coexistence safe: a snapshot records the LSN of the last
// transition it reflects, and replay skips every log record at or
// below it — so a crash between "snapshot renamed" and "log truncated"
// replays the stale records as no-ops instead of resurrecting released
// leases.
//
// Recovery is torn-tail-tolerant by construction: the log is replayed
// record by record, and the first frame that fails its length or CRC
// check ends the replay — the file is truncated there, never repaired
// in place and never a panic. A torn write can only damage the tail
// (the file is append-only), so everything before the damage is intact
// and everything after it was never acknowledged under the `always`
// fsync policy.
//
// Durability is a policy, not a constant:
//
//   - always: Commit blocks until the record is on stable storage,
//     with group commit — concurrent committers share one fsync, so
//     the cost per grant under load is a fraction of an fsync.
//   - interval: a background goroutine fsyncs every SyncEvery; Commit
//     returns immediately. A crash loses at most one interval.
//   - off: records are flushed to the OS but never explicitly synced;
//     a clean process exit (or Close) loses nothing, a machine crash
//     may lose anything since the OS last wrote back.
//
// Token bands make the fencing counter restart-monotonic without an
// fsync per token: ReserveTokens persists a high-water mark BandSize
// tokens ahead of the counter (synced immediately under always and
// interval), and recovery restarts the counter at the last reserved
// mark — tokens the crashed process issued are necessarily at or below
// it, so no token is ever issued twice across a restart, at the cost
// of one sync and a skipped band per 2^20 grants. The reserved mark
// composes with the cluster's epoch floors (epoch<<32): both are
// max-merges on the same counter, and a floor raise past the band
// simply triggers the next reservation.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Op is one lease-transition record type.
type Op uint8

const (
	// OpGrant records a lease attach: name now held under token until
	// deadline.
	OpGrant Op = 1 + iota
	// OpRelease records a voluntary release of (name, token).
	OpRelease
	// OpExtend records a heartbeat renewal: (name, token)'s deadline
	// moved.
	OpExtend
	// OpRevoke records a forcible administrative/handoff revocation.
	OpRevoke
	// OpExpire records a TTL expiry executed by the lease manager.
	OpExpire
	// OpReserve records a token-band reservation: Token is the new
	// high-water mark below which no token may be issued after a
	// restart... above which, rather: recovery restarts the counter AT
	// this mark, so every post-restart token exceeds it.
	OpReserve
	// opSnapMeta is the snapshot file's header record: Token carries
	// the reserved token high-water mark, Deadline carries (as an
	// integer) the LSN of the last transition the snapshot reflects.
	// It never appears in the log itself.
	opSnapMeta
)

// Record is one lease transition. Deadline (unix nanoseconds) is
// meaningful for OpGrant and OpExtend; Token is the reservation mark
// for OpReserve and the lease's fencing token otherwise.
type Record struct {
	Op       Op
	Token    uint64
	Deadline int64
	Name     string
}

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs before Commit returns (group-committed).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer; Commit does not block.
	SyncInterval
	// SyncOff never fsyncs explicitly; the OS writes back on its own
	// schedule. Clean shutdown (Close) still syncs.
	SyncOff
)

// ParseSync maps the CLI spelling of a policy ("always", "interval",
// "off"; "" defaults to always) to its SyncPolicy.
func ParseSync(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval, or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options parameterizes Open. The zero value is usable: SyncAlways,
// and defaults for everything else.
type Options struct {
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval period (default 5ms). Under
	// SyncAlways and SyncOff it paces the background flush that pushes
	// records with no Commit caller (releases, expiries) to the OS.
	SyncEvery time.Duration
	// CompactBytes is how large the log may grow before a snapshot is
	// written and the log truncated (default 1 MiB).
	CompactBytes int64
	// BandSize is how many tokens one ReserveTokens call reserves
	// (default 1<<20).
	BandSize uint64
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		if o.Sync == SyncInterval {
			o.SyncEvery = 5 * time.Millisecond
		} else {
			o.SyncEvery = 100 * time.Millisecond
		}
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 1 << 20
	}
	if o.BandSize == 0 {
		o.BandSize = 1 << 20
	}
	return o
}

// LeaseState is one active lease as recovery reconstructed it.
type LeaseState struct {
	Name     string
	Token    uint64
	Deadline int64 // unix nanoseconds
}

// State is what Open recovered: the leases that were active when the
// previous process stopped, the reserved token high-water mark the
// fencing counter must restart at, and the recovery accounting.
type State struct {
	Leases    []LeaseState
	TokenHigh uint64
	// Replayed counts log records applied (snapshot-covered records
	// skipped by LSN are not counted).
	Replayed int
	// Truncated is how many torn-tail bytes recovery cut off the log
	// (0 on a clean shutdown).
	Truncated int
}

const (
	frameHeader    = 8 // len u32 + crc u32
	maxRecordBytes = 1 << 20
	// maxBufferedBytes bounds the write buffer: Append writes it out once
	// it passes this size rather than holding up to a SyncEvery of records
	// for the background flush, so the buffer's size does not grow with
	// the append rate.
	maxBufferedBytes = 64 << 10

	walName      = "wal.log"
	snapName     = "snapshot"
	snapTempName = "snapshot.tmp"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt ends a replay: the next frame fails its structural or CRC
// check. Recovery converts it into truncation, never an error.
var errCorrupt = errors.New("journal: corrupt record")

// errShort ends a replay at a frame that ran out of bytes — the torn
// tail itself.
var errShort = errors.New("journal: truncated record")

// ErrClosed fails appends and commits after Close or Abandon.
var ErrClosed = errors.New("journal: closed")

// appendFrame encodes one framed record.
func appendFrame(dst []byte, lsn uint64, rec Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, lsn)
	dst = append(dst, byte(rec.Op))
	dst = binary.AppendUvarint(dst, rec.Token)
	dst = binary.AppendUvarint(dst, uint64(rec.Deadline))
	dst = append(dst, rec.Name...)
	payload := dst[start+frameHeader:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// decodeRecord decodes the first frame in buf, returning the remaining
// bytes. errShort means buf ends inside the frame (a torn tail);
// errCorrupt means the frame is structurally bad or fails its CRC.
// Either way the caller must stop: nothing after a bad frame can be
// trusted, because frame boundaries are only known by walking.
func decodeRecord(buf []byte) (lsn uint64, rec Record, rest []byte, err error) {
	if len(buf) < frameHeader {
		return 0, Record{}, buf, errShort
	}
	n := binary.LittleEndian.Uint32(buf)
	if n == 0 || n > maxRecordBytes {
		return 0, Record{}, buf, errCorrupt
	}
	if len(buf) < frameHeader+int(n) {
		return 0, Record{}, buf, errShort
	}
	payload := buf[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:]) {
		return 0, Record{}, buf, errCorrupt
	}
	lsn, k := binary.Uvarint(payload)
	if k <= 0 || k >= len(payload) {
		return 0, Record{}, buf, errCorrupt
	}
	rec.Op = Op(payload[k])
	k++
	if rec.Op < OpGrant || rec.Op > opSnapMeta {
		return 0, Record{}, buf, errCorrupt
	}
	tok, tn := binary.Uvarint(payload[k:])
	if tn <= 0 {
		return 0, Record{}, buf, errCorrupt
	}
	k += tn
	dl, dn := binary.Uvarint(payload[k:])
	if dn <= 0 {
		return 0, Record{}, buf, errCorrupt
	}
	k += dn
	rec.Token = tok
	rec.Deadline = int64(dl)
	rec.Name = string(payload[k:])
	return lsn, rec, buf[frameHeader+int(n):], nil
}

// activeLease is the mirror's view of one held lease.
type activeLease struct {
	token    uint64
	deadline int64
}

// Log is an open journal: the append path, the durability machinery,
// and an in-memory mirror of the replayed state that snapshots are
// written from. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	// mu guards the append path: the file writer, the LSN counter, the
	// state mirror, and compaction (which rewrites both files).
	mu        sync.Mutex
	f         *os.File
	wbuf      []byte // unflushed frames (the journal's own write buffer)
	frame     []byte // per-append scratch, reused
	nextLSN   uint64
	walBytes  int64
	active    map[string]activeLease
	tokenHigh uint64
	closed    bool
	// appendErr is sticky: the first write or compaction failure. It is
	// set under mu but read without it, so a Commit that does not sync
	// takes no lock.
	appendErr atomic.Pointer[error]

	// Group commit for SyncAlways: one committer becomes the leader,
	// flushes and fsyncs everything appended so far, and wakes the
	// followers whose LSNs that covered.
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedLSN uint64
	syncing   bool
	syncErr   error

	commitSyncs atomic.Uint64 // fsyncs Commit's leaders have issued

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open opens (creating if needed) the journal in dir and recovers its
// state: the snapshot is loaded, the log replayed on top of it —
// truncating at the first corrupt or torn record — and the log left
// ready for appends.
func Open(dir string, opts Options) (*Log, State, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, State{}, fmt.Errorf("journal: %w", err)
	}
	w := &Log{
		dir:    dir,
		opts:   opts,
		active: make(map[string]activeLease),
		stop:   make(chan struct{}),
	}
	w.syncCond = sync.NewCond(&w.syncMu)

	snapLSN, err := w.loadSnapshot()
	if err != nil {
		return nil, State{}, err
	}
	st, lastLSN, err := w.replayWAL(snapLSN)
	if err != nil {
		return nil, State{}, err
	}
	if lastLSN < snapLSN {
		lastLSN = snapLSN
	}
	w.nextLSN = lastLSN + 1
	w.syncedLSN = lastLSN
	st.TokenHigh = w.tokenHigh
	for name, a := range w.active {
		st.Leases = append(st.Leases, LeaseState{Name: name, Token: a.token, Deadline: a.deadline})
	}

	w.wg.Add(1)
	go w.run()
	return w, st, nil
}

// loadSnapshot reads the snapshot file into the mirror, returning the
// LSN it covers (0 when there is no snapshot). The snapshot is written
// atomically (tmp, fsync, rename), so unlike the log it is not
// truncation-repaired: damage here is disk corruption and surfaces as
// an error.
func (w *Log) loadSnapshot() (uint64, error) {
	buf, err := os.ReadFile(filepath.Join(w.dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("journal: %w", err)
	}
	var snapLSN uint64
	first := true
	for len(buf) > 0 {
		lsn, rec, rest, err := decodeRecord(buf)
		if err != nil {
			return 0, fmt.Errorf("journal: snapshot %s is corrupt: %w", snapName, err)
		}
		buf = rest
		if first {
			if rec.Op != opSnapMeta {
				return 0, fmt.Errorf("journal: snapshot %s does not start with its meta record", snapName)
			}
			w.tokenHigh = rec.Token
			snapLSN = uint64(rec.Deadline)
			first = false
			continue
		}
		if rec.Op != OpGrant {
			return 0, fmt.Errorf("journal: snapshot %s holds op %d, want only grants", snapName, rec.Op)
		}
		w.active[rec.Name] = activeLease{token: rec.Token, deadline: rec.Deadline}
		_ = lsn
	}
	if first && len(buf) == 0 {
		// A zero-length snapshot file: treat as absent (a crash exactly
		// at creation before any write was renamed in — not produced by
		// this code, but cheap to tolerate).
		return 0, nil
	}
	return snapLSN, nil
}

// replayWAL reads the log, applies every record newer than snapLSN to
// the mirror, truncates the file at the first corrupt or torn frame,
// and opens it for appending.
func (w *Log) replayWAL(snapLSN uint64) (State, uint64, error) {
	path := filepath.Join(w.dir, walName)
	buf, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return State{}, 0, fmt.Errorf("journal: %w", err)
	}
	var st State
	good := 0
	lastLSN := uint64(0)
	rest := buf
	for len(rest) > 0 {
		lsn, rec, r2, err := decodeRecord(rest)
		if err != nil {
			// The torn tail: truncate here. Everything before this frame
			// passed its CRC; nothing after it has a trustworthy boundary.
			break
		}
		good = len(buf) - len(r2)
		rest = r2
		if lsn > lastLSN {
			lastLSN = lsn
		}
		if lsn <= snapLSN {
			continue // already reflected in the snapshot
		}
		w.apply(rec)
		st.Replayed++
	}
	st.Truncated = len(buf) - good

	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return State{}, 0, fmt.Errorf("journal: %w", err)
	}
	if st.Truncated > 0 {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return State{}, 0, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return State{}, 0, fmt.Errorf("journal: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return State{}, 0, fmt.Errorf("journal: %w", err)
	}
	w.f = f
	w.walBytes = int64(good)
	return st, lastLSN, nil
}

// apply folds one record into the state mirror. Deactivations check
// the token so a stale record (a replayed duplicate, an op that lost
// its arbitration) cannot kill a newer lease on the same key.
func (w *Log) apply(rec Record) {
	switch rec.Op {
	case OpGrant:
		w.active[rec.Name] = activeLease{token: rec.Token, deadline: rec.Deadline}
	case OpExtend:
		if a, ok := w.active[rec.Name]; ok && a.token == rec.Token {
			a.deadline = rec.Deadline
			w.active[rec.Name] = a
		}
	case OpRelease, OpRevoke, OpExpire:
		if a, ok := w.active[rec.Name]; ok && a.token == rec.Token {
			delete(w.active, rec.Name)
		}
	case OpReserve:
		if rec.Token > w.tokenHigh {
			w.tokenHigh = rec.Token
		}
	}
}

// Append adds one record to the log and returns its LSN for Commit.
// It never waits for the disk: the frame goes to the journal's write
// buffer, ordered by the append lock, and the buffer goes to the OS
// once it passes maxBufferedBytes; durability is Commit's job.
// Append after Close is a harmless no-op (LSN 0): late records from
// lease teardown lose nothing that matters — the process is exiting.
func (w *Log) Append(rec Record) uint64 {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0
	}
	lsn := w.nextLSN
	w.nextLSN++
	w.frame = appendFrame(w.frame[:0], lsn, rec)
	if crashArmed(crashAppendTorn) {
		// Crash-point: write half a frame straight to disk, then die —
		// the torn tail recovery must truncate.
		w.f.Write(w.wbuf)
		w.f.Write(w.frame[:len(w.frame)/2])
		w.f.Sync()
		os.Exit(crashExitCode)
	}
	w.wbuf = append(w.wbuf, w.frame...)
	w.walBytes += int64(len(w.frame))
	w.apply(rec)
	if w.walBytes >= w.opts.CompactBytes && w.appendErr.Load() == nil {
		w.compactLocked()
	}
	if len(w.wbuf) >= maxBufferedBytes {
		w.flushLocked()
	}
	w.mu.Unlock()
	return lsn
}

// flushLocked writes the buffered frames to the file. Caller holds mu.
func (w *Log) flushLocked() error {
	if err := w.stickyErr(); err != nil {
		return err
	}
	if len(w.wbuf) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.wbuf); err != nil {
		w.fail(err)
		return err
	}
	w.wbuf = w.wbuf[:0]
	return nil
}

// fail records err as the sticky append error. Caller holds mu.
func (w *Log) fail(err error) { w.appendErr.Store(&err) }

// stickyErr returns the sticky append error, if any.
func (w *Log) stickyErr() error {
	if p := w.appendErr.Load(); p != nil {
		return *p
	}
	return nil
}

// flush pushes buffered frames to the OS and reports the highest LSN
// now (at least) file-resident.
func (w *Log) flush() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	target := w.nextLSN - 1
	if w.closed {
		return target, ErrClosed
	}
	return target, w.flushLocked()
}

// Commit makes the record behind lsn durable per the sync policy.
// Under SyncAlways it blocks until an fsync covers lsn, sharing the
// fsync with every concurrent committer (group commit); under the
// other policies it only surfaces a sticky write error, if any.
func (w *Log) Commit(lsn uint64) error {
	if w.opts.Sync != SyncAlways {
		return w.stickyErr()
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	for w.syncedLSN < lsn {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.syncing {
			w.syncCond.Wait()
			continue
		}
		w.syncing = true
		w.syncMu.Unlock()
		target, err := w.flush()
		if err == nil {
			crash(crashBeforeSync)
			w.commitSyncs.Add(1)
			err = w.f.Sync()
			crash(crashAfterSync)
		}
		w.syncMu.Lock()
		w.syncing = false
		if err != nil {
			w.syncErr = err
		} else if target > w.syncedLSN {
			w.syncedLSN = target
		}
		w.syncCond.Broadcast()
	}
	return w.syncErr
}

// CommitSyncs reports how many fsyncs Commit has issued. Under
// SyncAlways every acknowledged commit waited for one of them; a count
// below the number of commits is group commit at work, which tests of
// the layers above use to check that they still commit concurrently.
func (w *Log) CommitSyncs() uint64 { return w.commitSyncs.Load() }

// forceSync flushes and fsyncs right now, regardless of policy.
func (w *Log) forceSync() error {
	target, err := w.flush()
	if err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncMu.Lock()
	if target > w.syncedLSN {
		w.syncedLSN = target
	}
	w.syncMu.Unlock()
	return nil
}

// ReserveTokens reserves a fresh token band: it appends a reservation
// record for a high-water mark BandSize above max(current mark, min)
// and makes it durable before returning, so tokens up to the returned
// mark may be issued with no further journal traffic — none of them
// can ever be reissued after a restart. Under SyncOff the record is
// flushed but not synced: that policy's contract already gives up
// machine-crash guarantees.
func (w *Log) ReserveTokens(min uint64) (uint64, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	high := w.tokenHigh
	if min > high {
		high = min
	}
	high += w.opts.BandSize
	w.mu.Unlock()
	// The append records the mark via the usual path (mirror update
	// included); the band is usable only once durable.
	w.Append(Record{Op: OpReserve, Token: high})
	var err error
	if w.opts.Sync == SyncOff {
		_, err = w.flush()
	} else {
		err = w.forceSync()
	}
	if err != nil {
		return 0, err
	}
	return high, nil
}

// compactLocked writes a snapshot of the mirror and truncates the log.
// Caller holds mu. Crash ordering: the snapshot is complete and synced
// before the rename makes it current, and replay skips log records the
// snapshot covers (by LSN), so a crash anywhere in this sequence
// recovers exactly the pre- or post-compaction state, never a mix.
func (w *Log) compactLocked() {
	lastLSN := w.nextLSN - 1
	buf := appendFrame(nil, lastLSN, Record{Op: opSnapMeta, Token: w.tokenHigh, Deadline: int64(lastLSN)})
	for name, a := range w.active {
		buf = appendFrame(buf, 0, Record{Op: OpGrant, Token: a.token, Deadline: a.deadline, Name: name})
	}
	tmp := filepath.Join(w.dir, snapTempName)
	if err := writeFileSync(tmp, buf); err != nil {
		w.fail(fmt.Errorf("journal: snapshot: %w", err))
		return
	}
	crash(crashCompactBeforeRename)
	if err := os.Rename(tmp, filepath.Join(w.dir, snapName)); err != nil {
		w.fail(fmt.Errorf("journal: snapshot rename: %w", err))
		return
	}
	syncDir(w.dir)
	crash(crashCompactAfterRename)
	// Everything in the log — including frames still in the write
	// buffer — is at or below lastLSN and therefore covered by the
	// snapshot; drop it all.
	w.wbuf = w.wbuf[:0]
	if err := w.f.Truncate(0); err != nil {
		w.fail(fmt.Errorf("journal: wal truncate: %w", err))
		return
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		w.fail(fmt.Errorf("journal: %w", err))
		return
	}
	w.walBytes = 0
	crash(crashCompactAfterTruncate)
	// The snapshot made every outstanding record durable; release any
	// SyncAlways committers still waiting on those LSNs.
	w.syncMu.Lock()
	if lastLSN > w.syncedLSN {
		w.syncedLSN = lastLSN
	}
	w.syncMu.Unlock()
	w.syncCond.Broadcast()
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed file's entry is
// durable. Best-effort: not every platform or filesystem supports it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// run is the background flusher: under SyncInterval it syncs every
// SyncEvery; under SyncAlways and SyncOff it only flushes, catching
// the records nobody Commits (releases, expiries) so they reach the
// OS promptly.
func (w *Log) run() {
	defer w.wg.Done()
	t := time.NewTicker(w.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		if w.opts.Sync == SyncInterval {
			w.forceSync()
		} else {
			w.flush()
		}
	}
}

// SizeOnDisk reports the current log length plus snapshot length —
// an observability probe for tests and stats.
func (w *Log) SizeOnDisk() int64 {
	var n int64
	if fi, err := os.Stat(filepath.Join(w.dir, walName)); err == nil {
		n += fi.Size()
	}
	if fi, err := os.Stat(filepath.Join(w.dir, snapName)); err == nil {
		n += fi.Size()
	}
	return n
}

// Sync flushes and fsyncs everything appended so far, regardless of
// policy — the graceful-drain hook: a clean shutdown that syncs never
// needs torn-tail recovery.
func (w *Log) Sync() error {
	w.syncMu.Lock()
	closedErr := w.syncErr
	w.syncMu.Unlock()
	if closedErr != nil {
		return closedErr
	}
	return w.forceSync()
}

// Close syncs and closes the journal. Idempotent.
func (w *Log) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	close(w.stop)
	w.wg.Wait()
	err := w.forceSync()
	w.mu.Lock()
	w.closed = true
	cerr := w.f.Close()
	w.mu.Unlock()
	if err == nil {
		err = cerr
	}
	return err
}

// Abandon closes the journal as a crash would: the background flusher
// stops, buffered frames are dropped on the floor, and the file is
// closed with no flush and no sync. It exists for crash-simulation
// tests — a process that really dies gets exactly this behavior (or
// worse: a torn frame, which Append's crash-point covers).
func (w *Log) Abandon() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.wbuf = w.wbuf[:0]
	w.mu.Unlock()
	close(w.stop)
	w.wg.Wait()
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()
}
