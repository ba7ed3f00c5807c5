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
// The LSN is a log-wide position: an append draws it by adding its
// frame's length to one counter, so LSNs increase across the whole log
// (they are not dense). That is what makes snapshot + log coexistence
// safe: a snapshot records the LSN of the last transition it reflects,
// and replay skips every log record at or below it — so a crash between
// "snapshot renamed" and "log truncated" replays the stale records as
// no-ops instead of resurrecting released leases.
//
// Appends go through lanes. A lane is one appender's buffer, guarded by
// a mutex its owner already holds — the lease manager gives each of its
// shards a lane under the shard mutex — so two appends on different
// lanes share no lock and write no common cache line except the LSN
// counter. The lane rule: a record's LSN is drawn and its frame buffered
// in one critical section of its lane's mutex, so a flusher that reads
// the LSN counter and then takes every lane's mutex in turn has moved
// every record at or below what it read. One key appends through one
// lane, so a key's records reach the file in order; records of
// different lanes interleave out of LSN order, which replay allows for
// (it takes the largest LSN and skips by value, never by position).
//
// The log keeps no copy of the lease state: replay builds the recovered
// leases in a map local to Open, and a live append only encodes and
// buffers its frame. Past CompactBytes, an append marks compaction as
// due and the caller — the lease manager, whose tables are the live
// state — hands Compact the live leases with every lane's mutex held.
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
	"iter"
	"maps"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
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
	// high-water mark. Recovery restarts the token counter at this
	// mark, so every token issued after a restart exceeds it.
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
	// CompactBytes is how large the log may grow before compaction is
	// due: CompactDue turns true, and the owner of the live state calls
	// Compact to write a snapshot and truncate the log (default 1 MiB).
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
	// maxBufferedBytes bounds the frames the lanes hold together: the
	// append that takes them past this size writes them out rather than
	// holding up to a SyncEvery of records for the background flush, so
	// the buffers' size does not grow with the append rate.
	maxBufferedBytes = 64 << 10
	// cacheLine separates the fields every append writes from those it
	// only reads.
	cacheLine = 64

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

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// frameLen is the length appendFrame encodes rec to when its LSN takes
// lsnLen bytes.
func frameLen(lsnLen int, rec Record) int {
	return frameHeader + lsnLen + 1 + uvarintLen(rec.Token) + uvarintLen(uint64(rec.Deadline)) + len(rec.Name)
}

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

// Log is an open journal: the lanes, the durability machinery, and
// compaction. It holds the token high-water mark but no lease state:
// Compact is handed the live leases by its caller. Safe for concurrent
// use.
//
// The lock order is lane mutexes (the owner's, then own's), then mu. A
// drain holds one lane's mutex and mu and only tries the others, so it
// never waits out of order.
type Log struct {
	dir  string
	opts Options

	// Read by every append, written only by a drain, a compaction or a
	// failure. drained is the position the log would be at had only the
	// frames that left the lanes been appended — pos minus drained is
	// what the lanes hold; cut is the position of the last compaction —
	// pos minus cut is the log's length, file and lanes together.
	drained    atomic.Uint64
	cut        atomic.Uint64
	closed     atomic.Bool
	compactDue atomic.Bool
	// appendErr is sticky: the first write or compaction failure. It is
	// set under mu but read without it, so a Commit that does not sync
	// takes no lock.
	appendErr atomic.Pointer[error]

	// pos is the log position every LSN is drawn from: each append adds
	// its frame's length and takes the sum as its LSN. It is the one word
	// every append on every lane writes, so it has a cache line to itself.
	_   [cacheLine]byte
	pos atomic.Uint64
	_   [cacheLine - 8]byte

	// mu guards the file, the write buffer the lanes drain into, the
	// lane list and the recovered leases.
	mu     sync.Mutex
	f      *os.File
	wbuf   []byte
	lanes  []*Lane
	writes int // file writes of the write buffer, for tests
	// recovered holds the leases Open recovered until TakeRecovered
	// hands them to the manager that reattaches them.
	recovered []LeaseState

	// own is the lane Append and ReserveTokens use, under ownMu. The
	// token mark changes only under it, in the critical section that
	// appends the reserve record, so a compaction — which holds ownMu —
	// sees a mark and an LSN that agree.
	ownMu     sync.Mutex
	own       *Lane
	tokenHigh atomic.Uint64

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

// Lane is one appender's slice of the log: a buffer of frames that only
// holders of its mutex append to. A lane's records reach the file in the
// order they were appended; records of different lanes may not.
type Lane struct {
	w      *Log
	mu     *sync.Mutex
	buf    []byte
	lsnLen int // the length of this lane's last LSN as a uvarint
	// Lanes are allocated one after another and written by whichever CPU
	// holds their mutex; a whole line each keeps them from sharing one.
	_ [cacheLine - 48]byte
}

// NewLane hands out a lane whose appends run under mu: the caller holds
// mu across every Lane.Append, and the journal takes mu itself to move
// the lane's frames to the file. Whoever calls Compact must hold the mu
// of every lane it was handed. Lanes live as long as the log.
func (w *Log) NewLane(mu *sync.Mutex) *Lane {
	l := &Lane{w: w, mu: mu, lsnLen: uvarintLen(w.pos.Load())}
	w.mu.Lock()
	w.lanes = append(w.lanes, l)
	w.mu.Unlock()
	return l
}

// Open opens (creating if needed) the journal in dir and recovers its
// state: the snapshot is loaded, the log replayed on top of it —
// truncating at the first corrupt or torn record — and the log left
// ready for appends. The Log keeps the recovered leases only until
// TakeRecovered hands them to the lease manager that reattaches them.
func Open(dir string, opts Options) (*Log, State, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, State{}, fmt.Errorf("journal: %w", err)
	}
	w := &Log{
		dir:  dir,
		opts: opts,
		stop: make(chan struct{}),
	}
	w.syncCond = sync.NewCond(&w.syncMu)

	r := replay{leases: make(map[string]LeaseState)}
	snapLSN, err := w.loadSnapshot(&r)
	if err != nil {
		return nil, State{}, err
	}
	st, lastLSN, fileLen, err := w.replayWAL(&r, snapLSN)
	if err != nil {
		return nil, State{}, err
	}
	// The position goes on from the largest LSN recovered, and at least
	// from the log's length, so that pos minus cut is that length.
	pos := max(lastLSN, snapLSN, fileLen)
	w.pos.Store(pos)
	w.drained.Store(pos)
	w.cut.Store(pos - fileLen)
	w.syncedLSN = pos
	w.tokenHigh.Store(r.tokenHigh)
	w.own = w.NewLane(&w.ownMu)
	st.TokenHigh = r.tokenHigh
	st.Leases = slices.Collect(maps.Values(r.leases))
	w.recovered = st.Leases

	w.wg.Add(1)
	go w.run()
	return w, st, nil
}

// replay is the state recovery folds the snapshot and the log into.
type replay struct {
	leases    map[string]LeaseState
	tokenHigh uint64
}

// apply folds one record into the replayed state. Deactivations check
// the token so a stale record (an op that lost its arbitration) cannot
// kill a newer lease on the same key.
func (r *replay) apply(rec Record) {
	switch rec.Op {
	case OpGrant:
		r.leases[rec.Name] = LeaseState{Name: rec.Name, Token: rec.Token, Deadline: rec.Deadline}
	case OpExtend:
		if a, ok := r.leases[rec.Name]; ok && a.Token == rec.Token {
			a.Deadline = rec.Deadline
			r.leases[rec.Name] = a
		}
	case OpRelease, OpRevoke, OpExpire:
		if a, ok := r.leases[rec.Name]; ok && a.Token == rec.Token {
			delete(r.leases, rec.Name)
		}
	case OpReserve:
		r.tokenHigh = max(r.tokenHigh, rec.Token)
	}
}

// loadSnapshot reads the snapshot file into r, returning the LSN it
// covers (0 when there is no snapshot). The snapshot is written
// atomically (tmp, fsync, rename), so unlike the log it is not
// truncation-repaired: damage here is disk corruption and surfaces as
// an error.
func (w *Log) loadSnapshot(r *replay) (uint64, error) {
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
			r.tokenHigh = rec.Token
			snapLSN = uint64(rec.Deadline)
			first = false
			continue
		}
		if rec.Op != OpGrant {
			return 0, fmt.Errorf("journal: snapshot %s holds op %d, want only grants", snapName, rec.Op)
		}
		r.apply(rec)
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
// r, truncates the file at the first corrupt or torn frame, and opens
// it for appending. It returns the largest LSN read and the length kept.
func (w *Log) replayWAL(r *replay, snapLSN uint64) (State, uint64, uint64, error) {
	path := filepath.Join(w.dir, walName)
	buf, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return State{}, 0, 0, fmt.Errorf("journal: %w", err)
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
		r.apply(rec)
		st.Replayed++
	}
	st.Truncated = len(buf) - good

	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return State{}, 0, 0, fmt.Errorf("journal: %w", err)
	}
	if st.Truncated > 0 {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return State{}, 0, 0, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return State{}, 0, 0, fmt.Errorf("journal: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return State{}, 0, 0, fmt.Errorf("journal: %w", err)
	}
	w.f = f
	return st, lastLSN, uint64(good), nil
}

// Append adds one record to the log through the journal's own lane and
// returns its LSN for Commit. It is for callers that have no lane of
// their own; see Lane.Append.
func (w *Log) Append(rec Record) uint64 {
	w.ownMu.Lock()
	defer w.ownMu.Unlock()
	return w.own.Append(rec)
}

// Append adds one record to the lane and returns its LSN for Commit.
// The caller holds the lane's mutex. It never waits for the disk: the
// frame goes to the lane's buffer, and the append that takes the lanes
// past maxBufferedBytes writes them out; durability is Commit's job. The
// append that takes the log past CompactBytes only marks compaction as
// due (CompactDue); it never compacts.
// Append after Close is a harmless no-op (LSN 0): late records from
// lease teardown lose nothing that matters — the process is exiting.
func (l *Lane) Append(rec Record) uint64 {
	w := l.w
	if w.closed.Load() {
		return 0
	}
	// The lane rule: the LSN is drawn and the frame buffered while the
	// caller holds the lane's mutex, so a flusher that read pos before
	// taking that mutex finds the frame of every LSN at or below it.
	n := frameLen(l.lsnLen, rec)
	lsn := w.pos.Add(uint64(n))
	if k := uvarintLen(lsn); k != l.lsnLen {
		// The LSN outgrew the length this lane last saw: count the longer
		// frame, so that pos keeps counting every byte appended.
		w.pos.Add(uint64(k - l.lsnLen))
		n += k - l.lsnLen
		l.lsnLen = k
	}
	l.buf = appendFrame(l.buf, lsn, rec)
	if crashArmed(crashAppendTorn) {
		// Crash-point: the drain that writes this lane tears mid-frame,
		// and the process dies — the torn tail recovery must truncate. The
		// other lanes' frames die unwritten.
		w.mu.Lock()
		w.f.Write(w.wbuf)
		w.f.Write(l.buf[:len(l.buf)-n/2])
		w.f.Sync()
		os.Exit(crashExitCode)
	}
	if rec.Op == OpReserve {
		for high := w.tokenHigh.Load(); rec.Token > high && !w.tokenHigh.CompareAndSwap(high, rec.Token); {
			high = w.tokenHigh.Load()
		}
	}
	if int64(lsn-w.cut.Load()) >= w.opts.CompactBytes && !w.compactDue.Load() && w.appendErr.Load() == nil {
		w.compactDue.Store(true)
	}
	if int64(lsn-w.drained.Load()) >= maxBufferedBytes {
		w.drain(l)
	}
	return lsn
}

// drain writes the lanes' frames out in one write: own's, whose mutex
// the caller holds, and every other lane's whose mutex is free. A lane
// whose mutex is busy is being appended to, and its appender drains it
// if the lanes are still over the bound — and only then: an appender
// that crossed the bound while another drain ran finds it done.
func (w *Log) drain(own *Lane) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if int64(w.pos.Load()-w.drained.Load()) < maxBufferedBytes {
		return
	}
	w.take(own)
	for _, l := range w.lanes {
		if l != own && l.mu.TryLock() {
			w.take(l)
			l.mu.Unlock()
		}
	}
	w.flushLocked()
}

// take moves l's frames to the write buffer. Caller holds mu and l's
// mutex.
func (w *Log) take(l *Lane) {
	if len(l.buf) == 0 {
		return
	}
	w.wbuf = append(w.wbuf, l.buf...)
	w.drained.Add(uint64(len(l.buf)))
	l.buf = l.buf[:0]
}

// flushLocked writes the write buffer to the file. Caller holds mu.
func (w *Log) flushLocked() error {
	if w.closed.Load() {
		return ErrClosed
	}
	if err := w.stickyErr(); err != nil {
		return err
	}
	if len(w.wbuf) == 0 {
		return nil
	}
	w.writes++
	if _, err := w.f.Write(w.wbuf); err != nil {
		return w.fail(err)
	}
	w.wbuf = w.wbuf[:0]
	return nil
}

// fail records err as the sticky append error and returns it. Caller
// holds mu.
func (w *Log) fail(err error) error {
	w.appendErr.Store(&err)
	return err
}

// stickyErr returns the sticky append error, if any.
func (w *Log) stickyErr() error {
	if p := w.appendErr.Load(); p != nil {
		return *p
	}
	return nil
}

// flush pushes every lane's frames to the OS and reports the highest
// LSN now (at least) file-resident. It reads pos before it takes the
// first lane's mutex: by the lane rule, each lane then holds every
// frame at or below that LSN that has not left it already.
func (w *Log) flush() (uint64, error) {
	target := w.pos.Load()
	w.mu.Lock()
	lanes := w.lanes
	w.mu.Unlock()
	for _, l := range lanes {
		l.mu.Lock()
		w.mu.Lock()
		w.take(l)
		w.mu.Unlock()
		l.mu.Unlock()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
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
	w.ownMu.Lock()
	if w.closed.Load() {
		w.ownMu.Unlock()
		return 0, ErrClosed
	}
	high := max(w.tokenHigh.Load(), min) + w.opts.BandSize
	// The mark is read, raised and its record buffered in one critical
	// section of ownMu, which Compact holds: the record's LSN is above
	// a snapshot's exactly when the snapshot's mark is below it. The
	// band is usable only once durable.
	w.own.Append(Record{Op: OpReserve, Token: high})
	w.ownMu.Unlock()
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

// CompactDue reports whether the log has grown past CompactBytes since
// the last compaction: the owner of the live state should call Compact.
func (w *Log) CompactDue() bool { return w.compactDue.Load() }

// Compact writes a snapshot of live — the leases active as of the last
// appended record — with the token high-water mark, and truncates the
// log. The caller holds the mutex of every lane NewLane handed it, so
// that no append runs and live reflects exactly the records at or
// below the snapshot's LSN; Compact takes its own lane's itself, which
// orders reserve records with the cut. The frames the lanes still hold
// are all at or below that LSN, so Compact drops them.
//
// Crash ordering: the snapshot is complete and synced before the
// rename makes it current, and replay skips log records the snapshot
// covers (by LSN), so a crash anywhere in this sequence recovers
// exactly the pre- or post-compaction state, never a mix. A failure is
// sticky: later commits report it.
func (w *Log) Compact(live iter.Seq[LeaseState]) error {
	w.ownMu.Lock()
	defer w.ownMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return ErrClosed
	}
	if err := w.stickyErr(); err != nil {
		return err
	}
	w.compactDue.Store(false)
	lastLSN := w.pos.Load()
	buf := appendFrame(nil, lastLSN, Record{Op: opSnapMeta, Token: w.tokenHigh.Load(), Deadline: int64(lastLSN)})
	for ls := range live {
		buf = appendFrame(buf, 0, Record{Op: OpGrant, Token: ls.Token, Deadline: ls.Deadline, Name: ls.Name})
	}
	tmp := filepath.Join(w.dir, snapTempName)
	if err := writeFileSync(tmp, buf); err != nil {
		return w.fail(fmt.Errorf("journal: snapshot: %w", err))
	}
	crash(crashCompactBeforeRename)
	if err := os.Rename(tmp, filepath.Join(w.dir, snapName)); err != nil {
		return w.fail(fmt.Errorf("journal: snapshot rename: %w", err))
	}
	syncDir(w.dir)
	crash(crashCompactAfterRename)
	// Everything in the log — including frames still in the write
	// buffer and the lanes — is at or below lastLSN and therefore
	// covered by the snapshot; drop it all.
	w.wbuf = w.wbuf[:0]
	for _, l := range w.lanes {
		l.buf = l.buf[:0]
	}
	w.drained.Store(lastLSN)
	w.cut.Store(lastLSN)
	if err := w.f.Truncate(0); err != nil {
		return w.fail(fmt.Errorf("journal: wal truncate: %w", err))
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return w.fail(fmt.Errorf("journal: %w", err))
	}
	crash(crashCompactAfterTruncate)
	// The snapshot made every outstanding record durable; release any
	// SyncAlways committers still waiting on those LSNs.
	w.syncMu.Lock()
	if lastLSN > w.syncedLSN {
		w.syncedLSN = lastLSN
	}
	w.syncMu.Unlock()
	w.syncCond.Broadcast()
	return nil
}

// TakeRecovered hands over what Open recovered. The leases go to the
// first caller only — the lease manager that reattaches them — and
// every later call gets none, so no two managers hold one recovered
// lease. TokenHigh is the reserved mark as of the call.
func (w *Log) TakeRecovered() State {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := State{Leases: w.recovered, TokenHigh: w.tokenHigh.Load()}
	w.recovered = nil
	return st
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
	if w.closed.Load() {
		return nil
	}
	close(w.stop)
	w.wg.Wait()
	err := w.forceSync()
	w.mu.Lock()
	w.closed.Store(true)
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
	if w.closed.Load() {
		w.mu.Unlock()
		return
	}
	// Nothing is written once closed is set: the lanes' frames and the
	// write buffer are dropped as they stand.
	w.closed.Store(true)
	w.wbuf = w.wbuf[:0]
	w.mu.Unlock()
	close(w.stop)
	w.wg.Wait()
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()
}
