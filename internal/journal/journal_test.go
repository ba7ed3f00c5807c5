package journal

import (
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anonmutex/internal/xrand"
)

func openT(t *testing.T, dir string, opts Options) (*Log, State) {
	t.Helper()
	w, st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w, st
}

// owner stands in for the lease manager: it keeps the test's own model
// of the live leases, appends each key's records through one lane (the
// journal's own when it has none), and compacts the log from that model
// whenever the log reports compaction due, holding every lane's mutex.
// One goroutine uses an owner at a time.
type owner struct {
	w     *Log
	mus   []sync.Mutex
	lanes []*Lane
	live  replay
}

func newOwner(w *Log, lanes int) *owner {
	o := &owner{w: w, mus: make([]sync.Mutex, lanes), lanes: make([]*Lane, lanes), live: replay{leases: make(map[string]LeaseState)}}
	for i := range o.lanes {
		o.lanes[i] = w.NewLane(&o.mus[i])
	}
	return o
}

// append appends rec, folds it into the model, and compacts if due.
func (o *owner) append(rec Record) (uint64, error) {
	var lsn uint64
	if len(o.lanes) == 0 {
		lsn = o.w.Append(rec)
	} else {
		i := int(crc32.ChecksumIEEE([]byte(rec.Name)) % uint32(len(o.lanes)))
		o.mus[i].Lock()
		lsn = o.lanes[i].Append(rec)
		o.mus[i].Unlock()
	}
	o.live.apply(rec)
	if o.w.CompactDue() {
		for i := range o.mus {
			o.mus[i].Lock()
		}
		err := o.w.Compact(maps.Values(o.live.leases))
		for i := range o.mus {
			o.mus[i].Unlock()
		}
		if err != nil {
			return lsn, err
		}
	}
	return lsn, nil
}

func (o *owner) appendT(t *testing.T, rec Record) {
	t.Helper()
	if _, err := o.append(rec); err != nil {
		t.Fatalf("Compact: %v", err)
	}
}

func leaseMap(st State) map[string]LeaseState {
	m := make(map[string]LeaseState, len(st.Leases))
	for _, l := range st.Leases {
		m[l.Name] = l
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, st := openT(t, dir, Options{})
	if len(st.Leases) != 0 || st.TokenHigh != 0 {
		t.Fatalf("fresh journal recovered state: %+v", st)
	}
	dl := time.Now().Add(time.Second).UnixNano()
	lsn := w.Append(Record{Op: OpGrant, Name: "a", Token: 1, Deadline: dl})
	if err := w.Commit(lsn); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	w.Append(Record{Op: OpGrant, Name: "b", Token: 2, Deadline: dl})
	w.Append(Record{Op: OpExtend, Name: "a", Token: 1, Deadline: dl + int64(time.Second)})
	w.Append(Record{Op: OpRelease, Name: "b", Token: 2})
	w.Append(Record{Op: OpGrant, Name: "c", Token: 3, Deadline: dl})
	w.Append(Record{Op: OpExpire, Name: "c", Token: 3})
	w.Append(Record{Op: OpGrant, Name: "c", Token: 4, Deadline: dl})
	if _, err := w.ReserveTokens(10); err != nil {
		t.Fatalf("ReserveTokens: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, st2 := openT(t, dir, Options{})
	defer w2.Close()
	m := leaseMap(st2)
	if len(m) != 2 {
		t.Fatalf("recovered %d leases, want 2: %+v", len(m), st2.Leases)
	}
	if a := m["a"]; a.Token != 1 || a.Deadline != dl+int64(time.Second) {
		t.Fatalf("lease a: %+v", a)
	}
	if c := m["c"]; c.Token != 4 {
		t.Fatalf("lease c: %+v", c)
	}
	if st2.TokenHigh < 10 {
		t.Fatalf("TokenHigh = %d, want >= reservation min 10", st2.TokenHigh)
	}
	if st2.Truncated != 0 {
		t.Fatalf("clean shutdown recovered with Truncated = %d", st2.Truncated)
	}
}

// TestStaleDeactivationIgnored: a release/revoke/expire carrying an old
// token must not kill the key's newer lease during replay.
func TestStaleDeactivationIgnored(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	dl := time.Now().Add(time.Second).UnixNano()
	w.Append(Record{Op: OpGrant, Name: "k", Token: 7, Deadline: dl})
	w.Append(Record{Op: OpRevoke, Name: "k", Token: 3})              // stale revoke
	w.Append(Record{Op: OpExtend, Name: "k", Token: 5, Deadline: 1}) // stale extend
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, st := openT(t, dir, Options{})
	defer w2.Close()
	m := leaseMap(st)
	if k, ok := m["k"]; !ok || k.Token != 7 || k.Deadline != dl {
		t.Fatalf("lease k after stale ops: %+v (ok=%v)", k, ok)
	}
}

// TestTornTailEveryPrefix replays every possible torn tail: the log is
// cut after each byte length and must always recover without panic,
// yielding the state implied by the whole frames that survived the cut.
func TestTornTailEveryPrefix(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	dl := int64(1e18)
	recs := []Record{
		{Op: OpGrant, Name: "alpha", Token: 1, Deadline: dl},
		{Op: OpGrant, Name: "beta", Token: 2, Deadline: dl},
		{Op: OpReserve, Token: 1 << 20},
		{Op: OpRelease, Name: "alpha", Token: 1},
		{Op: OpGrant, Name: "gamma", Token: 3, Deadline: dl},
	}
	for _, r := range recs {
		w.Append(r)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}

	// Expected state after each whole-frame prefix, computed by walking
	// the intact file.
	type snap struct {
		bytes  int
		leases map[string]uint64
		high   uint64
	}
	snaps := []snap{{0, map[string]uint64{}, 0}}
	rest := full
	cur := map[string]uint64{}
	high := uint64(0)
	for len(rest) > 0 {
		_, rec, r2, err := decodeRecord(rest)
		if err != nil {
			t.Fatalf("intact log failed to decode: %v", err)
		}
		switch rec.Op {
		case OpGrant:
			cur[rec.Name] = rec.Token
		case OpRelease:
			if cur[rec.Name] == rec.Token {
				delete(cur, rec.Name)
			}
		case OpReserve:
			if rec.Token > high {
				high = rec.Token
			}
		}
		m := make(map[string]uint64, len(cur))
		for k, v := range cur {
			m[k] = v
		}
		snaps = append(snaps, snap{len(full) - len(r2), m, high})
		rest = r2
	}

	for cut := 0; cut <= len(full); cut++ {
		// The largest whole-frame prefix within this cut.
		want := snaps[0]
		for _, s := range snaps {
			if s.bytes <= cut {
				want = s
			}
		}
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, walName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, st := openT(t, cdir, Options{})
		m := leaseMap(st)
		if len(m) != len(want.leases) {
			t.Fatalf("cut %d: recovered %d leases, want %d", cut, len(m), len(want.leases))
		}
		for k, tok := range want.leases {
			if m[k].Token != tok {
				t.Fatalf("cut %d: lease %s token %d, want %d", cut, k, m[k].Token, tok)
			}
		}
		if st.TokenHigh != want.high {
			t.Fatalf("cut %d: TokenHigh %d, want %d", cut, st.TokenHigh, want.high)
		}
		if wantTrunc := cut - want.bytes; st.Truncated != wantTrunc {
			t.Fatalf("cut %d: Truncated %d, want %d", cut, st.Truncated, wantTrunc)
		}
		// The truncation must be repair, not just tolerance: a second
		// open sees a clean log.
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		w3, st3 := openT(t, cdir, Options{})
		if st3.Truncated != 0 {
			t.Fatalf("cut %d: reopen after repair still truncated %d bytes", cut, st3.Truncated)
		}
		w3.Close()
	}
}

// TestCorruptByte flips each byte of a record mid-log and asserts
// recovery truncates at or before the damage — no panic, no record
// after the flip surviving.
func TestCorruptByte(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	w.Append(Record{Op: OpGrant, Name: "first", Token: 1, Deadline: 99})
	w.Append(Record{Op: OpGrant, Name: "second", Token: 2, Deadline: 99})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	// Byte length of the first frame.
	_, _, rest, err := decodeRecord(full)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := len(full) - len(rest)

	for i := 0; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x80
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, walName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, st := openT(t, cdir, Options{})
		m := leaseMap(st)
		if i < firstLen {
			// Damage in frame 1: nothing after it may survive either.
			if len(m) != 0 {
				t.Fatalf("flip at %d (frame 1): recovered %d leases, want 0", i, len(m))
			}
		} else {
			if _, ok := m["second"]; ok {
				t.Fatalf("flip at %d (frame 2): corrupt record survived", i)
			}
			if lease, ok := m["first"]; !ok || lease.Token != 1 {
				t.Fatalf("flip at %d: intact frame 1 lost: %+v", i, m)
			}
		}
		w2.Close()
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{CompactBytes: 512})
	o := newOwner(w, 0)
	dl := int64(5e18)
	// Churn far past CompactBytes; end with a known survivor set.
	for i := 0; i < 200; i++ {
		o.appendT(t, Record{Op: OpGrant, Name: "churn", Token: uint64(i + 1), Deadline: dl})
		o.appendT(t, Record{Op: OpRelease, Name: "churn", Token: uint64(i + 1)})
	}
	o.appendT(t, Record{Op: OpGrant, Name: "keep", Token: 999, Deadline: dl})
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot after %d bytes of churn: %v", w.SizeOnDisk(), err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if sz := (&Log{dir: dir}).SizeOnDisk(); sz > 2048 {
		t.Fatalf("compaction left %d bytes on disk", sz)
	}
	w2, st := openT(t, dir, Options{CompactBytes: 512})
	defer w2.Close()
	m := leaseMap(st)
	if len(m) != 1 || m["keep"].Token != 999 {
		t.Fatalf("recovered %+v, want only keep/999", st.Leases)
	}
}

// TestCompactionPreservesReservation: the token high-water mark must
// survive being folded into a snapshot.
func TestCompactionPreservesReservation(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{CompactBytes: 256, BandSize: 1000})
	o := newOwner(w, 0)
	high, err := w.ReserveTokens(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		o.appendT(t, Record{Op: OpGrant, Name: "x", Token: uint64(i + 1), Deadline: 1})
		o.appendT(t, Record{Op: OpRelease, Name: "x", Token: uint64(i + 1)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, st := openT(t, dir, Options{})
	defer w2.Close()
	if st.TokenHigh != high {
		t.Fatalf("TokenHigh %d after compaction, want %d", st.TokenHigh, high)
	}
}

// TestReserveTokensMonotonic: successive reservations never go
// backward, and honor a floor jump (the epoch<<32 composition).
func TestReserveTokensMonotonic(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{BandSize: 100})
	h1, err := w.ReserveTokens(0)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != 100 {
		t.Fatalf("first band = %d, want 100", h1)
	}
	h2, _ := w.ReserveTokens(0)
	if h2 != 200 {
		t.Fatalf("second band = %d, want 200", h2)
	}
	// A floor far above the band (epoch bump): band restarts above it.
	floor := uint64(1) << 32
	h3, _ := w.ReserveTokens(floor)
	if h3 != floor+100 {
		t.Fatalf("post-floor band = %d, want %d", h3, floor+100)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, st := openT(t, dir, Options{BandSize: 100})
	defer w2.Close()
	if st.TokenHigh != h3 {
		t.Fatalf("recovered TokenHigh %d, want %d", st.TokenHigh, h3)
	}
}

// TestAbandonLosesBufferedOnly: Abandon models a crash — buffered
// frames die, but everything a SyncAlways Commit acknowledged
// survives.
func TestAbandonLosesBufferedOnly(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{Sync: SyncAlways, SyncEvery: time.Hour})
	lsn := w.Append(Record{Op: OpGrant, Name: "durable", Token: 1, Deadline: 9})
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	w.Append(Record{Op: OpGrant, Name: "lost", Token: 2, Deadline: 9})
	w.Abandon()
	w2, st := openT(t, dir, Options{})
	defer w2.Close()
	m := leaseMap(st)
	if _, ok := m["durable"]; !ok {
		t.Fatalf("committed record lost across Abandon: %+v", st.Leases)
	}
	if _, ok := m["lost"]; ok {
		t.Fatalf("uncommitted buffered record survived Abandon")
	}
}

// TestAppendBoundsWriteBuffer: with no Commit, no background flush in
// reach and no compaction, appends through eight lanes alone keep the
// frames the lanes and the write buffer hold together within
// maxBufferedBytes, so their size does not follow the append rate; what
// left them is in the file, in writes of at least that size each.
func TestAppendBoundsWriteBuffer(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{Sync: SyncOff, SyncEvery: time.Hour, CompactBytes: 1 << 40})
	defer w.Close()
	o := newOwner(w, 8)
	start := w.pos.Load()
	appended, peak := 0, 0
	for tok := uint64(1); appended < 4<<20; tok++ {
		name := fmt.Sprintf("%064d", tok%64)
		for _, op := range []Op{OpGrant, OpRelease} {
			if _, err := o.append(Record{Op: op, Name: name, Token: tok, Deadline: time.Now().UnixNano()}); err != nil {
				t.Fatal(err)
			}
			appended = int(w.pos.Load() - start)
			peak = max(peak, buffered(w))
		}
	}
	if peak > maxBufferedBytes {
		t.Errorf("lanes and write buffer peaked at %d bytes over %d appended, bound is %d", peak, appended, maxBufferedBytes)
	}
	if onDisk := w.SizeOnDisk(); onDisk < int64(appended-maxBufferedBytes) {
		t.Errorf("%d of %d appended bytes reached the file, want all but the last %d at most", onDisk, appended, maxBufferedBytes)
	}
	w.mu.Lock()
	writes := w.writes
	w.mu.Unlock()
	if writes > appended/maxBufferedBytes {
		t.Errorf("%d writes for %d bytes, want at most one per %d", writes, appended, maxBufferedBytes)
	}
}

// buffered is what w's lanes and write buffer hold.
func buffered(w *Log) int {
	w.mu.Lock()
	lanes := w.lanes
	w.mu.Unlock()
	n := 0
	for _, l := range lanes {
		l.mu.Lock()
		n += len(l.buf)
		l.mu.Unlock()
	}
	w.mu.Lock()
	n += len(w.wbuf)
	w.mu.Unlock()
	return n
}

// TestCommitReportsStickyAppendError: under the policies whose Commit
// does not sync, Commit still reports a write that failed, and keeps
// reporting it.
func TestCommitReportsStickyAppendError(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncOff, SyncInterval} {
		w, _ := openT(t, t.TempDir(), Options{Sync: pol, SyncEvery: time.Hour, CompactBytes: 1 << 40})
		w.mu.Lock()
		w.f.Close() // every later write fails
		w.mu.Unlock()
		name := strings.Repeat("n", 64)
		var lsn uint64
		for i := 0; i < 2*maxBufferedBytes/len(name); i++ {
			lsn = w.Append(Record{Op: OpGrant, Name: name, Token: uint64(i + 1)})
		}
		for i := 0; i < 2; i++ {
			if err := w.Commit(lsn); err == nil {
				t.Errorf("%v: Commit %d after a failed write returned nil", pol, i)
			}
		}
		w.Close() // fails too: the file is already closed
	}
}

// TestSyncIntervalDurability: under the interval policy, records become
// durable within ~SyncEvery without any Commit blocking.
func TestSyncIntervalDurability(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{Sync: SyncInterval, SyncEvery: time.Millisecond})
	lsn := w.Append(Record{Op: OpGrant, Name: "k", Token: 1, Deadline: 9})
	if err := w.Commit(lsn); err != nil { // must not block
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		w.syncMu.Lock()
		synced := w.syncedLSN >= lsn
		w.syncMu.Unlock()
		if synced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval sync never covered the record")
		}
		time.Sleep(time.Millisecond)
	}
	w.Abandon()
	w2, st := openT(t, dir, Options{})
	defer w2.Close()
	if _, ok := leaseMap(st)["k"]; !ok {
		t.Fatal("interval-synced record lost across Abandon")
	}
}

func TestParseSync(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"", SyncAlways, true},
		{"always", SyncAlways, true},
		{"interval", SyncInterval, true},
		{"off", SyncOff, true},
		{"sometimes", 0, false},
	} {
		got, err := ParseSync(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseSync(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		if rt, err := ParseSync(p.String()); err != nil || rt != p {
			t.Errorf("String/Parse round-trip broke for %v", p)
		}
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if lsn := w.Append(Record{Op: OpRelease, Name: "late", Token: 1}); lsn != 0 {
		t.Fatalf("Append after Close returned lsn %d, want 0", lsn)
	}
	if _, err := w.ReserveTokens(0); err != ErrClosed {
		t.Fatalf("ReserveTokens after Close: %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestLaneLSNRule races goroutines that each append through a lane of
// their own — grants, renewals and releases, every one committed at the
// always policy — against the compactions their appends make due and
// two goroutines that flush in a loop. Each Commit that returns must
// have taken its record out of its lane: a flusher reads the LSN
// counter before it takes each lane's mutex, so an LSN drawn, or a
// frame buffered, outside that mutex is a record a flusher can pass
// over and a Commit can then return without. The looping flushers keep
// the lanes' mutexes contended, so an appender that lets go of its
// mutex between the two is often overtaken. After a crash, every key
// comes back as its model says, with its token and deadline, though the
// file holds the lanes' records out of LSN order and the compactions
// cut between them.
func TestLaneLSNRule(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{Sync: SyncAlways, CompactBytes: 4 << 10})
	const workers, keys, ops = 4, 6, 1000
	var (
		mus        [workers]sync.Mutex
		lanes      [workers]*Lane
		models     [workers]map[string]LeaseState // models[g] is guarded by mus[g]
		tokens     atomic.Uint64
		compacting atomic.Bool
		wg         sync.WaitGroup
	)
	live := func(yield func(LeaseState) bool) {
		for _, m := range models {
			for _, ls := range m {
				if !yield(ls) {
					return
				}
			}
		}
	}
	compact := func() {
		if !w.CompactDue() || !compacting.CompareAndSwap(false, true) {
			return
		}
		for i := range mus {
			mus[i].Lock()
		}
		err := w.Compact(live)
		for i := range mus {
			mus[i].Unlock()
		}
		compacting.Store(false)
		if err != nil {
			t.Errorf("Compact: %v", err)
		}
	}
	for g := range workers {
		lanes[g] = w.NewLane(&mus[g])
		models[g] = map[string]LeaseState{}
	}
	done := make(chan struct{})
	var fwg sync.WaitGroup
	for range 2 {
		fwg.Add(1)
		go func() {
			defer fwg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := w.flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
			}
		}()
	}
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := xrand.New(uint64(g + 1))
			for i := 1; i <= ops; i++ {
				name := fmt.Sprintf("g%d-k%d", g, rng.Intn(keys))
				mus[g].Lock()
				ls, held := models[g][name]
				rec := Record{Op: OpExtend, Name: name, Token: ls.Token, Deadline: int64(i)}
				switch {
				case !held:
					rec.Op, rec.Token = OpGrant, tokens.Add(1)
				case rng.Intn(2) == 0:
					rec = Record{Op: OpRelease, Name: name, Token: ls.Token}
				}
				lsn := lanes[g].Append(rec)
				r := replay{leases: models[g]}
				r.apply(rec)
				mus[g].Unlock()
				compact()
				if err := w.Commit(lsn); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
				mus[g].Lock()
				first, _, _, err := decodeRecord(lanes[g].buf)
				mus[g].Unlock()
				if err == nil && first <= lsn {
					t.Errorf("Commit(%d) returned with LSN %d still in its lane", lsn, first)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	fwg.Wait()
	if t.Failed() {
		return
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("the appends never compacted: %v", err)
	}
	w.Abandon()

	w2, st := openT(t, dir, Options{})
	defer w2.Close()
	want := map[string]LeaseState{}
	for _, m := range models {
		maps.Copy(want, m)
	}
	got := leaseMap(st)
	if len(got) != len(want) {
		t.Errorf("recovered %d leases, the models hold %d", len(got), len(want))
	}
	for name, ls := range want {
		if got[name] != ls {
			t.Errorf("key %s recovered as %+v, its model holds %+v", name, got[name], ls)
		}
	}
}

// TestLaneOrderAcrossCut: two lanes hold interleaved LSNs when a
// compaction cuts, and afterwards the later lane reaches the file
// first. Replay goes by each record's LSN, not its place in the file,
// and each key's records stay in its lane's order.
func TestLaneOrderAcrossCut(t *testing.T) {
	dir := t.TempDir()
	w, _ := openT(t, dir, Options{Sync: SyncOff, SyncEvery: time.Hour, CompactBytes: 1 << 40})
	var mus [2]sync.Mutex
	lanes := [2]*Lane{w.NewLane(&mus[0]), w.NewLane(&mus[1])}
	app := func(i int, rec Record) {
		mus[i].Lock()
		lanes[i].Append(rec)
		mus[i].Unlock()
	}
	// Key x appends through lane 0, key y through lane 1.
	app(0, Record{Op: OpGrant, Name: "x", Token: 1, Deadline: 10})
	app(1, Record{Op: OpGrant, Name: "y", Token: 2, Deadline: 10})
	app(0, Record{Op: OpRelease, Name: "x", Token: 1})
	app(1, Record{Op: OpExtend, Name: "y", Token: 2, Deadline: 20})
	app(0, Record{Op: OpGrant, Name: "x", Token: 3, Deadline: 10})
	mus[0].Lock()
	mus[1].Lock()
	err := w.Compact(slices.Values([]LeaseState{{Name: "x", Token: 3, Deadline: 10}, {Name: "y", Token: 2, Deadline: 20}}))
	mus[1].Unlock()
	mus[0].Unlock()
	if err != nil {
		t.Fatal(err)
	}
	app(0, Record{Op: OpRelease, Name: "x", Token: 3})
	app(1, Record{Op: OpRelease, Name: "y", Token: 2})
	app(0, Record{Op: OpGrant, Name: "x", Token: 4, Deadline: 30})
	app(1, Record{Op: OpGrant, Name: "y", Token: 5, Deadline: 30})
	app(1, Record{Op: OpExtend, Name: "y", Token: 5, Deadline: 40})
	for _, i := range []int{1, 0} {
		mus[i].Lock()
		w.mu.Lock()
		w.take(lanes[i])
		err := w.flushLocked()
		w.mu.Unlock()
		mus[i].Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for len(raw) > 0 {
		lsn, _, rest, err := decodeRecord(raw)
		if err != nil {
			t.Fatal(err)
		}
		lsns, raw = append(lsns, lsn), rest
	}
	if len(lsns) != 5 || slices.IsSorted(lsns) {
		t.Fatalf("log after the cut holds LSNs %v, want lane 1's three before lane 0's two", lsns)
	}
	w2, st := openT(t, dir, Options{})
	defer w2.Close()
	got := leaseMap(st)
	if x, y := got["x"], got["y"]; len(got) != 2 || x.Token != 4 || x.Deadline != 30 || y.Token != 5 || y.Deadline != 40 {
		t.Fatalf("recovered %+v, want x token 4 deadline 30 and y token 5 deadline 40", st.Leases)
	}
}
