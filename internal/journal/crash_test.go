package journal

// The crash-point harness: the test binary re-executes itself as a
// child that runs a grant workload against a journal with one crash
// point armed (via ANONMUTEX_JOURNAL_CRASHPOINT), dies there with
// os.Exit — no flush, no deferred cleanup — and the parent then
// recovers the directory and checks the invariants that recovery
// promises at EVERY point in the commit and compaction paths:
//
//   1. Open never panics and never errors (torn tails truncate).
//   2. Every lease the child's Commit acknowledged is recovered.
//   3. Every recovered token is at or below the recovered TokenHigh
//      (the band argument: no post-restart token can collide).
//   4. Recovery is idempotent: a second open recovers the same state
//      and finds nothing left to truncate.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

const (
	crashChildEnv    = "ANONMUTEX_JOURNAL_CRASH_CHILD"
	crashChildDirEnv = "ANONMUTEX_JOURNAL_CRASH_DIR"
	crashChildAckEnv = "ANONMUTEX_JOURNAL_CRASH_ACK"
)

// TestCrashChild is the child body; it only runs when re-executed by
// TestCrashPoints with the child env set.
func TestCrashChild(t *testing.T) {
	if os.Getenv(crashChildEnv) != "1" {
		t.Skip("crash-harness child only")
	}
	dir := os.Getenv(crashChildDirEnv)
	ackPath := os.Getenv(crashChildAckEnv)
	w, _, err := Open(dir, Options{Sync: SyncAlways, CompactBytes: 700, BandSize: 1 << 10})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child open: %v\n", err)
		os.Exit(3)
	}
	o := newOwner(w, 3)
	high, err := w.ReserveTokens(0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "child reserve: %v\n", err)
		os.Exit(3)
	}
	// Grant key-i under token i+1 and Commit each; after every ack,
	// record it in the ack file (O_SYNC so the parent trusts it even
	// though the child dies without cleanup). The armed crash point
	// fires somewhere inside this loop — possibly inside a compaction
	// the owner runs when an Append made it due. Keys append through
	// three lanes, and each grant follows uncommitted renewals of the
	// two keys before it, so a torn grant tears one lane while others
	// hold frames.
	ack, err := os.OpenFile(ackPath, os.O_CREATE|os.O_WRONLY|os.O_SYNC, 0o644)
	if err != nil {
		os.Exit(3)
	}
	dl := time.Now().Add(time.Hour).UnixNano()
	for i := 0; i < 64; i++ {
		tok := uint64(i + 1)
		if tok > high {
			if high, err = w.ReserveTokens(tok); err != nil {
				os.Exit(3)
			}
		}
		for j := max(i-2, 0); j < i; j++ {
			if j%3 != 2 {
				if _, err := o.append(Record{Op: OpExtend, Name: fmt.Sprintf("key-%02d", j), Token: uint64(j + 1), Deadline: dl + int64(i)}); err != nil {
					os.Exit(3)
				}
			}
		}
		lsn, err := o.append(Record{Op: OpGrant, Name: fmt.Sprintf("key-%02d", i), Token: tok, Deadline: dl})
		if err != nil {
			os.Exit(3)
		}
		if i%3 == 2 {
			// Churn so compaction actually triggers mid-run.
			if _, err := o.append(Record{Op: OpRelease, Name: fmt.Sprintf("key-%02d", i), Token: tok}); err != nil {
				os.Exit(3)
			}
		}
		if err := w.Commit(lsn); err != nil {
			os.Exit(3)
		}
		if i%3 != 2 {
			fmt.Fprintf(ack, "key-%02d %d\n", i, tok)
		}
	}
	// Crash point never fired (mis-armed): exit distinctly.
	os.Exit(7)
}

func TestCrashPoints(t *testing.T) {
	if os.Getenv(crashChildEnv) == "1" {
		t.Skip("child process")
	}
	if testing.Short() {
		t.Skip("re-exec harness")
	}
	points := []string{
		crashBeforeSync + ":20",
		crashAfterSync + ":20",
		crashCompactBeforeRename,
		crashCompactAfterRename,
		crashCompactAfterTruncate,
		crashCompactBeforeRename + ":1",
		crashCompactAfterTruncate + ":1",
		crashAppendTorn + ":30",
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			ackPath := filepath.Join(dir, "acks.txt")
			cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashChild$")
			cmd.Env = append(os.Environ(),
				crashChildEnv+"=1",
				crashChildDirEnv+"="+filepath.Join(dir, "journal"),
				crashChildAckEnv+"="+ackPath,
				CrashEnvVar+"="+point,
			)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != crashExitCode {
				t.Fatalf("child did not die at crash point %s: err=%v out=%s", point, err, out)
			}

			// The acked set: every (key, token) whose Commit returned.
			acked := map[string]uint64{}
			if raw, err := os.ReadFile(ackPath); err == nil {
				var name string
				var tok uint64
				for _, line := range splitLines(raw) {
					if _, err := fmt.Sscanf(line, "%s %d", &name, &tok); err == nil {
						acked[name] = tok
					}
				}
			}

			w, st, err := Open(filepath.Join(dir, "journal"), Options{})
			if err != nil {
				t.Fatalf("recovery after %s: %v", point, err)
			}
			m := map[string]uint64{}
			for _, l := range st.Leases {
				m[l.Name] = l.Token
				if l.Token > st.TokenHigh {
					t.Errorf("recovered token %d for %s above TokenHigh %d", l.Token, l.Name, st.TokenHigh)
				}
			}
			var missing []string
			for name, tok := range acked {
				if m[name] != tok {
					missing = append(missing, fmt.Sprintf("%s=%d(got %d)", name, tok, m[name]))
				}
			}
			sort.Strings(missing)
			if len(missing) > 0 {
				t.Fatalf("acked grants lost after %s: %v (recovered %d, acked %d)", point, missing, len(m), len(acked))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			// Idempotent reopen: identical state, clean tail.
			w2, st2, err := Open(filepath.Join(dir, "journal"), Options{})
			if err != nil {
				t.Fatalf("second recovery after %s: %v", point, err)
			}
			defer w2.Close()
			if st2.Truncated != 0 {
				t.Errorf("second open after %s still truncated %d bytes", point, st2.Truncated)
			}
			if st2.TokenHigh != st.TokenHigh {
				t.Errorf("TokenHigh changed across reopen: %d then %d", st.TokenHigh, st2.TokenHigh)
			}
			m2 := map[string]uint64{}
			for _, l := range st2.Leases {
				m2[l.Name] = l.Token
			}
			if len(m2) != len(m) {
				t.Errorf("reopen recovered %d leases, first open %d", len(m2), len(m))
			}
			for k, v := range m {
				if m2[k] != v {
					t.Errorf("reopen lease %s token %d, first open %d", k, m2[k], v)
				}
			}
		})
	}
}

func splitLines(b []byte) []string {
	var out []string
	start := 0
	for i, c := range b {
		if c == '\n' {
			if i > start {
				out = append(out, string(b[start:i]))
			}
			start = i + 1
		}
	}
	if start < len(b) {
		out = append(out, string(b[start:]))
	}
	return out
}
