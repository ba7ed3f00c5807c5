package loadgen

// Replay determinism across consumers: a loadgen client and a
// scenario/sim process with the same workload Spec, seed, and stream id
// must observe identical traffic. The unified model guarantees it by
// deriving an independent RNG stream per generator — these tests pin
// the end-to-end property against live consumers.

import (
	"fmt"
	"testing"
	"time"

	"anonmutex/internal/workload"
)

// recordingLocker is a fake backend that grants everything at once and
// records one client's acquire order.
type recordingLocker struct {
	names []string
}

func (r *recordingLocker) Acquire(name string) error {
	r.names = append(r.names, name)
	return nil
}
func (r *recordingLocker) AcquireFor(name string, _ time.Duration) (bool, error) {
	return true, r.Acquire(name)
}
func (r *recordingLocker) TryAcquire(name string) (bool, error) { return true, r.Acquire(name) }
func (r *recordingLocker) Release(string) error                 { return nil }
func (r *recordingLocker) Holds(string) (bool, error)           { return true, nil }
func (r *recordingLocker) Crash(string) (bool, error)           { return true, nil }
func (r *recordingLocker) Close() error                         { return nil }

func TestReplayLoadgenMatchesTrace(t *testing.T) {
	spec := workload.Spec{
		Profile: "bursty", BaseCS: 0, BaseRemainder: 0, Seed: 77,
		Keys: workload.KeySpec{Dist: workload.KeyZipf, ZipfS: 1.3},
	}
	const clients, keys, cycles = 3, 8, 150
	recorders := make([]*recordingLocker, clients)
	cfg := Config{
		Clients: clients, Keys: keys, Cycles: cycles,
		Workload: &spec,
		NewLocker: func(me int) (Locker, error) {
			recorders[me] = &recordingLocker{}
			return recorders[me], nil
		},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for me, rec := range recorders {
		trace, err := workload.TraceOps(spec, uint64(me), keys, len(rec.names))
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range rec.names {
			want := fmt.Sprintf("key-%04d", trace[i].Key)
			if name != want {
				t.Fatalf("client %d acquire %d: got %s, want %s (trace diverged)", me, i, name, want)
			}
		}
	}
}

func TestReplaySimPlanMatchesLoadgenStreams(t *testing.T) {
	// The scenario runners (real and simulated substrates) consume
	// workload.SpecPlan; loadgen clients consume interleaved Source
	// draws. Stream i's session subsequence must be identical in both —
	// the cross-consumer replay guarantee.
	spec := workload.Spec{Profile: "skewed", BaseCS: 4, BaseRemainder: 6, Seed: 123}
	const n, sessions = 4, 60
	plan, err := workload.SpecPlan(spec, n, sessions)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		trace, err := workload.TraceOps(spec, uint64(i), 16, sessions)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < sessions; s++ {
			if plan[i][s] != trace[s].Session {
				t.Fatalf("stream %d session %d: plan %+v, interleaved trace %+v",
					i, s, plan[i][s], trace[s].Session)
			}
		}
	}
	// And the whole thing replays: a second materialization is
	// bit-identical.
	again, err := workload.SpecPlan(spec, n, sessions)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan {
		for s := range plan[i] {
			if plan[i][s] != again[i][s] {
				t.Fatalf("plan not replayable at [%d][%d]", i, s)
			}
		}
	}
}
