package trace

import (
	"strings"
	"testing"

	"anonmutex/internal/core"
)

func TestTraceCap(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Add(Event{Step: i})
	}
	if tr.Len() != 3 || tr.Dropped != 2 {
		t.Fatalf("len=%d dropped=%d, want 3 and 2", tr.Len(), tr.Dropped)
	}
}

func TestTraceDisabled(t *testing.T) {
	tr := NewTrace(0)
	tr.Add(Event{})
	if tr.Len() != 0 || tr.Dropped != 1 {
		t.Fatalf("disabled trace retained events")
	}
	var nilTrace *Trace
	nilTrace.Add(Event{}) // must not panic
	if nilTrace.Len() != 0 {
		t.Fatal("nil trace has nonzero length")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Step: 17, Proc: 2, Kind: EvOp, Op: core.Op{Kind: core.OpRead, X: 3}, Line: 9}
	s := e.String()
	for _, want := range []string{"17", "p2", "read", "[3]", "@9"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
	if !strings.Contains(Event{Kind: EvEnterCS}.String(), "enter-cs") {
		t.Error("enter event string wrong")
	}
}

func TestMonitorNoViolationSequential(t *testing.T) {
	m := NewMonitor(3)
	for round := 0; round < 3; round++ {
		for p := 0; p < 3; p++ {
			m.OnLockStart(p, round*10+p)
			m.OnEnter(p, round*10+p+1)
			m.OnExit(p, round*10+p+2)
		}
	}
	if len(m.Violations()) != 0 {
		t.Fatalf("sequential run reported violations: %v", m.Violations())
	}
	if m.TotalEntries() != 9 {
		t.Fatalf("total entries = %d, want 9", m.TotalEntries())
	}
	for p, e := range m.Entries() {
		if e != 3 {
			t.Errorf("process %d entries = %d, want 3", p, e)
		}
	}
}

func TestMonitorDetectsOverlap(t *testing.T) {
	m := NewMonitor(2)
	m.OnLockStart(0, 0)
	m.OnEnter(0, 1)
	m.OnLockStart(1, 2)
	m.OnEnter(1, 3) // violation: 0 still inside
	vs := m.Violations()
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1", len(vs))
	}
	v := vs[0]
	if v.Step != 3 || v.Entered != 1 || len(v.Inside) != 1 || v.Inside[0] != 0 {
		t.Fatalf("violation = %+v", v)
	}
	if !strings.Contains(v.String(), "p1") {
		t.Errorf("violation string %q", v.String())
	}
	if !m.AnyInside() {
		t.Error("AnyInside false while two inside")
	}
}

func TestMonitorExitWithoutEntryPanics(t *testing.T) {
	m := NewMonitor(1)
	defer func() {
		if recover() == nil {
			t.Error("exit without entry did not panic")
		}
	}()
	m.OnExit(0, 0)
}

func TestMonitorWaitAccounting(t *testing.T) {
	m := NewMonitor(2)
	m.OnLockStart(0, 10)
	m.OnEnter(0, 25) // wait 15
	m.OnExit(0, 30)
	m.OnLockStart(0, 40)
	m.OnEnter(0, 45) // wait 5
	m.OnExit(0, 50)
	mw := m.MaxWait()
	if mw[0] != 15 {
		t.Errorf("max wait = %d, want 15", mw[0])
	}
	mean := m.MeanWait()
	if mean[0] != 10 {
		t.Errorf("mean wait = %v, want 10", mean[0])
	}
	if mean[1] != 0 {
		t.Errorf("idle process mean wait = %v, want 0", mean[1])
	}
}

func TestMonitorBypasses(t *testing.T) {
	m := NewMonitor(3)
	// p2 waits from step 0; p0 and p1 enter twice each before p2 gets in.
	m.OnLockStart(2, 0)
	for i := 0; i < 2; i++ {
		m.OnLockStart(0, 1)
		m.OnEnter(0, 2)
		m.OnExit(0, 3)
		m.OnLockStart(1, 4)
		m.OnEnter(1, 5)
		m.OnExit(1, 6)
	}
	m.OnEnter(2, 7)
	m.OnExit(2, 8)
	if got := m.Bypasses()[2]; got != 4 {
		t.Errorf("bypasses for p2 = %d, want 4", got)
	}
	// p0's waits never overlap another process's entry: no bypasses.
	if got := m.Bypasses()[0]; got != 0 {
		t.Errorf("bypasses for p0 = %d, want 0 (full: %v)", got, m.Bypasses())
	}
}

// TestMonitorMaxBypasses: the per-wait maximum counts one lock() at a
// time, while Bypasses sums them.
func TestMonitorMaxBypasses(t *testing.T) {
	m := NewMonitor(2)
	step := 0
	enterOthers := func(k int) {
		for ; k > 0; k-- {
			m.OnLockStart(0, step)
			m.OnEnter(0, step+1)
			m.OnExit(0, step+2)
			step += 3
		}
	}
	for _, k := range []int{3, 1} {
		m.OnLockStart(1, step)
		enterOthers(k)
		m.OnEnter(1, step)
		m.OnExit(1, step+1)
		step += 2
	}
	if got := m.Bypasses()[1]; got != 4 {
		t.Errorf("bypasses for p1 = %d, want 4", got)
	}
	if got := m.MaxBypasses(); got[1] != 3 || got[0] != 0 {
		t.Errorf("max bypasses = %v, want [0 3]", got)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvLockStart, EvOp, EvEnterCS, EvUnlockStart, EvUnlockDone, EventKind(77)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
}
