package experiments

import (
	"strings"
	"testing"

	"anonmutex/internal/scenario"
)

func TestAllHaveDistinctIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 11 {
		t.Fatalf("expected 11 experiments (T1…S1), have %d", len(seen))
	}
}

func TestScenarioSuite(t *testing.T) {
	tbl, err := ScenarioSuite()
	if err != nil {
		t.Fatal(err)
	}
	simRows, realRows := 0, 0
	for _, row := range tbl.Rows {
		switch row[1] {
		case "sim":
			simRows++
		case "real":
			realRows++
		default:
			t.Errorf("unknown substrate in row %v", row)
		}
		if row[7] != "0" {
			t.Errorf("ME violations in row %v", row)
		}
		if row[5] == "step bound" {
			t.Errorf("scenario hit the step bound: %v", row)
		}
	}
	if simRows == 0 || realRows == 0 {
		t.Fatalf("expected rows on both substrates, got sim=%d real=%d", simRows, realRows)
	}
	// Every registered scenario contributes a sim row.
	if simRows != len(scenario.Names()) {
		t.Errorf("%d sim rows for %d scenarios", simRows, len(scenario.Names()))
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("T1")
	if err != nil || e.ID != "T1" {
		t.Fatalf("ByID(T1) = %+v, %v", e, err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	tbl, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	// The three correspondence rows of the paper's Table I (whitespace
	// normalized: column padding is presentation detail).
	norm := strings.Join(strings.Fields(out), " ")
	for _, want := range []string{"R[1] R[2] R[3]", "R[2] R[3] R[1]", "R[3] R[1] R[2]"} {
		if !strings.Contains(norm, want) {
			t.Errorf("Table I output missing row %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "2, 3, 1") || !strings.Contains(out, "3, 1, 2") {
		t.Errorf("Table I missing permutation row:\n%s", out)
	}
}

func TestFigure1Properties(t *testing.T) {
	tbl, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if strings.Contains(out, "false") {
		t.Errorf("a Figure 1 run did not complete:\n%s", out)
	}
	// Every row's ME-violations column must be 0 and the exhaustive note
	// must confirm 0/0.
	if !strings.Contains(out, "ME violations 0, progress traps 0") {
		t.Errorf("model-check note missing or failing:\n%s", out)
	}
	for _, row := range tbl.Rows {
		if row[4] != "0" {
			t.Errorf("ME violations in row %v", row)
		}
	}
}

func TestFigure2Properties(t *testing.T) {
	tbl, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[4] != "0" {
			t.Errorf("ME violations in row %v", row)
		}
		if row[8] != "true" {
			t.Errorf("incomplete run in row %v", row)
		}
	}
}

func TestTableIIAllHold(t *testing.T) {
	tbl, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("Table II has %d rows, want 4", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[3] != "HOLDS" {
			t.Errorf("condition not verified: %v", row)
		}
	}
}

func TestTheorem5Boundary(t *testing.T) {
	tbl, err := Theorem5()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		inM := row[1] == "true"
		outcome := row[4]
		if inM && outcome != "entry" {
			t.Errorf("m=%s ∈ M(n) but outcome %s", row[0], outcome)
		}
		if !inM && outcome != "livelock" {
			t.Errorf("m=%s ∉ M(n) but outcome %s", row[0], outcome)
		}
		if row[6] != "true" {
			t.Errorf("symmetry violated in row %v", row)
		}
		if !inM && !strings.Contains(row[7], "simultaneous-entry") {
			t.Errorf("strawman did not enter simultaneously on m=%s: %v", row[0], row)
		}
	}
}

func TestEntryCostShape(t *testing.T) {
	tbl, err := EntryCost()
	if err != nil {
		t.Fatal(err)
	}
	// RW rows must own all m; RMW rows a strict majority below m (for the
	// sizes used, majority < m).
	for _, row := range tbl.Rows {
		if row[2] == "RW" && row[3] != row[1] {
			t.Errorf("RW entry owned %s of m=%s", row[3], row[1])
		}
	}
}

func TestRemainingExperimentsRun(t *testing.T) {
	for _, idStr := range []string{"E7", "E8", "E9", "E10"} {
		e, err := ByID(idStr)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", idStr, err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s produced no rows", idStr)
		}
	}
}

func TestAblationsFindTheWedge(t *testing.T) {
	tbl, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range tbl.Rows {
		if strings.Contains(row[0], "tie-break=never") {
			found = true
			if !strings.Contains(row[2], "LIVELOCK") {
				t.Errorf("tie-break ablation outcome %q, want livelock", row[2])
			}
		}
	}
	if !found {
		t.Fatal("tie-break ablation row missing")
	}
}

func TestPermInvarianceAllComplete(t *testing.T) {
	tbl, err := PermInvariance()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[1] != "true" || row[2] != "0" {
			t.Errorf("adversary broke the run: %v", row)
		}
	}
}
