package workload

import (
	"reflect"
	"testing"
)

func TestSpecPlanValidation(t *testing.T) {
	if _, err := SpecPlan(Spec{}, 0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := SpecPlan(Spec{}, 1, 0); err == nil {
		t.Error("sessions=0 accepted")
	}
	if _, err := SpecPlan(Spec{BaseCS: -1}, 1, 1); err == nil {
		t.Error("negative BaseCS accepted")
	}
}

// A parseable but unknown profile value fails loudly instead of falling
// back to uniform.
func TestSpecPlanRejectsUnknownProfileValue(t *testing.T) {
	if _, err := SpecPlan(Spec{Profile: Profile(9).String()}, 2, 2); err == nil {
		t.Error("unknown profile value accepted")
	}
}

func TestSpecPlanShape(t *testing.T) {
	plan, err := SpecPlan(Spec{BaseCS: 5, BaseRemainder: 10, Seed: 1}, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 {
		t.Fatalf("plan for %d processes", len(plan))
	}
	total := 0
	for i, ps := range plan {
		if len(ps) != 4 {
			t.Fatalf("process %d has %d sessions", i, len(ps))
		}
		for _, s := range ps {
			if s.CSWork <= 0 || s.RemainderWork <= 0 {
				t.Fatalf("non-positive workload %+v", s)
			}
		}
		total += len(ps)
	}
	if total != 12 {
		t.Fatalf("%d sessions in total, want 12", total)
	}
}

func TestSpecPlanDeterministic(t *testing.T) {
	for _, profile := range []Profile{Uniform, Bursty, Skewed} {
		spec := Spec{Profile: profile.String(), BaseCS: 5, BaseRemainder: 10, Seed: 42}
		a, err := SpecPlan(spec, 4, 6)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SpecPlan(spec, 4, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("profile %v not deterministic", profile)
		}
	}
}

func TestUniformIsConstant(t *testing.T) {
	plan, err := SpecPlan(Spec{Profile: "uniform", BaseCS: 7, BaseRemainder: 9, Seed: 3}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range plan {
		for _, s := range ps {
			if s.CSWork != 7 || s.RemainderWork != 9 {
				t.Fatalf("uniform session %+v", s)
			}
		}
	}
}

func TestSkewedFavorsProcessZero(t *testing.T) {
	plan, err := SpecPlan(Spec{Profile: "skewed", BaseCS: 5, BaseRemainder: 10, Seed: 5}, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	think0, think1 := 0, 0
	for _, s := range plan[0] {
		think0 += s.RemainderWork
	}
	for _, s := range plan[1] {
		think1 += s.RemainderWork
	}
	if think0 >= think1 {
		t.Fatalf("skewed profile: process 0 thinks %d, process 1 thinks %d", think0, think1)
	}
}

func TestBurstyVariance(t *testing.T) {
	plan, err := SpecPlan(Spec{Profile: "bursty", BaseCS: 5, BaseRemainder: 10, Seed: 9}, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	short, long := 0, 0
	for _, s := range plan[0] {
		if s.RemainderWork <= 1 {
			short++
		} else {
			long++
		}
	}
	if short == 0 || long == 0 {
		t.Fatalf("bursty profile produced no mix (short=%d long=%d)", short, long)
	}
}

func TestSpinReturnsAndScales(t *testing.T) {
	if Spin(10) == 0 {
		t.Error("Spin returned 0")
	}
	if Spin(0) == 0 {
		t.Error("Spin(0) returned 0 (accumulator must be nonzero)")
	}
}

func TestProfileStrings(t *testing.T) {
	for _, p := range []Profile{Uniform, Bursty, Skewed, Profile(9)} {
		if p.String() == "" {
			t.Errorf("empty name for %d", p)
		}
	}
}
