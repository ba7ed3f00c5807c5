package scenario

import (
	"strings"
	"testing"

	"anonmutex"
)

// TestNormalizeErrorsAreDescriptive pins the contract the harnesses rely
// on: a bad spec fails with an error that names the offending value and
// never panics. Each case lists fragments the message must contain.
func TestNormalizeErrorsAreDescriptive(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want []string
	}{
		{"unknown algorithm", Spec{Algorithm: anonmutex.Greedy + 1, N: 2},
			[]string{"unknown algorithm", "Algorithm(4)"}},
		{"missing algorithm", Spec{N: 2},
			[]string{"algorithm is required", "rw", "rmw", "greedy"}},
		{"unknown schedule", Spec{Algorithm: anonmutex.RW, N: 2, M: 3, Schedule: "fifo"},
			[]string{"unknown schedule", "fifo"}},
		{"unknown perms", Spec{Algorithm: anonmutex.RW, N: 2, M: 3, Perms: "transposition"},
			[]string{"unknown perms", "transposition"}},
		{"negative rotation step", Spec{Algorithm: anonmutex.RW, N: 3, M: 5, Perms: PermsRotation, RotationStep: -1},
			[]string{"rotation_step -1"}},
		{"rotation step m", Spec{Algorithm: anonmutex.RW, N: 3, M: 5, Perms: PermsRotation, RotationStep: 5},
			[]string{"rotation_step 5", "m = 5"}},
		{"rotation step 2m", Spec{Algorithm: anonmutex.RW, N: 3, M: 5, Perms: PermsRotation, RotationStep: 10},
			[]string{"rotation_step 10", "m = 5"}},
		{"unknown workload", Spec{Algorithm: anonmutex.RW, N: 2, M: 3, Workload: "spiky"},
			[]string{"unknown workload", "spiky"}},
		{"illegal rw size", Spec{Algorithm: anonmutex.RW, N: 2, M: 4},
			[]string{"unchecked"}}, // must point at the escape hatch
		{"rw size below n", Spec{Algorithm: anonmutex.RW, N: 4, M: 3},
			[]string{"unchecked"}},
		{"illegal rmw size", Spec{Algorithm: anonmutex.RMW, N: 2, M: 4},
			[]string{"unchecked"}},
		{"no processes", Spec{Algorithm: anonmutex.RW, N: 0},
			[]string{"n >= 1", "0"}},
		{"negative m", Spec{Algorithm: anonmutex.RW, N: 2, M: -5},
			[]string{"m >= 1", "-5"}},
		{"greedy without m", Spec{Algorithm: anonmutex.Greedy, N: 2},
			[]string{"greedy", "explicit m"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Normalize panicked: %v", r)
					}
				}()
				_, err = tc.spec.Normalize()
			}()
			if err == nil {
				t.Fatalf("Normalize(%+v) accepted an invalid spec", tc.spec)
			}
			for _, frag := range tc.want {
				if !strings.Contains(err.Error(), frag) {
					t.Errorf("error %q does not mention %q", err, frag)
				}
			}
		})
	}
}

// TestIllegalSizesNeedUnchecked sweeps every illegal (n, m) pair in a
// small grid: with Unchecked unset, Normalize must reject each one
// descriptively, and with Unchecked set it must accept the same pair.
func TestIllegalSizesNeedUnchecked(t *testing.T) {
	for _, alg := range []anonmutex.Algorithm{anonmutex.RW, anonmutex.RMW} {
		for n := 2; n <= 4; n++ {
			for m := 1; m <= 8; m++ {
				spec := Spec{Algorithm: alg, N: n, M: m}
				_, err := spec.Normalize()
				legal := err == nil
				spec.Unchecked = true
				if _, uerr := spec.Normalize(); uerr != nil {
					t.Errorf("%s n=%d m=%d: unchecked spec rejected: %v", alg, n, m, uerr)
				}
				if legal {
					continue
				}
				if !strings.Contains(err.Error(), "scenario:") {
					t.Errorf("%s n=%d m=%d: error %q lacks the package prefix", alg, n, m, err)
				}
			}
		}
	}
}

// TestParseJSONErrors covers the decode-side error paths: syntax errors,
// unknown fields, and specs that parse but fail validation. Unknown
// workload names in JSON specs must fail loudly, never default to
// uniform.
func TestParseJSONErrors(t *testing.T) {
	cases := []struct {
		name, in string
		want     string
	}{
		{"syntax", `{"algorithm":`, "parsing spec"},
		{"unknown field", `{"algorithm":"rw","n":2,"registers":5}`, "registers"},
		{"invalid spec", `{"algorithm":"warp","n":2}`, "unknown algorithm"},
		{"wrong type", `{"algorithm":"rw","n":"two"}`, "parsing spec"},
		{"unknown workload name", `{"algorithm":"rw","n":2,"m":3,"workload":"pareto"}`, "unknown workload"},
		{"unknown traffic field", `{"algorithm":"rw","n":2,"m":3,"traffic":{"profile":"bursty"}}`, `unknown field "traffic"`},
		{"identity rotation", `{"algorithm":"rw","n":3,"m":5,"perms":"rotation","rotation_step":5}`, "rotation_step 5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseJSON([]byte(tc.in))
			if err == nil {
				t.Fatalf("ParseJSON(%q) succeeded", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
