package examples

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesBuildAndRun builds every example against the current API
// and runs it: each one checks its own result and exits nonzero when the
// lock misbehaves, so exit 0 plus the expected closing line is the smoke.
func TestExamplesBuildAndRun(t *testing.T) {
	examples := []struct {
		name string
		want string // a line the example prints only on success
	}{
		{"quickstart", "mutual exclusion held"},
		{"lockstep", "boundary matches the paper exactly"},
		{"epigenetics", "every modification batch was atomic"},
	}
	bin := t.TempDir() // an existing directory: go build -o writes every binary into it
	build := []string{"build", "-o", bin}
	for _, ex := range examples {
		build = append(build, "./"+ex.name)
	}
	if out, err := exec.Command("go", build...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(build, " "), err, out)
	}
	for _, ex := range examples {
		t.Run(ex.name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, ex.name)).CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if !strings.Contains(string(out), ex.want) {
				t.Errorf("output lacks %q:\n%s", ex.want, out)
			}
		})
	}
}
