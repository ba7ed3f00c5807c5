package anonmutex_test

// Structural pins: which package may link which, which file may call
// which function, and a workflow file that stays parseable. Each names
// the design decision it holds in place, so a change that undoes one
// fails here, in tier-1, rather than in review.

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDependencyPins: the client library never links the server; the
// daemon links none of the research harness — the algorithm it serves is
// an anonmutex.Algorithm, even though that type also names the strawman;
// and the load generator drives only lock-service sessions, so it links
// neither the lock manager nor the lease layer behind the server.
func TestDependencyPins(t *testing.T) {
	for _, pin := range []struct {
		pkg       string
		forbidden []string
	}{
		{"./lockd/client", []string{"anonmutex/lockd"}},
		{"./cmd/anonlockd", []string{
			"anonmutex/internal/scenario", "anonmutex/internal/workload", "anonmutex/internal/sched",
			"anonmutex/internal/explore", "anonmutex/internal/lowerbound", "anonmutex/internal/strawman",
		}},
		{"./internal/loadgen", []string{"anonmutex/internal/lockmgr", "anonmutex/internal/lease"}},
	} {
		cmd := exec.Command("go", "list", "-deps", pin.pkg)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil { // an import cycle lands here: lockd links lockd/client
			t.Fatalf("go list -deps %s: %v\n%s", pin.pkg, err, &stderr)
		}
		deps := strings.Fields(string(out))
		for _, f := range pin.forbidden {
			if slices.Contains(deps, f) {
				t.Errorf("%s links %s", pin.pkg, f)
			}
		}
	}
}

// TestLockdCallSitePins: one binary frame reader on each side of the
// wire; one connection loop — the only file that decodes JSON request
// lines and runs ops inline, and one that starts no anonymous goroutine;
// and one client engine — the only file that decodes responses, in
// either framing.
func TestLockdCallSitePins(t *testing.T) {
	calls := map[string][]string{} // callee → files calling it
	goFuncLit := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("lockd", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if _, ok := n.Call.Fun.(*ast.FuncLit); ok {
					goFuncLit[path] = true
				}
			case *ast.CallExpr:
				if name := callee(n); name != "" && !slices.Contains(calls[name], path) {
					calls[name] = append(calls[name], path)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for fn, want := range map[string][]string{
		"wire.ReadFrame":         {"lockd/binproto.go", "lockd/client/mux.go"},
		"wire.DecodeRequest":     {"lockd/transport.go"},
		"wire.DecodeResponse":    {"lockd/client/mux.go"},
		"wire.DecodeResponseBin": {"lockd/client/mux.go"},
		"handleInline":           {"lockd/transport.go"},
	} {
		got := slices.Sorted(slices.Values(calls[fn]))
		if !slices.Equal(got, want) {
			t.Errorf("%s( is called in %v, want exactly %v", fn, got, want)
		}
	}
	if goFuncLit["lockd/transport.go"] {
		t.Error("lockd/transport.go starts an anonymous goroutine: a second session loop")
	}
}

// TestExecutorPins: two executors turn a machine's pending op into a
// memory access — engine.Exec, which both substrates and the simulator
// share, and the model checker's, whose memory is a value copy per
// state. Any other switch with a `case core.OpSnapshot` is a third.
func TestExecutorPins(t *testing.T) {
	var got []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir // bench/ is its own module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		ast.Inspect(f, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, e := range cc.List {
				if sel, ok := e.(*ast.SelectorExpr); ok && sel.Sel.Name == "OpSnapshot" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "core" {
						got = append(got, path)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got = slices.Compact(slices.Sorted(slices.Values(got)))
	if want := []string{"internal/engine/engine.go", "internal/explore/explore.go"}; !slices.Equal(got, want) {
		t.Errorf("switches on core.OpSnapshot in %v, want exactly %v", got, want)
	}
}

// callee names a call as the pins spell it: "wire.X" for the wire
// package's functions, the bare method or function name otherwise.
func callee(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok && x.Name == "wire" {
			return "wire." + fn.Sel.Name
		}
		return fn.Sel.Name
	}
	return ""
}

func workflowFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(".github", "workflows", "*.y*ml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no workflow files (%v)", err)
	}
	return files
}

// TestWorkflowIsGoTest: every CI check is a go test a developer can run
// as it is, so a workflow carries no inline scripts that need a
// language of their own, no sleeps standing in for readiness, and no
// fixed ports — servers bind :0 and tests read the address back.
func TestWorkflowIsGoTest(t *testing.T) {
	banned := map[string]*regexp.Regexp{
		"python3":    regexp.MustCompile(`python3`),
		"sleep":      regexp.MustCompile(`\bsleep\b`),
		"fixed port": regexp.MustCompile(`127\.0\.0\.1:(?:[1-9]|0\d)`),
	}
	for _, path := range workflowFiles(t) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for line, text := range strings.Split(string(b), "\n") {
			for what, re := range banned {
				if re.MatchString(text) {
					t.Errorf("%s:%d: %s: %s", path, line+1, what, strings.TrimSpace(text))
				}
			}
		}
	}
}

// TestWorkflowStepNamesQuoted: a plain YAML scalar cannot contain ": ",
// so a step name with one makes the whole workflow unparseable and CI
// silently stops running. The standard library has no YAML parser; this
// is the one rule that has broken the workflow here.
func TestWorkflowStepNamesQuoted(t *testing.T) {
	name := regexp.MustCompile(`^\s*(?:-\s+)?name:\s+(.*)$`)
	for _, path := range workflowFiles(t) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for line := 1; sc.Scan(); line++ {
			m := name.FindStringSubmatch(sc.Text())
			if m == nil || strings.HasPrefix(m[1], `"`) || strings.HasPrefix(m[1], `'`) {
				continue
			}
			if strings.Contains(m[1], ": ") || strings.HasSuffix(m[1], ":") {
				t.Errorf("%s:%d: unquoted %q in a name — quote the value", path, line, ": ")
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
}
