package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Crash containment: every network workload runs against its own
// anonlockd child process and the inproc workload in a re-exec'd worker
// of this binary, so a panic in the code under test takes down one
// workload's process and leaves the benchmark to report it.

// tailBuf keeps the last tailMax bytes written to it: the part of a dead
// child's output that holds the panic.
type tailBuf struct {
	mu  sync.Mutex
	buf []byte
}

const tailMax = 4096

func (t *tailBuf) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailMax {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailMax:]...)
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuf) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// child is a running process of the code under test.
type child struct {
	cmd    *exec.Cmd
	out    *os.File      // read end of its standard output
	stdout *bufio.Reader // over out
	stdin  io.WriteCloser
	tail   tailBuf
	done   chan struct{} // closed once the process has been waited for
	err    error         // its exit status, valid after done
}

// spawn starts bin with args and waits for it in the background.
// Standard error goes to the tail buffer; standard output is a pipe the
// caller reads through c.stdout, which outlives the process so nothing
// it printed before dying is lost.
func spawn(bin string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	// A benchmark that is killed must not leave its servers behind.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.Stderr = &c.tail
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer w.Close()
	c.cmd.Stdout = w
	c.out, c.stdout = r, bufio.NewReader(r)
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		r.Close()
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		r.Close()
		return nil, err
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// exited reports whether the process has ended.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop ends the process: standard input closed and SIGTERM, then SIGKILL
// after grace. It returns only once the process has been waited for.
func (c *child) stop(grace time.Duration) {
	c.stdin.Close()
	if !c.exited() {
		c.cmd.Process.Signal(syscall.SIGTERM)
	}
	select {
	case <-c.done:
	case <-time.After(grace):
		c.cmd.Process.Kill()
		<-c.done
	}
	c.out.Close()
}

// startLockd spawns an anonlockd on a free loopback port and returns once
// it has announced its address. Its later output lands in the tail.
func startLockd(bin string, args ...string) (*child, string, error) {
	c, err := spawn(bin, append([]string{"-addr", "127.0.0.1:0", "-drain", "1s"}, args...)...)
	if err != nil {
		return nil, "", err
	}
	const marker = "serving on "
	var addr string
	for addr == "" {
		line, err := c.stdout.ReadString('\n')
		if i := strings.Index(line, marker); i >= 0 {
			addr = strings.Fields(line[i+len(marker):])[0]
			break
		}
		if err != nil {
			c.stop(time.Second)
			return nil, "", fmt.Errorf("anonlockd ended before serving: %v\n%s", c.err, c.tail.String())
		}
	}
	go io.Copy(&c.tail, c.stdout) // ends when stop closes the pipe
	return c, addr, nil
}

// buildLockd compiles ./cmd/anonlockd from repoRoot into dir, once per
// invocation, so every run measures the checkout's current source.
func buildLockd(repoRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "anonlockd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/anonlockd")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building anonlockd: %v\n%s", err, out)
	}
	return bin, nil
}

// findRepoRoot walks up from the working directory to the directory
// holding the repository's go.mod (module anonmutex).
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module anonmutex\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the anonmutex repository (no go.mod with module anonmutex above the working directory)")
		}
		dir = parent
	}
}
