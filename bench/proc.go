package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The per-layer counters are taken from outside the measured process:
// /proc/<pid>/stat for CPU, /proc/<pid>/io for syscalls and bytes,
// /proc/<pid>/status for peak memory and /proc/<pid>/task/*/status for
// context switches. Nothing here costs the server anything.

// clockTick is USER_HZ, which Linux fixes at 100 for every /proc reader.
const clockTick = 100

// procSnap is one reading of a process's counters.
type procSnap struct {
	utimeUs, stimeUs      uint64 // CPU time, µs
	readSys, writeSys     uint64 // read- and write-class syscalls
	readBytes, writeBytes uint64 // bytes through those syscalls
	volCtx                uint64 // voluntary context switches, all threads
	hwmKB                 uint64 // peak resident set
}

func (s procSnap) cpuUs() uint64 { return s.utimeUs + s.stimeUs }

// parseProcStat extracts user and system CPU time from /proc/<pid>/stat.
// The command name may hold spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStat(text string) (utimeUs, stimeUs uint64, err error) {
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return ut * (1e6 / clockTick), st * (1e6 / clockTick), nil
}

// parseProcField finds "key:" at the start of a line of a /proc key-value
// file (io, status) and returns the number after it; a trailing unit such
// as "kB" is ignored.
func parseProcField(text, key string) (uint64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc field %s: %w", key, err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("proc field %s: not found", key)
}

// readProc snapshots process pid.
func readProc(pid int) (procSnap, error) {
	var s procSnap
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	if s.utimeUs, s.stimeUs, err = parseProcStat(string(stat)); err != nil {
		return s, err
	}
	io, err := os.ReadFile(filepath.Join(dir, "io"))
	if err != nil {
		return s, err
	}
	for key, dst := range map[string]*uint64{
		"syscr": &s.readSys, "syscw": &s.writeSys, "rchar": &s.readBytes, "wchar": &s.writeBytes,
	} {
		if *dst, err = parseProcField(string(io), key); err != nil {
			return s, err
		}
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	if s.hwmKB, err = parseProcField(string(status), "VmHWM"); err != nil {
		return s, err
	}
	tasks, err := filepath.Glob(filepath.Join(dir, "task", "*", "status"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		v, err := parseProcField(string(b), "voluntary_ctxt_switches")
		if err != nil {
			return s, err
		}
		s.volCtx += v
	}
	return s, nil
}

// readCPU is the cheap part of readProc, taken at every slice boundary.
func readCPU(pid int) (uint64, error) {
	stat, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	ut, st, err := parseProcStat(string(stat))
	return ut + st, err
}

// kernelRelease reports the running kernel, for the result's provenance.
func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
