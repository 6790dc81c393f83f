package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time in
// these units, and Linux fixes it at 100 for user space on every
// architecture Go supports.
const clockTick = 100

// procCPUSeconds returns the CPU time a process has used, user plus
// system. It sums the nanosecond on-CPU counters of the process's threads
// (/proc/<pid>/task/*/schedstat): a round of a few jobs burns only tens of
// 10 ms ticks, too coarse to divide per job. Where the kernel keeps no
// schedstat it falls back to utime+stime of /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	if files, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid)); len(files) > 0 {
		var ns uint64
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				continue // the thread exited between the listing and the read
			}
			if fields := strings.Fields(string(data)); len(fields) > 0 {
				if v, err := strconv.ParseUint(fields[0], 10, 64); err == nil {
					ns += v
				}
			}
		}
		if ns > 0 {
			return float64(ns) / 1e9, nil
		}
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after its ')'.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the command name", pid, len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unparsable CPU times %q %q", pid, f[11], f[12])
	}
	return float64(utime+stime) / clockTick, nil
}

// procField reads one "Name:   123 kB" line of /proc/<pid>/status (VmHWM,
// VmRSS) or one "name: 123" line of /proc/<pid>/io, returning the number.
func procField(pid int, file, name string) (float64, error) {
	path := fmt.Sprintf("/proc/%d/%s", pid, file)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, name+":"); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, name)
}

// procMiB reads a kB-valued /proc/<pid>/status field as MiB.
func procMiB(pid int, name string) (float64, error) {
	kb, err := procField(pid, "status", name)
	return kb / 1024, err
}

// fsTypeOf returns the filesystem type holding dir, from /proc/mounts
// (the longest mount point that prefixes the path wins).
func fsTypeOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fstype = len(mp), f[2]
		}
	}
	return fstype
}
