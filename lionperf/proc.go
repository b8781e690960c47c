package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// procUsage is one reading of a process's accounting in /proc.
type procUsage struct {
	CPUSeconds float64 // utime + stime
	PeakRSSMB  float64 // VmHWM
	Threads    int
}

// atClkTck is the auxv key carrying the kernel's clock-tick rate, the unit
// of the utime/stime fields of /proc/<pid>/stat.
const atClkTck = 17

// clockTicks returns the clock-tick rate from this process's auxiliary
// vector, falling back to the Linux default of 100 when it is unreadable.
func clockTicks() float64 {
	b, err := os.ReadFile("/proc/self/auxv")
	if err != nil {
		return 100
	}
	for len(b) >= 16 {
		key := binary.LittleEndian.Uint64(b)
		val := binary.LittleEndian.Uint64(b[8:])
		if key == atClkTck && val > 0 {
			return float64(val)
		}
		if key == 0 {
			break
		}
		b = b[16:]
	}
	return 100
}

var ticksPerSecond = clockTicks()

// parseStatCPU returns utime+stime in clock ticks from the contents of
// /proc/<pid>/stat. The command name is skipped by its closing parenthesis,
// since it may itself contain spaces or parentheses.
func parseStatCPU(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	// Fields after the command start at field 3 (state); utime and stime
	// are fields 14 and 15.
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return ut + st, nil
}

// parseStatus returns VmHWM in kB and the thread count from the contents
// of /proc/<pid>/status.
func parseStatus(status []byte) (hwmKB uint64, threads int, err error) {
	var haveHWM bool
	for _, line := range strings.Split(string(status), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		v = strings.TrimSpace(v)
		switch k {
		case "VmHWM":
			n, perr := strconv.ParseUint(strings.TrimSuffix(v, " kB"), 10, 64)
			if perr != nil {
				return 0, 0, fmt.Errorf("status VmHWM %q: %w", v, perr)
			}
			hwmKB, haveHWM = n, true
		case "Threads":
			n, perr := strconv.Atoi(v)
			if perr != nil {
				return 0, 0, fmt.Errorf("status Threads %q: %w", v, perr)
			}
			threads = n
		}
	}
	if !haveHWM {
		return 0, 0, fmt.Errorf("status: no VmHWM line")
	}
	return hwmKB, threads, nil
}

// readUsage reads the CPU time, peak RSS and thread count of one process;
// pid 0 means this process.
func readUsage(pid int) (procUsage, error) {
	dir := "/proc/self"
	if pid > 0 {
		dir = "/proc/" + strconv.Itoa(pid)
	}
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return procUsage{}, err
	}
	ticks, err := parseStatCPU(stat)
	if err != nil {
		return procUsage{}, err
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return procUsage{}, err
	}
	hwm, threads, err := parseStatus(status)
	if err != nil {
		return procUsage{}, err
	}
	return procUsage{
		CPUSeconds: float64(ticks) / ticksPerSecond,
		PeakRSSMB:  float64(hwm) / 1024,
		Threads:    threads,
	}, nil
}

// cpuOf sums the CPU seconds of several processes.
func cpuOf(pids []int) (float64, error) {
	var sum float64
	for _, pid := range pids {
		u, err := readUsage(pid)
		if err != nil {
			return 0, err
		}
		sum += u.CPUSeconds
	}
	return sum, nil
}

// resetPeakRSS restarts a process's VmHWM accounting from its current RSS,
// so the next reading is the peak since this call.
func resetPeakRSS(pid int) error {
	return os.WriteFile("/proc/"+strconv.Itoa(pid)+"/clear_refs", []byte("5"), 0)
}

// parseStealShare returns the busy-or-idle tick total and the steal ticks
// of the aggregate "cpu" line of /proc/stat. Steal is time the hypervisor
// ran something else while this machine's CPUs wanted to run.
func parseStealShare(stat []byte) (total, steal uint64, err error) {
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat field %d: %w", i+1, err)
		}
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// readSteal reads the machine's CPU tick total and steal ticks.
func readSteal() (total, steal uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseStealShare(b)
}
