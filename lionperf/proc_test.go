package main

import (
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := []byte("4242 (lion d) (x)) S 1 4242 4242 0 -1 4194560 1200 0 0 0 " +
		"731 269 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615\n")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1000 {
		t.Fatalf("utime+stime = %d ticks, want 1000", got)
	}
	if _, err := parseStatCPU([]byte("12 (short) S 1 2")); err == nil {
		t.Fatal("truncated stat parsed without error")
	}
	if _, err := parseStatCPU([]byte("no command field")); err == nil {
		t.Fatal("stat without a command field parsed without error")
	}
}

func TestParseStatus(t *testing.T) {
	status := []byte("Name:\tliond\nVmPeak:\t  812340 kB\nVmHWM:\t   20480 kB\n" +
		"VmRSS:\t   18000 kB\nThreads:\t9\n")
	hwm, threads, err := parseStatus(status)
	if err != nil {
		t.Fatal(err)
	}
	if hwm != 20480 || threads != 9 {
		t.Fatalf("got VmHWM %d kB, %d threads; want 20480 kB, 9", hwm, threads)
	}
	if _, _, err := parseStatus([]byte("Name:\tx\nThreads:\t1\n")); err == nil {
		t.Fatal("status without VmHWM parsed without error")
	}
}

// TestReadUsageSelf checks the live reader against this process: CPU time
// must grow while the process spins, and the peak RSS must be positive.
func TestReadUsageSelf(t *testing.T) {
	before, err := readUsage(0)
	if err != nil {
		t.Fatal(err)
	}
	if before.PeakRSSMB <= 0 || before.Threads < 1 {
		t.Fatalf("implausible usage %+v", before)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	after, err := readUsage(0)
	if err != nil {
		t.Fatal(err)
	}
	if d := after.CPUSeconds - before.CPUSeconds; d < 0.1 {
		t.Fatalf("CPU grew by %.3f s over a 0.3 s spin (x=%d)", d, x)
	}
	if ticksPerSecond <= 0 {
		t.Fatalf("clock ticks %v", ticksPerSecond)
	}
}

func TestParseStealShare(t *testing.T) {
	stat := []byte("cpu  100 5 20 800 10 0 5 60 0 0\ncpu0 50 2 10 400 5 0 2 30 0 0\n")
	total, steal, err := parseStealShare(stat)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1000 || steal != 60 {
		t.Fatalf("got total %d steal %d, want 1000 and 60", total, steal)
	}
	if _, _, err := parseStealShare([]byte("intr 1 2 3\n")); err == nil {
		t.Fatal("stat without a cpu line parsed without error")
	}
}
