package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rfid-lion/lion/internal/benchfmt"
)

// TestRunJSONSnapshot drives the -json mode end to end: the file decodes,
// carries the frozen schema tag, and every suite benchmark reports sane
// numbers. Skipped under -short — the suite runs each benchmark for the full
// testing.Benchmark second.
func TestRunJSONSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark suite is slow")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var out strings.Builder
	if err := run([]string{"-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "Fig. 2") {
		t.Error("-json must skip the experiment tables")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap benchfmt.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	if snap.Schema != "lionbench/1" || snap.GoVersion == "" || snap.MaxProcs != 1 {
		t.Errorf("snapshot header = %+v", snap)
	}
	if len(snap.Benchmarks) != len(benchSuite()) {
		t.Fatalf("%d benchmarks, want %d", len(snap.Benchmarks), len(benchSuite()))
	}
	seen := map[string]bool{}
	for _, b := range snap.Benchmarks {
		if b.Name == "" || b.Iterations <= 0 || b.NsPerOp <= 0 || b.AllocsPerOp < 0 {
			t.Errorf("implausible result %+v", b)
		}
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
	}
	// The nil-monitor path must stay allocation-free — the same contract
	// TestNilMonitorZeroOverhead pins, visible in the committed trajectory.
	for _, b := range snap.Benchmarks {
		if b.Name == "health_observe_solve_nil" && b.AllocsPerOp != 0 {
			t.Errorf("nil monitor allocates %d/op in snapshot", b.AllocsPerOp)
		}
	}
}
