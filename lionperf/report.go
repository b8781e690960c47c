package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// envStamp records where a result was measured.
type envStamp struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"nproc"`
	// GeneratorGOMAXPROCS is this process's; ServerGOMAXPROCS is what every
	// server process runs with: the inherited GOMAXPROCS variable, or the
	// runtime default of one per CPU.
	GeneratorGOMAXPROCS int    `json:"generator_gomaxprocs"`
	ServerGOMAXPROCS    int    `json:"server_gomaxprocs"`
	Commit              string `json:"commit"`
	// SourceSHA256 digests the Go sources and go.mod the servers were built
	// from, identifying the code where no git metadata is present.
	SourceSHA256 string `json:"source_sha256"`
}

func stamp() envStamp {
	e := envStamp{
		GoVersion:           runtime.Version(),
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		NumCPU:              runtime.NumCPU(),
		GeneratorGOMAXPROCS: runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS:    runtime.NumCPU(),
		Commit:              "unknown",
		SourceSHA256:        sourceDigest("."),
	}
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		e.ServerGOMAXPROCS = v
	}
	// Only a checkout that is itself a git work tree names its commit; a
	// plain copy of the sources relies on SourceSHA256.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	return e
}

// sourceDigest hashes go.mod and every .go file under cmd/ and internal/
// in path order. It returns "unknown" when the tree cannot be read.
func sourceDigest(root string) string {
	files := []string{filepath.Join(root, "go.mod")}
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			return "unknown"
		}
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeReport(runDir string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(runDir, "report.json"), b, 0o644)
}

// printReport writes the human-readable run summary.
func printReport(w io.Writer, rep *report) {
	e := rep.Env
	fmt.Fprintf(w, "lionperf %s seed=%d seconds=%d trace=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Fprintf(w, "env: %s %s/%s nproc=%d gomaxprocs generator=%d server=%d commit=%s source=%.12s\n",
		e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GeneratorGOMAXPROCS, e.ServerGOMAXPROCS, e.Commit, e.SourceSHA256)
	if len(rep.Steps) > 0 {
		fmt.Fprintf(w, "%-7s %9s %9s %6s %8s %8s %8s %8s %6s %6s %6s %6s %7s %6s %s\n",
			"step", "offered", "delivered", "posts", "p50_ms", "p99_ms", "age99", "lag99", "late", "load", "srvCPU", "genCPU", "us/smp", "steal", "verdict")
		for _, s := range rep.Steps {
			verdict := "fail"
			if s.Pass {
				verdict = "pass"
			}
			if s.GenBound {
				verdict += ",generator-bound"
			}
			fmt.Fprintf(w, "%-7s %9.0f %9.0f %6d %8.2f %8.2f %8.2f %8.2f %6.3f %6.2f %6.2f %6.2f %7.2f %6.3f %s\n",
				s.Name, s.Offered, s.Delivered, s.Posts, s.P50, s.P99, s.AgeP99, s.LagP99, s.Late, s.Load, s.SrvCPU, s.GenCPU, s.CPUUS, s.Steal, verdict)
		}
	}
	printMetrics(w, "metrics:", rep.Metrics)
	printMetrics(w, "reported, not in the result line:", rep.Reported)
	if len(rep.SelfTime) > 0 {
		keys := make([]string, 0, len(rep.SelfTime))
		for k := range rep.SelfTime {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(w, "self time by span (s):")
		for _, k := range keys {
			fmt.Fprintf(w, "  %-30s %10.4f\n", k, rep.SelfTime[k])
		}
	}
	for _, p := range rep.Spans {
		fmt.Fprintln(w, "span dump:", p)
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	if len(ms) == 0 {
		return
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
