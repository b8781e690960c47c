package stream

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/dataset"
	"github.com/rfid-lion/lion/internal/load"
	"github.com/rfid-lion/lion/internal/mat"
	"github.com/rfid-lion/lion/internal/obs"
	"github.com/rfid-lion/lion/internal/rf"
)

// updateGolden rewrites testdata/solve_golden.txt from the current solver:
//
//	go test ./internal/stream -run TestSolveWindowGolden -update-golden
//
// Regenerate only for a deliberate change of the solver's arithmetic; the
// file exists to prove that performance work leaves every bit in place.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/solve_golden.txt")

const goldenPath = "testdata/solve_golden.txt"

// goldenCase is one solver configuration the golden file covers: a load
// scenario's fleet streamed through SolveWindow at a fixed cadence.
type goldenCase struct {
	name     string
	scenario string
	solver   Solver
	smooth   int
	// every, window and min mirror liond's -every, -window and -min; every
	// tag index divisible by tagStride is recorded.
	every, window, min int
	tagStride          int
	perTag             int // samples streamed per tag
}

func goldenCases() []goldenCase {
	lambda := rf.DefaultBand().Wavelength()
	return []goldenCase{
		{
			// liond's shipped defaults: the line solver with one 0.2 m
			// interval behind a 9-sample smoother, 256-sample windows
			// solved every 16 samples once 8 have arrived.
			name: "portal-line", scenario: "portal",
			solver: Line2DSolver(lambda, []float64{0.2}, true, core.DefaultSolveOptions()),
			smooth: 9, every: 16, window: 256, min: 8,
			tagStride: 8, perTag: 400,
		},
		{
			// The 3-column free 2-D system (x, y, d_r) on turntable arcs.
			name: "turntable-free2d", scenario: "turntable",
			solver: Free2DSolver(lambda, 0, core.DefaultSolveOptions()),
			smooth: 9, every: 32, window: 256, min: 64,
			tagStride: 2, perTag: 320,
		},
	}
}

// goldenLine renders one solve as a line of exact bit patterns: the case,
// tag and window length, then either "err <message>" or the bits of
// Position (x y z), RefDistance, FinalResidual, ConditionEstimate, the
// three residual summaries, an FNV-64a digest of the bits of every residual
// and weight, and the iteration count.
func goldenLine(c string, tag string, n int, sol *core.Solution, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %d", c, tag, n)
	if err != nil {
		fmt.Fprintf(&b, " err %s", err)
		return b.String()
	}
	for _, v := range []float64{sol.Position.X, sol.Position.Y, sol.Position.Z, sol.RefDistance,
		sol.FinalResidual, sol.ConditionEstimate, sol.MeanResidual, sol.MeanAbsResidual, sol.RMSResidual} {
		b.WriteString(" " + strconv.FormatUint(math.Float64bits(v), 16))
	}
	h := fnv.New64a()
	var word [8]byte
	for _, vs := range [][]float64{sol.Residuals, sol.Weights} {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	fmt.Fprintf(&b, " rw%016x it%d", h.Sum64(), sol.Iterations)
	return b.String()
}

// irlsNorms renders the bits of every irls_iter residual norm in events.
func irlsNorms(events []obs.Event) string {
	var b strings.Builder
	for _, e := range events {
		if e.Kind == obs.KindIRLSIter {
			b.WriteString(" " + strconv.FormatUint(math.Float64bits(e.Residual), 16))
		}
	}
	return b.String()
}

// goldenWindows streams c's fleet tag by tag and returns every window the
// engine would solve for the recorded tags, with the tag's name.
func goldenWindows(t testing.TB, c goldenCase) (tags []string, wins [][]Sample) {
	t.Helper()
	sc, err := load.Lookup(c.scenario)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := load.BuildFleet(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	nt := fleet.Tags()
	buf := make([]dataset.TaggedSample, nt*c.perTag)
	fleet.Fill(buf, 0)
	for ti := 0; ti < nt; ti += c.tagStride {
		var win []Sample
		since := 0
		for k := 0; k < c.perTag; k++ {
			s := buf[k*nt+ti]
			win = append(win, FromSim(s.Sample()))
			if len(win) > c.window {
				win = win[1:]
			}
			since++
			if len(win) >= c.min && since >= c.every {
				since = 0
				tags = append(tags, s.Tag)
				wins = append(wins, append([]Sample(nil), win...))
			}
		}
	}
	return tags, wins
}

// TestSolveWindowGolden pins SolveWindow's results, bit for bit, on the
// windows liond solves with its defaults and on a 3-column free 2-D system.
// The golden file was recorded with the unfused IRWLS loop and the
// NewProfile/BuildSystem line route that the pooled fast path replaced.
// Each window is solved traced (which records the per-iteration residual
// norms) and untraced; both must equal the recorded bits.
func TestSolveWindowGolden(t *testing.T) {
	var got []string
	for _, c := range goldenCases() {
		tags, wins := goldenWindows(t, c)
		for i, win := range wins {
			tr := obs.NewTracer()
			sol, err := SolveWindow(win, c.smooth, c.solver, tr)
			line := goldenLine(c.name, tags[i], len(win), sol, err)
			plain, perr := SolveWindow(win, c.smooth, c.solver, nil)
			if p := goldenLine(c.name, tags[i], len(win), plain, perr); p != line {
				t.Errorf("untraced solve differs from traced\n untraced: %s\n   traced: %s", p, line)
			}
			got = append(got, line+irlsNorms(tr.Events()))
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d solves to %s", len(got), goldenPath)
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d solves, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("solve %d differs\n got: %s\nwant: %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d solves differ from %s", bad, len(got), goldenPath)
	}
}

// TestSolveWindowGoldenGenericKernels re-runs TestSolveWindowGolden in a child
// process under GODEBUG=cpu.avx2=off, where mat must choose its portable
// kernels (the child checks mat.Kernels), so the golden also pins the path
// that hosts without AVX2 take.
func TestSolveWindowGoldenGenericKernels(t *testing.T) {
	if want := os.Getenv("LION_WANT_KERNELS"); want != "" {
		if got := mat.Kernels(); got != want {
			t.Fatalf("mat.Kernels() = %q under GODEBUG=%q, want %q", got, os.Getenv("GODEBUG"), want)
		}
		return
	}
	if testing.Short() {
		t.Skip("starts a child process")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^(TestSolveWindowGolden|"+t.Name()+")$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.avx2=off", "LION_WANT_KERNELS=generic")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GODEBUG=cpu.avx2=off: %v\n%s", err, out)
	}
	for _, name := range []string{"TestSolveWindowGolden", t.Name()} {
		if !strings.Contains(string(out), "--- PASS: "+name+" ") {
			t.Fatalf("the child did not pass %s:\n%s", name, out)
		}
	}
}
