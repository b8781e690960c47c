package core_test

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

	"github.com/rfid-lion/lion/internal/calib"
	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/mat"
	"github.com/rfid-lion/lion/internal/rf"
	"github.com/rfid-lion/lion/internal/sim"
	"github.com/rfid-lion/lion/internal/traject"
)

// updateGolden rewrites testdata/scan_golden.txt from the current
// solvers:
//
//	go test ./internal/core -run TestScanSolversGolden -update-golden
//
// Regenerate only for a deliberate change of the solvers' arithmetic; the
// file exists to prove that refactoring leaves every bit in place.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/scan_golden.txt")

const scanGoldenPath = "testdata/scan_golden.txt"

// scanGoldenTrials is the number of simulated scans per geometry.
const scanGoldenTrials = 4

// scanGoldenLine renders one solve in the format of
// internal/stream/testdata/solve_golden.txt: the case, trial and
// observation count, then either "err <message>" or the bits of Position
// (x y z), RefDistance, FinalResidual, ConditionEstimate, the three
// residual summaries, an FNV-64a digest of the bits of every residual and
// weight, and the iteration count.
func scanGoldenLine(c string, trial, n int, sol *core.Solution, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d %d", c, trial, n)
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

// scanPositionLine renders a position-only result (calib.LocateScan) as the
// bits of x, y and z.
func scanPositionLine(c string, trial, n int, p geom.Vec3, err error) string {
	if err != nil {
		return fmt.Sprintf("%s %d %d err %s", c, trial, n, err)
	}
	return fmt.Sprintf("%s %d %d %x %x %x", c, trial, n,
		math.Float64bits(p.X), math.Float64bits(p.Y), math.Float64bits(p.Z))
}

// simScan is one preprocessed simulated scan with its segment labels.
type simScan struct {
	obs    []core.PosPhase
	labels []int
}

// scanOf runs one noisy reader pass of trj past an antenna at center and
// preprocesses it with a 9-sample smoother.
func scanOf(t *testing.T, center geom.Vec3, trj traject.Trajectory, seed int64) simScan {
	t.Helper()
	env, err := sim.NewEnvironment()
	if err != nil {
		t.Fatal(err)
	}
	reader, err := sim.NewReader(env, sim.ReaderConfig{RateHz: 100, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ant := &sim.Antenna{ID: "A", PhysicalCenter: center, PhaseOffset: 1.1}
	samples, err := reader.Scan(ant, &sim.Tag{ID: "T", PhaseOffset: 0.4}, trj)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := core.Preprocess(sim.Positions(samples), sim.Phases(samples), 9)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int, len(samples))
	for i, s := range samples {
		labels[i] = s.Segment
	}
	return simScan{obs: obs, labels: labels}
}

func (s simScan) segment(label int) []core.PosPhase {
	var out []core.PosPhase
	for i, l := range s.labels {
		if l == label {
			out = append(out, s.obs[i])
		}
	}
	return out
}

// scanGoldenLines solves every golden geometry and returns one line per
// solve.
func scanGoldenLines(t *testing.T) []string {
	lambda := rf.DefaultBand().Wavelength()
	solve := core.DefaultSolveOptions()
	var lines []string
	for trial := 0; trial < scanGoldenTrials; trial++ {
		seed := int64(101 + trial)
		jitter := geom.V3(0.01*float64(trial), -0.005*float64(trial), 0.004*float64(trial))

		// Turntable arcs: half, three-quarter and full turns on radii that
		// grow with the trial, both branches of the out-of-plane sign.
		radius := 0.1 + 0.05*float64(trial)
		arc, err := traject.NewCircularXY(geom.V3(0, 0, 0), radius, 0.1,
			0.7*float64(trial), 0.5+0.25*float64(trial%3))
		if err != nil {
			t.Fatal(err)
		}
		planar := scanOf(t, geom.V3(0, 0.7, 0.15).Add(jitter), arc, seed)
		pairs := core.StridePairs(len(planar.obs), len(planar.obs)/4)
		for _, pos := range []bool{true, false} {
			sol, err := core.Locate3DPlanar(planar.obs, lambda, pairs, pos, solve)
			lines = append(lines, scanGoldenLine(fmt.Sprintf("planar-%v", pos), trial, len(planar.obs), sol, err))
		}

		// The two-line planar scan (Fig. 14a) at the multi-interval and
		// the default single-interval settings.
		two, err := traject.NewTwoLineScan(-0.6, 0.6, 0.2, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		twoScan := scanOf(t, geom.V3(0, 0.8, 0.2).Add(jitter), two, seed)
		twoIn := core.TwoLineInput{L1: twoScan.segment(traject.LineL1), L2: twoScan.segment(traject.LineL2), Lambda: lambda}
		for i, opts := range []core.StructuredOptions{
			{ScanRange: 0.6, Intervals: []float64{0.2, 0.4, 0.55}, Solve: solve},
			core.DefaultStructuredOptions(),
		} {
			sol, err := core.LocateTwoLine(twoIn, true, opts)
			lines = append(lines, scanGoldenLine(fmt.Sprintf("twoline-%d", i), trial, len(twoScan.obs), sol, err))
		}

		// The three-line scan (Fig. 11) lioncal calibrates on.
		three, err := traject.NewThreeLineScan(traject.ThreeLineConfig{
			XMin: -0.6, XMax: 0.6, YSpacing: 0.2, ZSpacing: 0.2, Speed: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		threeScan := scanOf(t, geom.V3(0, 0.8, 0).Add(jitter), three, seed)
		threeIn := core.ThreeLineInput{
			L1: threeScan.segment(traject.LineL1), L2: threeScan.segment(traject.LineL2),
			L3: threeScan.segment(traject.LineL3), Lambda: lambda,
		}
		sol, err := core.LocateThreeLine(threeIn, core.DefaultStructuredOptions())
		lines = append(lines, scanGoldenLine("threeline", trial, len(threeScan.obs), sol, err))

		// A straight pass for the line mode.
		lin, err := traject.NewLinear(geom.V3(-0.6, 0, 0), geom.V3(0.6, 0, 0), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		lineScan := scanOf(t, geom.V3(0, 0.8, 0).Add(jitter), lin, seed)

		// calib.LocateScan in every mode, fixed-interval and adaptive.
		for _, m := range []struct {
			mode string
			scan simScan
		}{
			{"threeline", threeScan}, {"twoline", twoScan}, {"line", lineScan}, {"planar", planar},
		} {
			for _, adaptive := range []bool{false, true} {
				p, err := calib.LocateScan(m.mode, m.scan.obs, m.scan.labels, calib.ScanConfig{
					Lambda: lambda, Interval: 0.2, ScanRange: 0.8, Adaptive: adaptive, PositiveSide: true,
				})
				lines = append(lines, scanPositionLine(fmt.Sprintf("scan-%s-%v", m.mode, adaptive), trial, len(m.scan.obs), p, err))
			}
		}
	}
	return lines
}

// TestScanSolversGolden pins, bit for bit, the structured and planar
// solvers that the stream golden does not reach: Locate3DPlanar on
// turntable arcs, LocateTwoLine, LocateThreeLine, and calib.LocateScan in
// each mode, fixed-interval and adaptive.
func TestScanSolversGolden(t *testing.T) {
	got := scanGoldenLines(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(scanGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scanGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d solves to %s", len(got), scanGoldenPath)
		return
	}
	f, err := os.Open(scanGoldenPath)
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
		t.Fatalf("%d of %d solves differ from %s", bad, len(got), scanGoldenPath)
	}
}

// TestScanSolversGoldenGenericKernels re-runs TestScanSolversGolden in a child
// process under GODEBUG=cpu.avx2=off, where mat must choose its portable
// kernels (the child checks mat.Kernels), so the golden also pins the path
// that hosts without AVX2 take.
func TestScanSolversGoldenGenericKernels(t *testing.T) {
	if want := os.Getenv("LION_WANT_KERNELS"); want != "" {
		if got := mat.Kernels(); got != want {
			t.Fatalf("mat.Kernels() = %q under GODEBUG=%q, want %q", got, os.Getenv("GODEBUG"), want)
		}
		return
	}
	if testing.Short() {
		t.Skip("starts a child process")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^(TestScanSolversGolden|"+t.Name()+")$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.avx2=off", "LION_WANT_KERNELS=generic")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GODEBUG=cpu.avx2=off: %v\n%s", err, out)
	}
	for _, name := range []string{"TestScanSolversGolden", t.Name()} {
		if !strings.Contains(string(out), "--- PASS: "+name+" ") {
			t.Fatalf("the child did not pass %s:\n%s", name, out)
		}
	}
}
