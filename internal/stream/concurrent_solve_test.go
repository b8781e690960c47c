package stream

import (
	"sync"
	"testing"

	"github.com/rfid-lion/lion/internal/core"
	"github.com/rfid-lion/lion/internal/geom"
	"github.com/rfid-lion/lion/internal/rf"
)

// TestConcurrentSolvesMatchSerial runs the pooled solve paths — SolveWindow
// with its pooled preprocessing and core.Locate2DLineIntervals with its
// pooled line session — from 8 goroutines at once on different windows.
// Every result must equal the serial one bit for bit; under -race (make
// check) the test also proves the pooled scratch is never shared.
func TestConcurrentSolvesMatchSerial(t *testing.T) {
	c := goldenCases()[0]
	tags, wins := goldenWindows(t, c)
	lambda := rf.DefaultBand().Wavelength()
	opts := core.DefaultSolveOptions()
	locate := func(win []Sample) (*core.Solution, error) {
		pos := make([]geom.Vec3, 0, len(win))
		ph := make([]float64, 0, len(win))
		for _, s := range win {
			pos = append(pos, s.Pos)
			ph = append(ph, s.Phase)
		}
		obs, err := core.Preprocess(pos, ph, c.smooth)
		if err != nil {
			return nil, err
		}
		return core.Locate2DLineIntervals(obs, lambda, []float64{0.2}, true, opts)
	}
	type result struct{ window, line string }
	solveBoth := func(i int) result {
		sol, err := SolveWindow(wins[i], c.smooth, c.solver, nil)
		lsol, lerr := locate(wins[i])
		return result{
			window: goldenLine(c.name, tags[i], len(wins[i]), sol, err),
			line:   goldenLine(c.name, tags[i], len(wins[i]), lsol, lerr),
		}
	}
	serial := make([]result, len(wins))
	for i := range wins {
		serial[i] = solveBoth(i)
		if serial[i].window != serial[i].line {
			t.Fatalf("window %d: SolveWindow %s, Locate2DLineIntervals %s", i, serial[i].window, serial[i].line)
		}
	}

	const workers, rounds = 8, 2
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := g; i < len(wins); i += workers {
					if got := solveBoth(i); got != serial[i] {
						errs <- "concurrent " + got.window + " / " + got.line + ", serial " + serial[i].window
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSolveWindowAllocs pins the allocation count of liond's default window
// solve: the fresh Solution and its Residuals, Weights and RefDistances
// slices. Preprocessing, the line system, the IRWLS scratch and the median
// recovery all come from pools.
func TestSolveWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	c := goldenCases()[0]
	_, wins := goldenWindows(t, c)
	win := wins[len(wins)-1]
	if _, err := SolveWindow(win, c.smooth, c.solver, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := SolveWindow(win, c.smooth, c.solver, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("SolveWindow allocates %.1f times per solve, want at most 4", allocs)
	}
}
