package main

import (
	"context"
	"sync"
	"time"
)

// sink is where one serving leg's load goes: a live server over HTTP, or an
// in-process replay of the same layers. parent is the batch's root span id
// (0 when the leg is untraced).
type sink interface {
	send(b *batchPlan, batch int, parent uint64) (accepted int, err error)
	read(tag string) (estimateDoc, error)
}

type postRec struct {
	sent, acked time.Duration // since run start
	accepted    int
	failed      bool
}

type readRec struct {
	sent, done time.Duration
	doc        estimateDoc
	failed     bool
}

// cpuMark is a reading taken when the sender starts a step.
type cpuMark struct {
	wall   time.Duration
	server float64 // CPU seconds of every server process
	self   float64 // CPU seconds of this process
	rss    float64 // summed server peak RSS since the previous mark, MB
	ticks  uint64  // machine CPU ticks, all states
	steal  uint64  // machine CPU ticks stolen by the hypervisor
}

type driveResult struct {
	start time.Time
	posts []postRec
	reads []readRec
	marks []cpuMark // one per step, plus a final mark after the last ack
	err   error     // a /proc read failure
}

// drive runs the plan's schedule against a sink with one sender goroutine
// and one reader goroutine. Every send and read waits for its due time on
// the run clock and is timed from that due time, so a stall is charged to
// every request it delays. pids are the server processes whose CPU is
// sampled at each step boundary (none for an in-process leg).
func drive(ctx context.Context, p *plan, s sink, pids []int, tr *tracer) *driveResult {
	res := &driveResult{
		posts: make([]postRec, len(p.batches)),
		reads: make([]readRec, len(p.reads)),
	}
	mark := func(at time.Duration) {
		m := cpuMark{wall: at}
		var err error
		for _, pid := range pids {
			var u procUsage
			if u, err = readUsage(pid); err == nil {
				err = resetPeakRSS(pid)
			}
			if err != nil {
				break
			}
			m.server += u.CPUSeconds
			m.rss += u.PeakRSSMB
		}
		if err == nil {
			m.self, err = cpuOf([]int{0})
		}
		if err == nil {
			m.ticks, m.steal, err = readSteal()
		}
		if err != nil && res.err == nil {
			res.err = err
		}
		res.marks = append(res.marks, m)
	}
	res.start = time.Now()
	if tr != nil {
		tr.start = res.start
	}
	start := res.start
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		step := -1
		for i := range p.batches {
			b := &p.batches[i]
			due := start.Add(b.due)
			sleepUntil(ctx, due)
			if ctx.Err() != nil {
				return
			}
			if b.step != step {
				step = b.step
				mark(time.Since(start))
			}
			id := tr.newID()
			sent := time.Now()
			acc, err := s.send(b, i, id)
			acked := time.Now()
			res.posts[i] = postRec{
				sent: sent.Sub(start), acked: acked.Sub(start),
				accepted: acc, failed: err != nil || acc != b.n,
			}
			tr.span(id, i, "load.lag", due, sent)
			tr.root(id, i, "batch", due, acked)
		}
		mark(time.Since(start))
	}()
	go func() {
		defer wg.Done()
		for i := range p.reads {
			r := &p.reads[i]
			sleepUntil(ctx, start.Add(r.due))
			if ctx.Err() != nil {
				return
			}
			sent := time.Now()
			doc, err := s.read(r.tag)
			done := time.Now()
			res.reads[i] = readRec{sent: sent.Sub(start), done: done.Sub(start), doc: doc, failed: err != nil}
		}
	}()
	wg.Wait()
	return res
}
