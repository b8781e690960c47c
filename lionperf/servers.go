package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// proc is one server process the benchmark started.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed when the process has been reaped
	err  error         // Wait's result, valid after done
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startProc launches a server binary with its stderr sent to logPath and
// waits until its /readyz answers 200.
func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	if err := p.waitReady(10 * time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) waitReady(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready: %v", p.name, p.err)
		default:
		}
		resp, err := client.Get(p.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v", p.name, limit)
}

// stop sends SIGTERM, waits for a graceful exit, and kills the process if
// it has not exited after five seconds. It returns once the process is
// reaped.
func (p *proc) stop() {
	if p == nil {
		return
	}
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill() // the process may exit between the timeout and the kill
		<-p.done
	}
}

// target is the system under test for one serving leg: the URL the load
// goes to and every server process behind it.
type target struct {
	url   string
	procs []*proc
}

func (t *target) pids() []int {
	out := make([]int, len(t.procs))
	for i, p := range t.procs {
		out[i] = p.pid()
	}
	return out
}

func (t *target) stop() {
	if t == nil {
		return
	}
	// Stop the front door first so nothing forwards to a stopped shard.
	for i := len(t.procs) - 1; i >= 0; i-- {
		t.procs[i].stop()
	}
}

// startLiond starts one liond with its shipped defaults.
func startLiond(binDir, runDir, name string) (*proc, error) {
	return startProc(name, filepath.Join(binDir, "liond"), filepath.Join(runDir, name+".log"))
}

// startShards starts the two liond shards of the cluster workload.
func startShards(binDir, runDir string) ([]*proc, error) {
	var shards []*proc
	for i := 1; i <= 2; i++ {
		s, err := startLiond(binDir, runDir, "shard"+strconv.Itoa(i))
		if err != nil {
			for _, p := range shards {
				p.stop()
			}
			return nil, err
		}
		shards = append(shards, s)
	}
	return shards, nil
}

// clusterConfig is the lionroute membership document for a shard set.
func clusterConfig(shards []*proc) ([]byte, error) {
	type shardDoc struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	doc := struct {
		Shards []shardDoc `json:"shards"`
	}{}
	for i, s := range shards {
		doc.Shards = append(doc.Shards, shardDoc{ID: "s" + strconv.Itoa(i+1), URL: s.url})
	}
	return json.Marshal(doc)
}

// startTarget starts the servers of a workload: one liond for portal, and
// lionroute in front of two liond shards for cluster. The lionroute process
// is listed last in procs.
func startTarget(workload, binDir, runDir string) (*target, error) {
	switch workload {
	case "portal":
		p, err := startLiond(binDir, runDir, "liond")
		if err != nil {
			return nil, err
		}
		return &target{url: p.url, procs: []*proc{p}}, nil
	case "cluster":
		shards, err := startShards(binDir, runDir)
		if err != nil {
			return nil, err
		}
		cfg, err := clusterConfig(shards)
		if err == nil {
			path := filepath.Join(runDir, "cluster.json")
			if err = os.WriteFile(path, cfg, 0o644); err == nil {
				var rt *proc
				rt, err = startProc("lionroute", filepath.Join(binDir, "lionroute"),
					filepath.Join(runDir, "lionroute.log"), "-config", path)
				if err == nil {
					return &target{url: rt.url, procs: append(shards, rt)}, nil
				}
			}
		}
		for _, s := range shards {
			s.stop()
		}
		return nil, err
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
}

// checkAlive reports an error when any server process has exited.
func (t *target) checkAlive() error {
	for _, p := range t.procs {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during the run: %v", p.name, p.err)
		default:
		}
	}
	return nil
}

// sleepUntil sleeps until t or until ctx ends. It sleeps on a runtime
// timer until shortly before t and then in nanosleep, which wakes within
// about 0.1 ms where time.Sleep overshoots by up to a millisecond; the
// sender's lag then reflects the generator's load, not timer rounding.
func sleepUntil(ctx context.Context, t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return
		}
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR wakes early; the loop sleeps again
	}
}
