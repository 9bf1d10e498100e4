package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/webtest"
	"stagedweb/perfbench/bench"
)

// serverProc is one running benchserver process and its control pipe.
type serverProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	addr string
	// setup is the time from starting the process to its first 200
	// response.
	setup   time.Duration
	stopped bool
}

// startServer starts bin for the workload and waits until it answers a
// page with 200.
func startServer(bin, workload string, trace bool) (*serverProc, error) {
	args := []string{"-workload", workload}
	if trace {
		args = append(args, "-trace")
	}
	clk := clock.Real{}
	start := clk.Now()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	p := &serverProc{cmd: cmd, in: in, out: bufio.NewReaderSize(stdout, 1<<20)}
	line, err := p.out.ReadString('\n')
	if err != nil {
		p.stop()
		return nil, fmt.Errorf("server exited before serving: %v", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "addr ")
	if !ok {
		p.stop()
		return nil, fmt.Errorf("server said %q, want its address", line)
	}
	p.addr = addr
	for {
		resp, err := webtest.Get(addr, "/home")
		if err == nil && resp.Status == 200 {
			break
		}
		if clk.Since(start) > 60*time.Second {
			p.stop()
			return nil, fmt.Errorf("server not ready after 60s: %v", err)
		}
		clk.Sleep(time.Millisecond)
	}
	p.setup = clk.Since(start)
	return p, nil
}

// call sends one control command and decodes its one-line JSON reply.
func (p *serverProc) call(cmd string, reply any) error {
	if _, err := io.WriteString(p.in, cmd+"\n"); err != nil {
		return fmt.Errorf("server %s: %w", strings.Fields(cmd)[0], err)
	}
	line, err := p.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("server %s: %w", strings.Fields(cmd)[0], err)
	}
	return json.Unmarshal(line, reply)
}

// stop asks the server to quit and waits for it; a server that does not
// exit within ten seconds is killed. Stopping twice is harmless.
func (p *serverProc) stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	_, _ = io.WriteString(p.in, "quit\n")
	_ = p.in.Close()
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-clock.Real{}.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

func (p *serverProc) stats() (bench.Stats, error) {
	var s bench.Stats
	err := p.call("stats", &s)
	return s, err
}
