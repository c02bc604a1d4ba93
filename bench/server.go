package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one routeserve -live process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer

	mu    sync.Mutex
	lines []string      // stdout lines
	eof   chan struct{} // closed when stdout ends
}

// startServer spawns routeserve on snap, waits for its listening line and
// routes probe. It returns the server, the connection and the reply; setup
// is the time from spawn to that reply.
func startServer(ctx context.Context, bin, snap string, probe pair) (s *server, c *conn, reply []byte, setup time.Duration, err error) {
	start := time.Now()
	cmd := exec.Command(bin, "-snapshot", snap, "-live", "-listen", "127.0.0.1:0",
		"-workers", strconv.Itoa(serveWorkers), "-eps", strconv.FormatFloat(eps, 'g', -1, 64),
		"-seed", strconv.Itoa(schemeSeed), "-mem-budget", strconv.Itoa(budgetMiB))
	// A benchmark killed outright must not leave its server running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s = &server{cmd: cmd, eof: make(chan struct{})}
	cmd.Stderr = &s.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, nil, 0, err
	}
	listening := make(chan string, 1)
	go func() {
		defer close(s.eof)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "# listening on "); ok {
				select {
				case listening <- a:
				default:
				}
			}
			s.mu.Lock()
			s.lines = append(s.lines, line)
			s.mu.Unlock()
		}
	}()
	fail := func(err error) (*server, *conn, []byte, time.Duration, error) {
		s.kill()
		return nil, nil, nil, 0, err
	}
	select {
	case s.addr = <-listening:
	case <-s.eof:
		s.kill() // waits, so stderr is complete
		return nil, nil, nil, 0, fmt.Errorf("routeserve exited before listening: %s", s.stderr.String())
	case <-ctx.Done():
		return fail(ctx.Err())
	case <-time.After(ioTimeout):
		return fail(errors.New("routeserve did not start listening"))
	}
	if c, err = dial(s.addr); err != nil {
		return fail(err)
	}
	lines, err := c.collect([]pair{probe}, 1)
	if err != nil {
		c.c.Close()
		return fail(fmt.Errorf("first route reply: %w", err))
	}
	return s, c, lines[0], time.Since(start), nil
}

// peakRSSMB reads the server's resident high-water mark (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %v", v, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop shuts the server down gracefully and returns its final stats line.
func (s *server) stop() (string, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return "", err
	}
	select {
	case <-s.eof:
	case <-time.After(ioTimeout):
		s.kill()
		return "", errors.New("routeserve did not shut down")
	}
	if err := s.cmd.Wait(); err != nil {
		return "", fmt.Errorf("routeserve: %v: %s", err, s.stderr.String())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, line := range s.lines {
		if st, ok := strings.CutPrefix(line, "# shutdown: "); ok {
			return st, nil
		}
	}
	return "", errors.New("routeserve printed no final stats line")
}

// kill ends the process without waiting for a graceful shutdown.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.eof
	s.cmd.Wait()
}

// statField returns the integer value of key=N in a stats line.
func statField(line, key string) (int64, error) {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("stats line has no %s: %q", key, line)
}
