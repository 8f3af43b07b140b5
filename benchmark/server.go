package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything a run leaves behind except results: the server
// binary, temporary snapshot stores and (through bench.sh) the Go caches.
func buildDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build")
	return dir, os.MkdirAll(dir, 0o755)
}

// buildServer compiles ./cmd/annoda-server from the checkout.
func buildServer(root string) (string, error) {
	dir, err := buildDir(root)
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "annoda-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/annoda-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/annoda-server: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one annoda-server subprocess on loopback.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	flags  []string
	log    bytes.Buffer
	exited chan error // receives cmd.Wait's result once
}

// startServer boots the server with default flags (-addr and -genes only)
// and returns once /healthz answers.
func startServer(bin string, genes int) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	s := &serverProc{
		base:   "http://" + addr,
		flags:  []string{"-addr", addr, "-genes", strconv.Itoa(genes)},
		exited: make(chan error, 1),
	}
	s.cmd = exec.Command(bin, s.flags...)
	s.cmd.Stderr = &s.log
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("annoda-server exited during start-up: %v\n%s", err, s.log.String())
		default:
		}
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("annoda-server did not answer /healthz within 60s\n%s", s.log.String())
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// stop asks the server to shut down and waits until the process has ended,
// killing it if the graceful drain takes too long.
func (s *serverProc) stop() {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return
	}
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.kill()
	}
}

// scrapeMetrics reads the server's /metrics.
func (s *serverProc) scrapeMetrics() (scrape, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseScrape(resp.Body)
}

// scrape is one Prometheus text exposition, keyed by the series exactly as
// written (name plus label set), e.g.
// `annoda_stage_duration_seconds_sum{stage="fetch"}`.
type scrape map[string]float64

func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sub returns the per-series difference s - before. A series absent from
// before counts from zero; a series absent from s is absent from the result.
func (s scrape) sub(before scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// procCPU returns the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	const userHz = 100 // Linux reports /proc times in 1/100 s on every supported platform
	return time.Duration(utime+stime) * time.Second / userHz, nil
}

// procPeakRSSMB returns a process's resident-set high-water mark (VmHWM).
func procPeakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %v", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}
