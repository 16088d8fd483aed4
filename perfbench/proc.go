package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpm/client"
)

// server is one gpserve child process on a loopback port.
type server struct {
	name  string
	url   string
	args  []string
	cmd   *exec.Cmd
	log   *os.File
	c     *client.Client
	waitC chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches gpserve with args (plus -addr) and waits until it
// answers /v1/healthz. Its stderr goes to <dir>/<name>.log.
func startServer(ctx context.Context, bin, dir, name string, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", addr}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	s := &server{name: name, url: "http://" + addr, args: args, cmd: cmd, log: logf, waitC: make(chan error, 1)}
	go func() { s.waitC <- cmd.Wait() }()
	s.c = client.New(s.url)
	deadline := time.Now().Add(30 * time.Second)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := s.c.Healthz(hctx)
		cancel()
		if err == nil {
			return s, nil
		}
		select {
		case werr := <-s.waitC:
			s.waitC <- werr
			s.stop()
			return nil, fmt.Errorf("%s exited during start-up: %v (see %s)", name, werr, logf.Name())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("%s not healthy after 30s", name)
		}
	}
}

// stop ends the process (SIGTERM, then SIGKILL after a grace period) and
// waits for it to exit.
func (s *server) stop() {
	if s == nil || s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-s.waitC:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill() // already-exited is fine
		<-s.waitC
	}
	s.cmd = nil
	s.log.Close()
}

// peakRSSMB reads VmHWM — the process's peak resident set — in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM in /proc status")
}
