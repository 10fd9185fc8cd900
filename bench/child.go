package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Child-process supervision: every wait has a timeout, a child that dies
// outside a planned kill fails the run with its log tail, and stop() always
// reaps the process.

const (
	startTimeout = 60 * time.Second // listen line; covers WAL replay of the preloaded log
	exitTimeout  = 15 * time.Second // SIGTERM drain or SIGKILL reap
	logTailLines = 30
)

var listenLine = regexp.MustCompile(`listening on (\S+) \(`)

// running registers every live child so that a signal to the benchmark can
// take them down with it: no process outlives the run.
var running = struct {
	mu  sync.Mutex
	set map[*child]struct{}
}{set: map[*child]struct{}{}}

// killChildren SIGKILLs every registered child; the signal handler's last act.
func killChildren() {
	running.mu.Lock()
	defer running.mu.Unlock()
	for c := range running.set {
		_ = c.cmd.Process.Kill() // already-exited is fine
	}
}

type child struct {
	cmd  *exec.Cmd
	addr string

	mu   sync.Mutex
	tail []string // last logTailLines lines of the child's stderr

	exited  chan struct{} // closed once Wait has returned
	waitErr error         // valid after exited is closed
}

// startChild launches bin with args and waits for its listen line. The
// server must be told "-addr 127.0.0.1:0"; the bound address is parsed from
// the log.
func startChild(bin string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	running.mu.Lock()
	running.set[c] = struct{}{}
	running.mu.Unlock()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.tail = append(c.tail, line)
			if len(c.tail) > logTailLines {
				c.tail = c.tail[1:]
			}
			c.mu.Unlock()
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		// Wait only after the pipe is drained, as os/exec requires.
		c.waitErr = c.cmd.Wait()
		running.mu.Lock()
		delete(running.set, c)
		running.mu.Unlock()
		close(c.exited)
	}()
	select {
	case c.addr = <-addrCh:
		return c, nil
	case <-c.exited:
		return nil, fmt.Errorf("server exited during start-up (%v); log tail:\n%s", c.waitErr, c.logTail())
	case <-time.After(startTimeout):
		c.kill()
		return nil, fmt.Errorf("server printed no listen line within %s; log tail:\n%s", startTimeout, c.logTail())
	}
}

func (c *child) logTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

// check fails if the child is no longer running: between planned kills the
// server must survive the load.
func (c *child) check() error {
	select {
	case <-c.exited:
		return fmt.Errorf("server died (%v); log tail:\n%s", c.waitErr, c.logTail())
	default:
		return nil
	}
}

// kill delivers the planned SIGKILL and reaps the process.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already-exited is fine: the wait below reaps either way
	select {
	case <-c.exited:
	case <-time.After(exitTimeout):
	}
}

// stop asks for a graceful drain and requires exit status 0; on timeout the
// child is killed so no process outlives the run.
func (c *child) stop() error {
	if err := c.check(); err != nil {
		return err
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		c.kill()
		return fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case <-c.exited:
		if c.waitErr != nil {
			return fmt.Errorf("server exited uncleanly on SIGTERM (%v); log tail:\n%s", c.waitErr, c.logTail())
		}
		return nil
	case <-time.After(exitTimeout):
		c.kill()
		return fmt.Errorf("server did not drain within %s; log tail:\n%s", exitTimeout, c.logTail())
	}
}

// peakRSSMiB reads the child's peak resident set (VmHWM) from /proc.
func (c *child) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}
