// Command trajtorture is the crash-recovery torture harness: it runs a
// trajserver child under seeded GPS load, SIGKILLs it at a random point in
// each cycle, restarts it, and verifies the recovered state against the
// acknowledgement log the harness kept.
//
// The invariant under test is the WAL's durability contract. The child runs
// with -compress none (the store retains every sample, so a snapshot is the
// exact append sequence) and -wal-sync 0 (an OK reply means the record was
// fsynced before the reply was written). Therefore, after any SIGKILL:
//
//   - every acknowledged append must be present in the recovered snapshot
//     (acknowledged-but-lost records are the fatal failure), and
//   - the recovered snapshot must be an exact prefix of the sent sequence
//     (sent-but-unacknowledged samples may or may not have landed; whatever
//     landed must match what was sent, in order, with nothing invented).
//
// After verification the harness resumes the feed from the recovered
// prefix, so every cycle exercises recovery-then-continue, not just
// recovery. The final cycle ends with SIGTERM instead, asserting the
// graceful drain path also exits cleanly.
//
// Usage:
//
//	trajtorture -bin ./trajserver [-cycles 5] [-objects 4] [-appends 400]
//	            [-seed 1] [-addr host:port] [-wal path] [-batch N]
//	            [-seal-eps E] [-v]
//
// With -batch N > 1, the feed randomly mixes MAPPEND batches (2..N samples,
// sized by the seeded RNG) in with single appends, so the group-commit batch
// path faces the same SIGKILL schedule as the single-append path: an
// "OK appended=n" reply promises all n samples are durable.
//
// With -seal-eps E > 0, the child runs with a cold sealed tier and the
// harness issues a SEAL halfway through each cycle, moving the older half of
// the history into quantized blocks before the SIGKILL lands. After each
// restart the harness verifies the cold tier's regenerability contract: the
// tier comes back empty (the WAL is its only source — sealing must never be
// a durability dependency), the full history is recovered hot, and
// re-issuing the SEAL rebuilds a cold tier that answers range queries for
// sealed-era samples within E metres. One extra object, fed three fixes in
// the first cycle only, becomes sealed-only: IDS must list the same objects
// right before and right after every SEAL, and after every restart.
//
// With -repl, the harness runs TWO trajserver children instead — a primary
// and a streaming follower (see internal/repl) — and tortures the
// replicated deployment. -repl-ack selects the scenario:
//
//   - follower: each cycle SIGKILLs the primary and PROMOTEs the follower,
//     which must hold every acknowledged append (an OK reply promised a
//     follower fsync). The demoted node rejoins with a wiped log.
//   - primary: each cycle SIGKILLs the follower mid-feed; the primary's
//     async ingest must never stall, and the restarted follower resumes from
//     its durable offset. The run ends with the shedding check: a follower
//     that never acknowledges must be disconnected (repl_sheds_total > 0).
//
// Exit status 0 means every cycle held the invariant.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/geo"
	"repro/internal/gpsgen"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/trajectory"
)

// object is one simulated vehicle: its full pre-generated trajectory and
// how far into it the feed has durably progressed.
type object struct {
	id   string
	traj trajectory.Trajectory
	// next indexes the next sample to send; everything before next has been
	// sent at least once.
	next int
	// acked counts samples the server acknowledged with OK — the durability
	// floor recovery is held to.
	acked int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("trajtorture: ")
	if err := run(os.Args[1:]); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run is the whole harness. Every violation returns an error rather than
// exiting, so the deferred child kill and temp-dir cleanup have run before
// main exits non-zero: a failing run leaves no server listening.
func run(args []string) error {
	fs := flag.NewFlagSet("trajtorture", flag.ExitOnError)
	var (
		bin     = fs.String("bin", "", "path to a built trajserver binary (required)")
		addr    = fs.String("addr", "127.0.0.1:7117", "address the child server listens on")
		walPath = fs.String("wal", "", "WAL path (default: a fresh temp file)")
		cycles  = fs.Int("cycles", 5, "SIGKILL/restart cycles")
		objects = fs.Int("objects", 4, "simulated vehicles")
		appends = fs.Int("appends", 400, "append budget per cycle (the kill lands at a random point inside it)")
		seed    = fs.Int64("seed", 1, "RNG seed for load and kill points (a failing run replays exactly)")
		batch   = fs.Int("batch", 0, "mix MAPPEND batches of up to this many samples into the feed (0 = singles only)")
		sealEps = fs.Float64("seal-eps", 0, "run the child with a cold sealed tier at this error bound and SEAL mid-cycle (0 = off)")
		repl    = fs.Bool("repl", false, "two-node replication torture: primary + follower instead of a single server")
		replAck = fs.String("repl-ack", "follower", `ack mode under -repl: "follower" (kill-primary/PROMOTE cycles) or "primary" (kill-follower cycles + lag shedding)`)
		workdir = fs.String("workdir", "", "directory for WALs and per-node server logs, kept after the run (default: a fresh temp dir, removed on exit)")
		verbose = fs.Bool("v", false, "pass the child's output through")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits here, before anything needs cleaning up
	if *bin == "" {
		return errors.New("-bin is required (a built trajserver binary)")
	}
	serverLog := ""
	if *workdir != "" {
		if err := os.MkdirAll(*workdir, 0o755); err != nil {
			return err
		}
		serverLog = filepath.Join(*workdir, "server.log")
		if *walPath == "" {
			*walPath = filepath.Join(*workdir, "torture.wal")
		}
	} else if *walPath == "" {
		dir, err := os.MkdirTemp("", "trajtorture-*")
		if err != nil {
			return err
		}
		defer func() {
			_ = os.RemoveAll(dir) // best effort: temp dir cleanup
		}()
		*walPath = filepath.Join(dir, "torture.wal")
	}

	rng := rand.New(rand.NewSource(*seed))
	// Pre-generate more samples than the whole run can consume, so the feed
	// never runs dry mid-cycle.
	perObject := (*cycles)*(*appends)/(*objects) + *appends
	duration := float64(perObject+2) * gpsgen.DefaultConfig().SampleInterval
	fleet := gpsgen.New(*seed, gpsgen.Config{}).Fleet(*objects, 5000, duration)
	objs := make([]*object, *objects)
	for i, traj := range fleet {
		objs[i] = &object{id: fmt.Sprintf("veh-%d", i), traj: traj}
	}

	if *repl {
		// Two-node mode manages its own addresses and WAL directories; the
		// -addr, -wal and -seal-eps flags apply to single-node runs only.
		if err := runRepl(replConfig{
			bin:     *bin,
			ack:     *replAck,
			cycles:  *cycles,
			appends: *appends,
			batch:   *batch,
			workdir: *workdir,
			verbose: *verbose,
		}, rng, objs); err != nil {
			return fmt.Errorf("REPLICATION VIOLATION: %w", err)
		}
		return nil
	}

	h := &harness{bin: *bin, addr: *addr, wal: *walPath, sealEps: *sealEps, logPath: serverLog, verbose: *verbose}
	defer h.stop()

	// With a cold tier, one more object gets three fixes older than any
	// fleet sample (those start at t ≥ 0) in the first cycle and nothing
	// after: every SEAL leaves it sealed-only, the case in which IDS must
	// still list it.
	checked := objs
	var retired *object
	if *sealEps > 0 {
		retired = &object{id: "veh-retired", traj: trajectory.Trajectory{
			trajectory.S(-30, 0, 0), trajectory.S(-20, 10, 0), trajectory.S(-10, 20, 0)}}
		checked = append(objs[:len(objs):len(objs)], retired)
	}

	totalAcked := 0
	maxAckedT := 0.0 // newest acknowledged timestamp, the SEAL cut's anchor
	sealedCut := 0.0 // last cut SEALed mid-cycle; restarts must rebuild it
	for cycle := 1; cycle <= *cycles; cycle++ {
		c, err := h.start()
		if err != nil {
			return fmt.Errorf("cycle %d: starting server: %w", cycle, err)
		}
		if err := verify(c, checked); err != nil {
			return fmt.Errorf("cycle %d: RECOVERY VIOLATION: %w", cycle, err)
		}
		if *sealEps > 0 && sealedCut > 0 {
			if err := sealCheck(c, checked, sealedCut, *sealEps); err != nil {
				return fmt.Errorf("cycle %d: COLD TIER VIOLATION: %w", cycle, err)
			}
		}
		if retired != nil && cycle == 1 {
			if err := c.AppendBatch(retired.id, retired.traj); err != nil {
				return fmt.Errorf("cycle %d: append %s: %v", cycle, retired.id, err)
			}
			retired.next, retired.acked = retired.traj.Len(), retired.traj.Len()
			totalAcked += retired.acked
		}

		killAfter := 1 + rng.Intn(*appends)
		sent := 0
		sealDone := *sealEps <= 0
		for round := 0; sent < killAfter; round++ {
			o := objs[round%len(objs)]
			if o.next >= o.traj.Len() {
				break // this vehicle's trip is over; others keep the load up
			}
			// Mix batched and single appends: roughly half the rounds send
			// an MAPPEND batch of 2..batch samples when -batch is set.
			n := 1
			if *batch > 1 && rng.Intn(2) == 0 {
				n = 2 + rng.Intn(*batch-1)
				if rest := o.traj.Len() - o.next; n > rest {
					n = rest
				}
			}
			var err error
			if n == 1 {
				err = c.Append(o.id, o.traj[o.next])
			} else {
				err = c.AppendBatch(o.id, o.traj[o.next:o.next+n])
			}
			if err != nil {
				// A refused append is harness trouble (the server is healthy
				// until we kill it) — unless it raced an earlier kill's
				// half-open socket, which the reconnect path absorbs.
				return fmt.Errorf("cycle %d: append %d refused: %v", cycle, sent, err)
			}
			// An OK (or "OK appended=n") reply acknowledges all n samples:
			// every one of them is held to the durability invariant.
			o.next += n
			o.acked = o.next
			totalAcked += n
			sent += n
			if t := o.traj[o.next-1].T; t > maxAckedT {
				maxAckedT = t
			}
			// Halfway through the cycle, seal the older half of the history
			// cold, so the SIGKILL lands on a server with a populated sealed
			// tier. The cut only moves forward, so each re-seal continues the
			// existing block chains.
			if !sealDone && sent >= killAfter/2 {
				if cut := maxAckedT / 2; cut > sealedCut {
					if err := sealKeepingIDs(c, cut); err != nil {
						return fmt.Errorf("cycle %d: %w", cycle, err)
					}
					sealedCut = cut
				}
				sealDone = true
			}
		}

		if cycle < *cycles {
			if err := h.kill(); err != nil {
				return fmt.Errorf("cycle %d: kill: %w", cycle, err)
			}
			log.Printf("cycle %d: SIGKILL after %d appends (%d acked total)", cycle, sent, totalAcked)
		} else {
			// Last cycle: drain gracefully and make sure that path works too.
			if err := h.terminate(); err != nil {
				return fmt.Errorf("cycle %d: graceful shutdown: %w", cycle, err)
			}
			log.Printf("cycle %d: SIGTERM after %d appends (%d acked total)", cycle, sent, totalAcked)
		}
	}

	// Post-mortem: one more restart proves the final state (including the
	// gracefully sealed tail) recovers intact.
	c, err := h.start()
	if err != nil {
		return fmt.Errorf("final verification: starting server: %w", err)
	}
	if err := verify(c, checked); err != nil {
		return fmt.Errorf("final verification: RECOVERY VIOLATION: %w", err)
	}
	if *sealEps > 0 && sealedCut > 0 {
		if err := sealCheck(c, checked, sealedCut, *sealEps); err != nil {
			return fmt.Errorf("final verification: COLD TIER VIOLATION: %w", err)
		}
	}
	recovered := 0
	for _, o := range checked {
		recovered += o.acked
	}
	if err := h.terminate(); err != nil {
		return fmt.Errorf("final shutdown: %w", err)
	}
	log.Printf("PASS: %d cycles, %d acknowledged appends, %d samples recovered, zero acknowledged records lost",
		*cycles, totalAcked, recovered)
	return nil
}

// verify holds the recovered server state against the invariant and
// advances each object's cursors to the recovered prefix. IDS must list
// every object with an acknowledged append and no object the harness never
// sent.
func verify(c *server.Client, objs []*object) error {
	ids, err := c.IDs()
	if err != nil {
		return fmt.Errorf("IDS: %w", err)
	}
	for _, id := range ids {
		if !slices.ContainsFunc(objs, func(o *object) bool { return o.id == id && o.next > 0 }) {
			return fmt.Errorf("IDS lists %q, an object the harness never sent", id)
		}
	}
	for _, o := range objs {
		if o.acked > 0 && !slices.Contains(ids, o.id) {
			return fmt.Errorf("%s: %d acknowledged samples, but IDS does not list it", o.id, o.acked)
		}
		snap, err := c.Snapshot(o.id)
		if err != nil {
			var remote *server.RemoteError
			if errors.As(err, &remote) && o.acked == 0 {
				// Never durably seen: legitimately unknown after recovery.
				o.next = 0
				continue
			}
			return fmt.Errorf("%s: snapshot: %w", o.id, err)
		}
		if snap.Len() < o.acked {
			return fmt.Errorf("%s: %d acknowledged samples, only %d recovered — acknowledged data LOST",
				o.id, o.acked, snap.Len())
		}
		if snap.Len() > o.next {
			return fmt.Errorf("%s: recovered %d samples but only %d were ever sent",
				o.id, snap.Len(), o.next)
		}
		for i, s := range snap {
			if s != o.traj[i] {
				return fmt.Errorf("%s: sample %d diverged: recovered %v, sent %v",
					o.id, i, s, o.traj[i])
			}
		}
		// Whatever landed is durable now; resume the feed right after it.
		o.acked = snap.Len()
		o.next = snap.Len()
	}
	return nil
}

// sealCheck verifies the cold tier's regenerability after a restart: the
// tier must come back empty (replay restores everything hot — the WAL, not
// the sealed blocks, is the durable copy), and re-issuing the SEAL at the
// pre-crash cut must rebuild blocks that answer range queries for
// sealed-era samples within eps metres.
func sealCheck(c *server.Client, objs []*object, cut, eps float64) error {
	stats, err := c.Stats()
	if err != nil {
		return err
	}
	if stats.SealedPoints != 0 {
		return fmt.Errorf("cold tier holds %d points straight after recovery — it must regenerate from the WAL, not persist",
			stats.SealedPoints)
	}
	if err := sealKeepingIDs(c, cut); err != nil {
		return fmt.Errorf("re-seal: %w", err)
	}
	stats, err = c.Stats()
	if err != nil {
		return err
	}
	if stats.SealedPoints == 0 {
		return fmt.Errorf("re-seal at %g rebuilt nothing", cut)
	}
	// Every object's oldest acknowledged sample older than the cut must be
	// answerable from the rebuilt blocks, within the configured bound.
	checked := 0
	for _, o := range objs {
		if o.acked == 0 || !(o.traj[0].T < cut) {
			continue
		}
		s := o.traj[0]
		rect := geo.Rect{Min: s.Pos(), Max: s.Pos()}.Expand(eps + 1)
		pts, err := c.QueryRange(rect, s.T-1, s.T+1)
		if err != nil {
			return fmt.Errorf("%s: sealed-era QUERYRANGE: %w", o.id, err)
		}
		found := false
		for _, p := range pts {
			if p.ID == o.id && math.Abs(p.S.T-s.T) < 1e-3 && p.S.Pos().Dist(s.Pos()) <= eps+1e-9 {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s: sealed sample t=%g missing from rebuilt cold tier (got %d points)",
				o.id, s.T, len(pts))
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("no sealed-era samples to check at cut %g — harness bug", cut)
	}
	return nil
}

// sealKeepingIDs SEALs at cut and checks that sealing moved history between
// tiers without changing which objects the server knows: IDS right after
// the SEAL equals IDS right before it.
func sealKeepingIDs(c *server.Client, cut float64) error {
	before, err := c.IDs()
	if err != nil {
		return fmt.Errorf("IDS before SEAL %g: %w", cut, err)
	}
	if _, err := c.Seal(cut); err != nil {
		return fmt.Errorf("SEAL %g: %w", cut, err)
	}
	after, err := c.IDs()
	if err != nil {
		return fmt.Errorf("IDS after SEAL %g: %w", cut, err)
	}
	slices.Sort(before)
	slices.Sort(after)
	if !slices.Equal(before, after) {
		return fmt.Errorf("SEAL %g changed IDS from %v to %v", cut, before, after)
	}
	return nil
}

// harness owns the trajserver child process across kill/restart cycles.
type harness struct {
	bin     string
	addr    string
	wal     string
	sealEps float64
	logPath string // append the child's output here ("" = discard)
	verbose bool
	cmd     *exec.Cmd
}

// start launches the child and waits until it answers PING.
func (h *harness) start() (*server.Client, error) {
	args := []string{
		"-addr", h.addr,
		"-compress", "none", // snapshot == append sequence, exactly
		"-wal", h.wal,
		"-wal-sync", "0", // OK reply ⇒ record fsynced
	}
	if h.sealEps > 0 {
		args = append(args, "-seal-eps", fmt.Sprintf("%g", h.sealEps))
	}
	cmd := exec.Command(h.bin, args...)
	if err := childOutput(cmd, h.logPath, h.verbose); err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h.cmd = cmd

	c, err := readyClient(h.addr)
	if err != nil {
		_ = h.kill() // the unready child is useless; report the readiness error
		return nil, err
	}
	return c, nil
}

// childOutput wires a child's stdout/stderr to the per-node log file
// (append mode, so restarts accumulate one history) and, with -v, the
// harness stderr. Log handles are left to process exit — the harness is
// short-lived and starts a bounded number of children.
func childOutput(cmd *exec.Cmd, logPath string, verbose bool) error {
	var ws []io.Writer
	if logPath != "" {
		f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		ws = append(ws, f)
	}
	if verbose {
		ws = append(ws, os.Stderr)
	}
	if len(ws) > 0 {
		w := io.MultiWriter(ws...)
		cmd.Stdout = w
		cmd.Stderr = w
	}
	return nil
}

// readyClient dials addr until the server answers PING.
func readyClient(addr string) (*server.Client, error) {
	deadline := time.Now().Add(15 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		c, err := server.DialOptions(addr, server.ClientOptions{
			DialTimeout: 500 * time.Millisecond,
			IOTimeout:   5 * time.Second,
			Metrics:     metrics.NewRegistry(),
		})
		if err == nil {
			if err := c.Ping(); err == nil {
				return c, nil
			}
			_ = c.Close() // not ready yet; retry with a fresh connection
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	return nil, fmt.Errorf("server at %s never became ready: %v", addr, lastErr)
}

// kill SIGKILLs the child — no warning, no flush, the crash under test.
func (h *harness) kill() error {
	err := killProcess(h.cmd)
	h.cmd = nil
	return err
}

func killProcess(cmd *exec.Cmd) error {
	if cmd == nil || cmd.Process == nil {
		return nil
	}
	if err := cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	_ = cmd.Wait() // reap; a killed child's exit error is expected
	return nil
}

// terminate asks the child to drain via SIGTERM and requires a clean exit.
func (h *harness) terminate() error {
	err := terminateProcess(h.cmd)
	h.cmd = nil
	return err
}

func terminateProcess(cmd *exec.Cmd) error {
	if cmd == nil || cmd.Process == nil {
		return nil
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil && !strings.Contains(err.Error(), "signal") {
			return fmt.Errorf("child exited uncleanly: %v", err)
		}
		return nil
	case <-time.After(15 * time.Second):
		_ = killProcess(cmd)
		return errors.New("child ignored SIGTERM for 15s")
	}
}

// stop is the deferred cleanup: make sure no child outlives the harness.
func (h *harness) stop() { _ = h.kill() }
