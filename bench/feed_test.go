package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// lossyServer speaks just enough of the line protocol for a feed phase:
// APPEND is acknowledged and relayed to the SUBSCRIBE connection as a POS
// line, except that every dropEvery-th relay is dropped and counted, as a
// server with a full subscriber ring would.
type lossyServer struct {
	ln        net.Listener
	dropEvery int

	mu      sync.Mutex
	sub     net.Conn
	relayed int
	drops   int
}

func (ls *lossyServer) serve() {
	for {
		c, err := ls.ln.Accept()
		if err != nil {
			return
		}
		go ls.handle(c)
	}
}

func (ls *lossyServer) handle(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		cmd, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
		switch cmd {
		case "PING":
			fmt.Fprintln(c, "OK pong")
		case "SUBSCRIBE":
			ls.mu.Lock()
			ls.sub = c
			ls.mu.Unlock()
			fmt.Fprintln(c, "OK")
		case "APPEND":
			ls.mu.Lock()
			ls.relayed++
			if ls.relayed%ls.dropEvery == 0 {
				ls.drops++
			} else if ls.sub != nil {
				fmt.Fprintln(ls.sub, "POS "+rest)
			}
			ls.mu.Unlock()
			fmt.Fprintln(c, "OK")
		case "METRICS":
			ls.mu.Lock()
			fmt.Fprintf(c, "server_subscribe_drops_total %d\nEND\n", ls.drops)
			ls.mu.Unlock()
		default:
			fmt.Fprintf(c, "ERR unknown command %q\n", cmd)
		}
	}
}

// TestDroppedFeedLinesFail: a server that drops feed lines and counts them
// honestly still fails one operation per dropped line.
func TestDroppedFeedLinesFail(t *testing.T) {
	for _, c := range []struct {
		name       string
		dropEvery  int
		wantFailed int
	}{
		{"no drops", 1 << 30, 0},
		{"every fourth line dropped", 4, 25},
	} {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			ls := &lossyServer{ln: ln, dropEvery: c.dropEvery}
			go ls.serve()

			w, err := workloadByName("feed_live")
			if err != nil {
				t.Fatal(err)
			}
			s := &session{cfg: runConfig{w: w}, clk: clock{time.Now()}, res: newRunResult()}
			if err := s.connect(ln.Addr().String()); err != nil {
				t.Fatal(err)
			}
			defer s.ctl.Close()
			const n = 100
			reqs := make([]request, n)
			for i := range reqs {
				reqs[i] = request{obj: 0, points: 1, wire: []byte(fmt.Sprintf("APPEND v00000 %d 1.00 2.00\n", 10*(i+1)))}
			}
			p, lat, err := s.feedPhase(reqs, 5000)
			if err != nil {
				t.Fatal(err)
			}
			if p.points != n {
				t.Fatalf("%d of %d appends acknowledged: %v", p.points, n, p.err)
			}
			if len(lat) != n-c.wantFailed {
				t.Errorf("%d lines matched, want %d", len(lat), n-c.wantFailed)
			}
			if s.res.Failed != c.wantFailed {
				t.Errorf("failed = %d, want %d (%v)", s.res.Failed, c.wantFailed, s.res.Failures)
			}
			if want := 2 * n; s.res.Attempted != want { // one append and one expected line each
				t.Errorf("attempted = %d, want %d", s.res.Attempted, want)
			}
		})
	}
}
