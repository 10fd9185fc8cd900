package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// strconv.ParseFloat accepts NaN and ±Inf, so every numeric argument of every
// verb can carry one. The rule: a non-finite sample is refused, a non-finite
// query point, time or box is outside everything (not an error), and no
// reply ever prints a NaN or an infinity. Each row runs against its own
// server whose history is half sealed, so both tiers see the value.
func TestServerNonFiniteNumbers(t *testing.T) {
	fixture := []string{
		"APPEND a 0 0 0", "APPEND a 10 5 5", "APPEND a 20 50 8",
		"APPEND b 0 50 0", "APPEND b 10 5 5", "APPEND b 20 0 9",
		"APPEND lone 10 7 7",
		"SEAL 5",
	}
	const fixturePoints = 7

	type exchange struct {
		conn net.Conn
		r    *bufio.Reader
	}
	dial := func(t *testing.T, addr string) exchange {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return exchange{conn, bufio.NewReader(conn)}
	}
	// ask sends cmd and then PING, and returns the reply lines before the pong.
	ask := func(t *testing.T, x exchange, cmd string) []string {
		t.Helper()
		fmt.Fprintf(x.conn, "%s\nPING\n", cmd)
		var reply []string
		for {
			line, err := x.r.ReadString('\n')
			if err != nil {
				t.Fatalf("%q: after %q: %v", cmd, reply, err)
			}
			if line = strings.TrimSpace(line); line == "OK pong" {
				return reply
			}
			reply = append(reply, line)
		}
	}
	start := func(t *testing.T) (string, exchange) {
		t.Helper()
		addr, shutdown := startServer(t, store.New(store.Options{SealEps: 1}))
		t.Cleanup(shutdown)
		x := dial(t, addr)
		for _, cmd := range fixture {
			if reply := ask(t, x, cmd); len(reply) != 1 || !strings.HasPrefix(reply[0], "OK") {
				t.Fatalf("fixture %q: %q", cmd, reply)
			}
		}
		return addr, x
	}

	verbs := []struct {
		tmpl string   // one # per numeric argument
		def  []string // the finite value of each
		want string   // prefix of the first reply line, when the value does not decide it
	}{
		{"APPEND n # # #", []string{"30", "1", "1"}, "ERR"},
		{"MAPPEND n 1\n# # #", []string{"30", "1", "1"}, "ERR applied=0"},
		{"POSITION a #", []string{"5"}, "ERR no position"},
		{"QUERY # # # # # #", []string{"0", "0", "10", "10", "0", "20"}, ""},
		{"QUERYTOL # # # # # # #", []string{"0", "0", "10", "10", "0", "20", "1"}, ""},
		{"QUERYRANGE # # # # # #", []string{"0", "0", "10", "10", "0", "20"}, ""},
		{"NEAREST # # # 3", []string{"0", "0", "15"}, "END"},
		{"NEAREST 0 0 15 #", []string{"3"}, "ERR k must be"},
		{"SEAL #", []string{"15"}, "OK sealed="},
		{"EVICT #", []string{"15"}, "OK removed="},
		{"SUBSCRIBE BOX # # # #", []string{"0", "0", "10", "10"}, ""},
	}
	for _, v := range verbs {
		for pos := range v.def {
			for _, val := range []string{"NaN", "+Inf", "-Inf"} {
				cmd := v.tmpl
				for i, def := range v.def {
					if i == pos {
						def = val
					}
					cmd = strings.Replace(cmd, "#", def, 1)
				}
				t.Run(strings.ReplaceAll(cmd, "\n", "|"), func(t *testing.T) {
					addr, x := start(t)
					var reply []string
					if strings.HasPrefix(cmd, "SUBSCRIBE") {
						// An accepted SUBSCRIBE turns the connection into a
						// feed; the server must answer PING on another one.
						fmt.Fprintf(x.conn, "%s\n", cmd)
						line, err := x.r.ReadString('\n')
						if err != nil {
							t.Fatal(err)
						}
						reply = []string{strings.TrimSpace(line)}
						ask(t, dial(t, addr), "IDS")
					} else {
						reply = ask(t, x, cmd)
					}
					one := len(reply) == 1 && (strings.HasPrefix(reply[0], "OK") || strings.HasPrefix(reply[0], "ERR"))
					if rows := len(reply) > 0 && reply[len(reply)-1] == "END"; !one && !rows {
						t.Fatalf("malformed reply %q", reply)
					}
					if !strings.HasPrefix(reply[0], v.want) {
						t.Errorf("reply %q, want %q…", reply, v.want)
					}
					for _, line := range reply {
						if strings.Contains(line, "NaN") || strings.Contains(line, "Inf") {
							t.Errorf("reply line %q prints a non-finite number", line)
						}
					}
				})
			}
		}
	}

	t.Run("an infinite window is every stored point", func(t *testing.T) {
		_, x := start(t)
		reply := ask(t, x, "QUERYRANGE -Inf -Inf Inf Inf -Inf Inf")
		if len(reply) != fixturePoints+1 || reply[fixturePoints] != "END" {
			t.Errorf("%d lines %q, want the %d stored points and END", len(reply), reply, fixturePoints)
		}
	})
}
