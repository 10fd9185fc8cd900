package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

// The oracle is the protocol parser as it was before lines were parsed in
// place: a string per line, strings.Fields, strings.ToUpper and
// strconv.ParseFloat per argument, fmt per reply. It lives here, and only
// here, as the reference FuzzCommandLine holds the server to.

type oracle struct {
	st Backend
	br *bufio.Reader
	w  *bufio.Writer
}

func oracleReadLine(br *bufio.Reader) (string, error) {
	var long []byte
	for {
		frag, err := br.ReadSlice('\n')
		switch {
		case err == nil:
			if long == nil {
				return strings.TrimRight(string(frag), "\r\n"), nil
			}
			long = append(long, frag...)
			return strings.TrimRight(string(long), "\r\n"), nil
		case errors.Is(err, bufio.ErrBufferFull):
			long = append(long, frag...)
			if len(long) > maxLineLen {
				return "", errLineTooLong
			}
		default:
			if len(long)+len(frag) > 0 && errors.Is(err, io.EOF) {
				return string(append(long, frag...)), nil
			}
			return "", err
		}
	}
}

func oracleFloats(args []string) ([]float64, error) {
	out := make([]float64, len(args))
	for i, a := range args {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return nil, fmt.Errorf("argument %d: %v", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// serve answers every command of one connection's input, like serveInput.
func (o *oracle) serve(in []byte) []string {
	var out bytes.Buffer
	o.br = bufio.NewReaderSize(bytes.NewReader(in), 4096)
	o.w = bufio.NewWriter(&out)
	var replies []string
	for {
		line, err := oracleReadLine(o.br)
		if err != nil {
			return replies
		}
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		stop := o.dispatch(line)
		_ = o.w.Flush()
		replies = append(replies, out.String())
		out.Reset()
		if stop {
			return replies
		}
	}
}

// dispatch answers one command and reports whether the connection leaves
// the command loop.
func (o *oracle) dispatch(line string) bool {
	fields := strings.Fields(line)
	cmd := strings.ToUpper(fields[0])
	args := fields[1:]
	w := o.w
	switch cmd {
	case "PING":
		fmt.Fprintln(w, "OK pong")
	case "QUIT":
		fmt.Fprintln(w, "OK bye")
		return true
	case "SUBSCRIBE":
		return o.subscribe(args)
	case "APPEND":
		if len(args) != 4 {
			fmt.Fprintln(w, "ERR usage: APPEND <id> <t> <x> <y>")
			return false
		}
		v, err := oracleFloats(args[1:])
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		if err := o.st.Append(args[0], trajectory.S(v[0], v[1], v[2])); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		fmt.Fprintln(w, "OK")
	case "MAPPEND":
		return o.batchAppend(args)
	case "REPLICATE":
		fmt.Fprintln(w, "ERR replication not available (this server runs without a WAL)")
	case "PROMOTE":
		fmt.Fprintln(w, "OK role=primary")
	case "POSITION":
		if len(args) != 2 {
			fmt.Fprintln(w, "ERR usage: POSITION <id> <t>")
			return false
		}
		t, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		pos, ok := o.st.PositionAt(args[0], t)
		if !ok {
			fmt.Fprintln(w, "ERR no position (unknown object or time outside span)")
			return false
		}
		fmt.Fprintf(w, "OK %g %g\n", pos.X, pos.Y)
	case "SNAPSHOT":
		if len(args) != 1 {
			fmt.Fprintln(w, "ERR usage: SNAPSHOT <id>")
			return false
		}
		snap, ok := o.st.Snapshot(args[0])
		if !ok {
			fmt.Fprintf(w, "ERR unknown object %q\n", args[0])
			return false
		}
		for _, p := range snap {
			fmt.Fprintf(w, "%g %g %g\n", p.T, p.X, p.Y)
		}
		fmt.Fprintln(w, "END")
	case "QUERY", "QUERYTOL", "QUERYRANGE":
		o.window(cmd, args)
	case "NEAREST":
		if len(args) != 4 {
			fmt.Fprintln(w, "ERR usage: NEAREST <x> <y> <t> <k>")
			return false
		}
		v, err := oracleFloats(args[:3])
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		k, err := strconv.Atoi(args[3])
		if err != nil || k <= 0 {
			fmt.Fprintln(w, "ERR k must be a positive integer")
			return false
		}
		for _, nb := range o.st.Nearest(geo.Pt(v[0], v[1]), v[2], k) {
			fmt.Fprintf(w, "%s %g %g %g\n", nb.ID, nb.Pos.X, nb.Pos.Y, nb.Dist)
		}
		fmt.Fprintln(w, "END")
	case "SEAL", "EVICT":
		if len(args) != 1 {
			fmt.Fprintf(w, "ERR usage: %s <t>\n", cmd)
			return false
		}
		t, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		if cmd == "SEAL" {
			n, _ := o.st.SealBefore(t)
			fmt.Fprintf(w, "OK sealed=%d\n", n)
		} else {
			fmt.Fprintf(w, "OK removed=%d\n", o.st.EvictBefore(t))
		}
	case "IDS":
		for _, id := range o.st.IDs() {
			fmt.Fprintln(w, id)
		}
		fmt.Fprintln(w, "END")
	case "STATS":
		st := o.st.Stats()
		fmt.Fprintf(w, "OK objects=%d raw=%d retained=%d compression=%.1f uptime=%.3f sealed=%d sealedblocks=%d sealedbytes=%d walacked=%d role=%s\n",
			st.Objects, st.RawPoints, st.RetainedPoints, st.CompressionPct, 0.0,
			st.SealedPoints, st.SealedBlocks, st.SealedBytes, 0, "primary")
		fmt.Fprintln(w, "END")
	case "METRICS":
		fmt.Fprintln(w, "METRICS")
	default:
		fmt.Fprintf(w, "ERR unknown command %q\n", cmd)
	}
	return false
}

func (o *oracle) window(cmd string, args []string) {
	want, usage := 6, "ERR usage: "+cmd+" <minx> <miny> <maxx> <maxy> <t0> <t1>"
	if cmd == "QUERYTOL" {
		want, usage = 7, usage+" <eps>"
	}
	if len(args) != want {
		fmt.Fprintln(o.w, usage)
		return
	}
	v, err := oracleFloats(args)
	if err != nil {
		fmt.Fprintf(o.w, "ERR %v\n", err)
		return
	}
	rect := geo.Rect{Min: geo.Pt(v[0], v[1]), Max: geo.Pt(v[2], v[3])}
	if rect.IsEmpty() || v[5] < v[4] {
		fmt.Fprintln(o.w, "ERR empty query window")
		return
	}
	switch cmd {
	case "QUERY":
		for _, id := range o.st.Query(rect, v[4], v[5]) {
			fmt.Fprintln(o.w, id)
		}
	case "QUERYTOL":
		for _, id := range o.st.QueryWithTolerance(rect, v[4], v[5], v[6]) {
			fmt.Fprintln(o.w, id)
		}
	default:
		for _, p := range o.st.RangePoints(rect, v[4], v[5]) {
			fmt.Fprintf(o.w, "%s %g %g %g\n", p.ID, p.S.T, p.S.X, p.S.Y)
		}
	}
	fmt.Fprintln(o.w, "END")
}

func (o *oracle) batchAppend(args []string) bool {
	if len(args) != 2 {
		fmt.Fprintln(o.w, "ERR usage: MAPPEND <id> <n>")
		return false
	}
	n, err := strconv.Atoi(args[1])
	if err != nil || n <= 0 || n > maxBatchAppend {
		fmt.Fprintf(o.w, "ERR batch size must be 1..%d\n", maxBatchAppend)
		return false
	}
	samples := make([]trajectory.Sample, 0, n)
	var badLine error
	for i := 0; i < n; i++ {
		line, err := oracleReadLine(o.br)
		if err != nil {
			return true
		}
		v, perr := oracleFloats(strings.Fields(strings.TrimSpace(line)))
		if perr != nil || len(v) != 3 {
			if badLine == nil {
				badLine = fmt.Errorf("batch sample %d: want <t> <x> <y>", i+1)
			}
			continue
		}
		samples = append(samples, trajectory.S(v[0], v[1], v[2]))
	}
	if badLine != nil {
		fmt.Fprintf(o.w, "ERR %v\n", badLine)
		return false
	}
	applied, err := o.st.AppendBatch(args[0], samples)
	if err != nil {
		fmt.Fprintf(o.w, "ERR applied=%d: %v\n", applied, err)
		return false
	}
	fmt.Fprintf(o.w, "OK appended=%d\n", applied)
	return false
}

func (o *oracle) subscribe(args []string) bool {
	const usage = "ERR usage: SUBSCRIBE <id|*> [spec] [policy] | SUBSCRIBE BOX <minx> <miny> <maxx> <maxy> [spec] [policy]"
	if len(args) < 1 {
		fmt.Fprintln(o.w, usage)
		return false
	}
	tail := args[1:]
	if strings.ToUpper(args[0]) == "BOX" {
		if len(args) < 5 {
			fmt.Fprintln(o.w, usage)
			return false
		}
		v, err := oracleFloats(args[1:5])
		if err != nil {
			fmt.Fprintf(o.w, "ERR %v\n", err)
			return false
		}
		if (geo.Rect{Min: geo.Pt(v[0], v[1]), Max: geo.Pt(v[2], v[3])}).IsEmpty() {
			fmt.Fprintln(o.w, "ERR empty geofence box")
			return false
		}
		tail = args[5:]
	}
	var havePolicy, haveSpec bool
	for _, arg := range tail {
		if _, ok := bus.ParsePolicy(arg); ok && !havePolicy {
			havePolicy = true
			continue
		}
		if haveSpec {
			fmt.Fprintln(o.w, usage)
			return false
		}
		if _, err := stream.ParseFactory(arg); err != nil {
			fmt.Fprintf(o.w, "ERR %v\n", err)
			return false
		}
		haveSpec = true
	}
	fmt.Fprintln(o.w, "OK subscribed")
	return true
}

var uptimeField = regexp.MustCompile(`uptime=[0-9.]+`)

// FuzzCommandLine holds the in-place parser to the oracle above: for any
// connection input, every command must be accepted or refused alike, with
// the same reply bytes (ERR texts included), and must reach the backend
// with the same arguments, floats compared by their bits.
func FuzzCommandLine(f *testing.F) {
	// Every numeric position of every verb × NaN/±Inf, as in
	// TestServerNonFiniteNumbers.
	for _, tmpl := range []struct {
		line string
		def  []string
	}{
		{"APPEND n # # #", []string{"30", "1", "1"}},
		{"MAPPEND n 1\n# # #", []string{"30", "1", "1"}},
		{"POSITION a #", []string{"5"}},
		{"QUERY # # # # # #", []string{"0", "0", "10", "10", "0", "20"}},
		{"QUERYTOL # # # # # # #", []string{"0", "0", "10", "10", "0", "20", "1"}},
		{"QUERYRANGE # # # # # #", []string{"0", "0", "10", "10", "0", "20"}},
		{"NEAREST # # # 3", []string{"0", "0", "15"}},
		{"NEAREST 0 0 15 #", []string{"3"}},
		{"SEAL #", []string{"15"}},
		{"EVICT #", []string{"15"}},
		{"SUBSCRIBE BOX # # # #", []string{"0", "0", "10", "10"}},
	} {
		for pos := range tmpl.def {
			for _, val := range []string{"NaN", "+Inf", "-Inf"} {
				line := tmpl.line
				for i, def := range tmpl.def {
					if i == pos {
						def = val
					}
					line = strings.Replace(line, "#", def, 1)
				}
				f.Add([]byte(line + "\n"))
			}
		}
	}
	long := strings.Repeat("7", 5000)
	for _, in := range []string{
		// Unicode separators, lower-case verbs, CRLF.
		"APPEND\u00a0a 1\u00852 3\n", "append a 1 2 3\r\nping\r\n", "mappend a 2\r\n1 2 3\r\n4\u00a05 6\r\n",
		"pıng\n", "ſubscribe *\n", "QUERY\t0 0 10 10 0 20\v\n", "\xffAPPEND a 1 2 3\n", "APPEND a\xff 1 2 3\n",
		// The edges of the decimal fast path.
		"APPEND a 123456789012345 1234567890123456 -0\n", "APPEND a 1. .5 1e5\n", "APPEND a 0x1p-2 1_0 1\n",
		"APPEND a 0.1234567890123456789012 0.12345678901234567890123 -.0\n", "POSITION a -0\n", "APPEND a . - +\n",
		// Lines longer than the reader's 4 KiB buffer.
		"APPEND a " + long + " 1 2\n", "MAPPEND a 2\n1 2 " + long + "\n3 4 5\nPING\n", "NEAREST " + long + "\n",
		// MAPPEND counts at and past the cap, and a batch cut short.
		"MAPPEND a 10000\n1 2 3\n", "MAPPEND a 10001\nPING\n", "MAPPEND a 0\n", "MAPPEND a -1\n", "MAPPEND a +2\n1 2 3\n4 5 6\n",
		"MAPPEND a 3\n1 1 1\nnot a sample\n3 3 3\nPING\n", "MAPPEND a 2\n1 2 3 4\n\n",
		// The rest of the verbs.
		"SNAPSHOT a\nSNAPSHOT none\nSNAPSHOT\n", "IDS\nSTATS\nMETRICS\nPROMOTE\nREPLICATE 0\n", "QUIT\nPING\n",
		"SUBSCRIBE * opwtr:30 drop-oldest\n", "SUBSCRIBE a bogus\nPING\n", "SUBSCRIBE box 0 0 1 1 x y z\n",
		"NEAREST 1 2 3 0\nNEAREST 1 2 3 x\n", "SEAL\nEVICT 1 2\n", "FROB a b\n", "\n \n\t\n",
		// One field more than a verb takes, at the longest lines any verb reads.
		"QUERYTOL 0 0 10 10 0 20 1 2\n", "SUBSCRIBE BOX 0 0 1 1 none drop-oldest x\n", "QUERY 1 2 3 4 5 6 7 8 9 10 11 12\n",
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var got, want recorder
		srv := New(&got)
		srv.UseRegistry(metrics.NewRegistry())
		gotReplies := serveInput(srv, in)
		wantReplies := (&oracle{st: &want}).serve(in)

		if len(gotReplies) != len(wantReplies) {
			t.Fatalf("input %q: %d replies, oracle %d:\n got %q\nwant %q", in, len(gotReplies), len(wantReplies), gotReplies, wantReplies)
		}
		for i, g := range gotReplies {
			w := wantReplies[i]
			switch {
			case w == "METRICS\n":
				// The exposition depends on the registry, not the parser.
				if !strings.HasSuffix(g, "END\n") {
					t.Fatalf("input %q: METRICS reply %q does not end in END", in, g)
				}
			case uptimeField.MatchString(w):
				if g = uptimeField.ReplaceAllString(g, "uptime=0.000"); g != w {
					t.Fatalf("input %q: reply %d = %q, oracle %q", in, i, g, w)
				}
			case g != w:
				t.Fatalf("input %q: reply %d = %q, oracle %q", in, i, g, w)
			}
		}
		if !slices.Equal(got.calls, want.calls) {
			t.Fatalf("input %q: backend calls\n got %q\nwant %q", in, got.calls, want.calls)
		}
	})
}
