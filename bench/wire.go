package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"time"
)

// wireConn is the load generator's data-plane connection: it writes
// pre-rendered command bytes and reads replies without allocating, so what
// is timed is the server. Control-plane commands (STATS, SNAPSHOT, SEAL,
// METRICS) go through server.Client instead.
type wireConn struct {
	conn net.Conn
	br   *bufio.Reader
}

// phaseTimeout bounds every load phase: a wedged server surfaces as an I/O
// timeout, never as a hang.
const phaseTimeout = 150 * time.Second

// dialWire connects for one load phase; every read and write on the
// connection fails once phaseTimeout has passed.
func dialWire(addr string) (*wireConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if err := conn.SetDeadline(time.Now().Add(phaseTimeout)); err != nil {
		_ = conn.Close() // the deadline error is the one to report
		return nil, err
	}
	return &wireConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (w *wireConn) close() { _ = w.conn.Close() } // nothing buffered on our side to lose

func (w *wireConn) send(req []byte) error {
	_, err := w.conn.Write(req)
	return err
}

// readLine returns the next reply line without its newline. The slice is
// valid until the next read.
func (w *wireConn) readLine() ([]byte, error) {
	line, err := w.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

var (
	replyOK  = []byte("OK")
	replyEND = []byte("END")
	replyERR = []byte("ERR ")
)

// replyError is a reply the server delivered but the harness did not want:
// the command failed, the connection is still usable.
type replyError struct{ line string }

func (e *replyError) Error() string { return fmt.Sprintf("server replied %q", e.line) }

// expectOK reads one reply line and fails unless it starts with "OK".
func (w *wireConn) expectOK() error {
	line, err := w.readLine()
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(line, replyOK) {
		return &replyError{string(line)}
	}
	return nil
}

// readList consumes data lines up to END, handing each to fn when fn is not
// nil, and returns the line and byte counts of the reply.
func (w *wireConn) readList(fn func(line []byte)) (lines, size int, err error) {
	for {
		line, err := w.readLine()
		if err != nil {
			return lines, size, err
		}
		size += len(line) + 1
		if bytes.Equal(line, replyEND) {
			return lines, size, nil
		}
		if bytes.HasPrefix(line, replyERR) {
			return lines, size, &replyError{string(line)}
		}
		lines++
		if fn != nil {
			fn(line)
		}
	}
}
