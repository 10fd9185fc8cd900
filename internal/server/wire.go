package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/trajectory"
)

// The protocol's lexical layer. Lines are parsed where bufio.Reader holds
// them: fields are subslices of the reader's buffer, numbers are parsed from
// those bytes, and a known verb resolves to the protocol's own copy of its
// name. Steady-state ingest therefore allocates nothing per point; only the
// object ID of an APPEND or MAPPEND becomes a string.

// maxLineLen bounds a single protocol line, matching the Scanner buffer cap
// this reader replaced: a client cannot make the server buffer unbounded
// garbage.
const maxLineLen = 1 << 20

var errLineTooLong = errors.New("server: line exceeds 1 MiB")

// readCommandLine reads one newline-terminated line, enforcing maxLineLen.
// The line keeps its line ending (splitFields treats it as white space) and
// aliases br's buffer, so it is valid only until the next read; only a line
// longer than the buffer is copied. A final unterminated line before EOF is
// returned as-is, Scanner-style.
func readCommandLine(br *bufio.Reader) ([]byte, error) {
	var long []byte
	for {
		frag, err := br.ReadSlice('\n')
		switch {
		case err == nil:
			if long == nil {
				return frag, nil
			}
			return append(long, frag...), nil
		case errors.Is(err, bufio.ErrBufferFull):
			long = append(long, frag...)
			if len(long) > maxLineLen {
				return nil, errLineTooLong
			}
		default:
			if len(long)+len(frag) > 0 && errors.Is(err, io.EOF) {
				return append(long, frag...), nil
			}
			return nil, err
		}
	}
}

// maxFields is the most fields any verb reads: SUBSCRIBE BOX with its four
// coordinates, a spec, a policy and one argument too many.
const maxFields = 9

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits line around runs of white space exactly as
// strings.Fields does — including U+0085 and U+00A0, and with invalid UTF-8
// kept inside fields — appending the fields to dst[:0] as subslices of line.
// It stops once dst is full: every verb rejects a field count above its own
// before it looks past maxFields, so the fields it never sees cannot change
// a reply.
func splitFields(dst [][]byte, line []byte) [][]byte {
	dst = dst[:0]
	start := -1 // first byte of the field being scanned, -1 between fields
	for i := 0; i < len(line); {
		space, width := false, 1
		if c := line[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, width = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			dst = append(dst, line[start:i])
			if len(dst) == cap(dst) {
				return dst
			}
			start = -1
		case !space && start < 0:
			start = i
		}
		i += width
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// commandName upper-cases a verb exactly as strings.ToUpper does. A known
// command comes back as the protocol's own copy of its name, so matching one
// allocates nothing.
func commandName(verb []byte) string {
	var buf [16]byte
	if len(verb) > len(buf) {
		return strings.ToUpper(string(verb))
	}
	up := buf[:len(verb)]
	for i, c := range verb {
		if c >= utf8.RuneSelf {
			// Non-ASCII case mapping can shrink a rune to an ASCII letter
			// ("ı" upper-cases to "I"), so only strings.ToUpper knows.
			return strings.ToUpper(string(verb))
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	for _, name := range commands {
		if string(up) == name {
			return name
		}
	}
	return string(up)
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseFloat is strconv.ParseFloat(string(b), 64), bit for bit and error
// for error, without the string. A plain decimal — [+-]digits[.digits] with
// at most 15 significant digits and 22 fraction digits — is mantissa/10^k
// with both operands exact in a float64, so one IEEE division rounds it
// correctly: strconv's own exact fast path. Everything else (exponents,
// Inf, NaN, hex, more digits, malformed input) goes to strconv, whose
// argument does not escape.
func parseFloat(b []byte) (float64, error) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		i, neg = 1, b[0] == '-'
	}
	var mant uint64
	digits, sig, frac, dot := 0, 0, 0, false
	for ; i < len(b); i++ {
		c := b[i]
		switch {
		case '0' <= c && c <= '9':
			digits++
			if dot {
				frac++
			}
			if sig > 0 || c != '0' {
				sig++
			}
			mant = mant*10 + uint64(c-'0')
		case c == '.' && !dot:
			dot = true
		default:
			return strconv.ParseFloat(string(b), 64)
		}
		if sig > 15 || frac >= len(pow10) {
			return strconv.ParseFloat(string(b), 64)
		}
	}
	if digits == 0 {
		return strconv.ParseFloat(string(b), 64)
	}
	f := float64(mant)
	if neg {
		f = -f
	}
	return f / pow10[frac], nil
}

// parseFloats parses every field into dst[:0]. An error names the field by
// its 1-based position among fields.
func parseFloats(dst []float64, fields [][]byte) ([]float64, error) {
	dst = dst[:0]
	for i, f := range fields {
		v, err := parseFloat(f)
		if err != nil {
			return nil, fmt.Errorf("argument %d: %v", i+1, err)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseSample parses the three fields "<t> <x> <y>" of a sample.
func parseSample(fields [][]byte) (trajectory.Sample, error) {
	var buf [3]float64
	v, err := parseFloats(buf[:0], fields)
	if err != nil {
		return trajectory.Sample{}, err
	}
	return trajectory.S(v[0], v[1], v[2]), nil
}
