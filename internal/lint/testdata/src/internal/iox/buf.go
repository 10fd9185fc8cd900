package iox

import "bufio"

// Buffered writes through a bufio.Writer: its write errors stick and
// resurface at Flush, so the dropped write is conventional and the dropped
// Flush is the lost error.
func Buffered(w *bufio.Writer) {
	w.WriteString("line\n")
	w.Flush()
}
