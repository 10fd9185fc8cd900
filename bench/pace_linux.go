package main

import (
	"runtime"
	"syscall"
	"time"
)

// The open-loop writers must hit due times 100 µs apart. time.Sleep cannot:
// the Go runtime parks in epoll with a millisecond timeout, so a
// sub-millisecond sleep lasts a millisecond. nanosleep(2) with a minimal
// timer slack can in principle, but every sleep halts the vCPU and the
// wake-up then costs anything from 15 µs to a millisecond, which showed up
// as a two-mode latency distribution. So the last stretch before a due time
// is spun, with sched_yield(2) in the loop: the vCPU stays awake, and the
// server's threads, which share the CPU (pin_linux.go), get it at once
// instead of at the spinner's next system call.

// spinBelow is the wait below which pauseUntil spins instead of sleeping.
const spinBelow = 1500 * time.Microsecond

// pauseUntil returns once clk reads due or later.
func pauseUntil(clk clock, due int64) {
	for {
		wait := time.Duration(due - clk.now())
		if wait <= 0 {
			return
		}
		if wait > spinBelow {
			time.Sleep(wait - spinBelow)
			continue
		}
		// Yield twice over: to goroutines queued on this P (the feed
		// reader), then to threads queued on this CPU (the server).
		runtime.Gosched()
		_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) // cannot fail
	}
}
