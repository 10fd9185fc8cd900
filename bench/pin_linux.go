package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// procsOnOneCPU is the GOMAXPROCS of the generator and of the server it
// starts, on their one CPU: what both would have on this two-CPU machine.
// With a single P, a goroutine blocked in a system call (an fsync, a socket
// read) holds the P until the Go runtime's monitor takes it back, which
// takes 20 µs to 10 ms depending on how idle the process has been; that
// showed up as millisecond tails in the WAL workload and as feed lines
// delivered only when the pacing goroutine next blocked.
const procsOnOneCPU = 2

// cpuMask is a sched_setaffinity(2) mask, wide enough for 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// pinToOneCPU confines the benchmark — this process and, by inheritance,
// every server it starts — to the lowest CPU it may use.
//
// The host runs this guest's two vCPUs now on two cores and now on one, in
// stretches of a minute or two (README.md, "One CPU"): whatever keeps both
// busy at once runs up to twice as slow in the second kind of stretch, and no
// statistic within a run removes that. Work that never uses two CPUs at once
// does not see it. So generator and server share one CPU.
//
// The mask is set on the calling thread and the program is executed again:
// the new image starts with that one thread's mask, and every thread and
// child created later inherits it. It returns nil in the program that is
// already confined to one CPU.
func pinToOneCPU() error {
	runtime.LockOSThread() // the mask below is this thread's, and exec keeps it
	defer runtime.UnlockOSThread()
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	if allowed.count() == 1 {
		runtime.GOMAXPROCS(procsOnOneCPU)
		return os.Setenv("GOMAXPROCS", strconv.Itoa(procsOnOneCPU)) // the server child inherits it
	}
	var one cpuMask
	for i, w := range allowed {
		if w != 0 {
			one[i] = w & -w
			break
		}
	}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return fmt.Errorf("exec %s: %w", exe, syscall.Exec(exe, os.Args, os.Environ()))
}

// boxCPUs is the number of CPUs the machine has online, whatever this
// process is confined to; 0 if /proc does not say.
func boxCPUs() int {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return 0
	}
	n := 0
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "processor") {
			n++
		}
	}
	return n
}
