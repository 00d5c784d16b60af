package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// pinToOneCPU confines every thread of this process, and so every child it
// starts from then on, to the lowest CPU it may run on.
//
// Left to spread over the sandbox's two CPUs, server, generator and garbage
// collector land on them by luck, and on this machine that luck is worth
// 30 %: the reference kernel (stats.go), timed every second beside such a
// run, flips between 52 ms and 67 ms from one sample to the next, and ten
// runs of ingest_firehose had interquartile ranges of 11 % on values/s, 12 %
// on query time and 8 % on server CPU seconds. With the whole process tree
// on one CPU the kernel read 51-52 ms in 39 runs of 40 and the same metrics
// stayed within 3-5 %, at a higher rate (388 k values/s against 299 k). So
// the generator and hsqd share one CPU, and the other is left to the kernel.
func pinToOneCPU() error {
	var allowed, one [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	for i, word := range allowed {
		if word != 0 {
			one[i] = word & -word
			break
		}
	}
	// Twice: a thread the runtime starts while the first pass runs inherits
	// the mask of its creator, which that pass may not have reached yet.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// A thread that exited since the listing is no failure.
			if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}
