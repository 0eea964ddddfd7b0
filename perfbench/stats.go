package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// sample is a set of measurements of one quantity within a run. Timings are
// reported as the median, with the quartiles and the sample count on the
// side, so one slow repetition cannot move a gated number.
type sample []float64

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile interpolates linearly between the closest ranks (the "inclusive"
// definition: q=0 is the minimum, q=1 the maximum). An empty sample is 0.
func (s sample) quantile(q float64) float64 {
	c := s.sorted()
	if len(c) == 0 {
		return 0
	}
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.quantile(0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mbps is megabytes (10^6 bytes) per second.
func mbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// pct returns part/whole as a percentage, 0 when whole is 0.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// clock reads the time base every timing of the run is taken on: the wall
// clock, unless the workload switches it to cpuClock (the kernel
// workloads do). Run lengths and deadlines stay on the wall clock.
var clock = wallClock

var epoch = time.Now()

// wallClock is the monotonic wall time since the process started.
func wallClock() time.Duration { return time.Since(epoch) }

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuClock is the CPU time, user and system, all the process's threads
// have used. Time the process is not running, because another process or
// (with the kernel's steal accounting) the hypervisor has the core, does
// not count.
func cpuClock() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
