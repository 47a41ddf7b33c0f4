package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The machines this benchmark runs on are shared, and their speed
// drifts by up to a factor of two within seconds as neighbours come and
// go — far more than the changes the benchmark must resolve. While a
// child runs, the parent therefore times a fixed reference kernel every
// probeEvery on a thread of its own, in thread CPU time (so the child
// competing for the CPUs does not count, but a slower machine does),
// and scales the child's times by (calibRefSeconds ÷ mean kernel
// time)^calibExponent: times are stated in seconds of the reference
// machine at its nominal speed. The kernel calls no code of this
// repository, so no change under test can move it. It is a
// compute-bound sort: its slowdowns track the simulator's far better
// than a memory-bound kernel's do, though less than proportionally.

// calibRefSeconds is the kernel's time on the reference machine
// (results/ names it) at its nominal speed.
const calibRefSeconds = 0.012

// calibExponent is the elasticity of workload time to kernel time. On
// the reference machine, log wall time regressed on log kernel time
// over the reps of two ten-seed sets of every workload gave slopes of
// 1.0 to 2.0 per workload and set; at 1.5 the reps' residual spread
// (standard deviation of the log) is 4–13 %, against 7–23 %
// uncalibrated.
const calibExponent = 1.5

// probeEvery is the interval between kernel passes; a pass takes about
// a tenth of it.
const probeEvery = 100 * time.Millisecond

// calibrator holds the kernel's preallocated working set.
type calibrator struct {
	keys, buf []float64
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{keys: make([]float64, 1<<17), buf: make([]float64, 1<<17)}
	for i := range c.keys {
		c.keys[i] = rng.Float64()
	}
	return c
}

// pass runs the kernel once and returns its thread CPU seconds.
func (c *calibrator) pass() float64 {
	t0 := threadCPU()
	copy(c.buf, c.keys)
	sort.Float64s(c.buf)
	return threadCPU() - t0
}

// probe runs the kernel until stop is closed and returns the factor
// that scales measured seconds to reference seconds.
func probe(stop <-chan struct{}) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c := newCalibrator()
	var total float64
	for n := 1; ; n++ {
		total += c.pass()
		select {
		case <-stop:
			return math.Pow(calibRefSeconds/(total/float64(n)), calibExponent)
		case <-time.After(probeEvery): //rapidlint:allow nondeterminism — benchmark calibration interval; never feeds simulation state
		}
	}
}

// threadCPU is the calling thread's CPU time in seconds.
func threadCPU() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}
