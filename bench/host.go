package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockBase anchors every timestamp the benchmark takes; stamps are
// nanoseconds since it, so they fit the 40 bits a traced relay frame carries.
var clockBase = time.Now()

// nanotime returns monotonic nanoseconds since the process started measuring.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// usage is one getrusage(RUSAGE_SELF) reading: process CPU (user+sys, every
// thread, GC workers included), the sys part alone, context switches and the
// peak resident set.
type usage struct {
	cpuNs, sysNs int64
	ctxsw        int64
	maxRSSMB     float64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail on Linux; a failure
		// means the numbers below would be garbage, so stop loudly.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	user := ru.Utime.Sec*1e9 + ru.Utime.Usec*1e3
	sys := ru.Stime.Sec*1e9 + ru.Stime.Usec*1e3
	return usage{
		cpuNs:    user + sys,
		sysNs:    sys,
		ctxsw:    ru.Nvcsw + ru.Nivcsw,
		maxRSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

// calibrate times a fixed integer kernel (about 200 ms on the reference host)
// that touches no memory beyond registers. It is run either side of a
// workload: the two readings say how fast the host was, and a gap between
// them says a neighbour moved in or out while the workload ran. The reading
// is reported, never used to normalise a metric.
func calibrate() float64 {
	start := nanotime()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 90_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(nanotime()-start) / 1e6
}

// calibSink keeps the calibration loop's result alive so the compiler cannot
// drop the loop.
var calibSink uint64

func loadavg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// benchProcs is the GOMAXPROCS every workload runs under: the shards = 2
// workload needs two cores, and pinning the others to the same value keeps
// GC and scheduler behaviour comparable across hosts with more.
const benchProcs = 2

// gcPercent is the collector's pace wherever the benchmark measures with the
// collector on: Go's default, whatever GOGC says in the environment.
const gcPercent = 100

// pinProcs fixes GOMAXPROCS and the collector's pace, and refuses hosts that cannot run two threads at once,
// where the sharded and live numbers would measure time slicing.
func pinProcs() error {
	if n := runtime.NumCPU(); n < benchProcs {
		return fmt.Errorf("host has %d CPU(s); the benchmark needs at least %d (the sharded and live workloads run two threads at once)", n, benchProcs)
	}
	runtime.GOMAXPROCS(benchProcs)
	debug.SetGCPercent(gcPercent)
	return nil
}

func hostHeader() string {
	return fmt.Sprintf("# host: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q loadavg1=%.2f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel(), loadavg1())
}
