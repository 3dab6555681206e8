// Package profiling implements the -cpuprofile, -memprofile and -trace flags
// of the repo's commands in one place.
package profiling

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the paths the profiling flags name; an empty path skips that
// output.
type Flags struct {
	cpu, mem, trace string
}

// Register adds -cpuprofile, -memprofile and -trace to fs and returns the
// Flags they set.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.mem, "memprofile", "", "write a heap profile to this file when the run ends")
	fs.StringVar(&f.trace, "trace", "", "write an execution trace of the run to this file (read it with go tool trace)")
	return f
}

// Start begins the CPU profile and the execution trace the flags name and
// returns the function that ends both and then writes the heap profile; the
// caller runs it once, after the work to be profiled. With no path set,
// Start and stop do nothing.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu, tr *os.File
	if f.cpu != "" {
		if cpu, err = os.Create(f.cpu); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			_ = cpu.Close() // the start error is the one to report
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	stopCPU := func() error {
		if cpu == nil {
			return nil
		}
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		return nil
	}
	if f.trace != "" {
		if tr, err = os.Create(f.trace); err != nil {
			return nil, errors.Join(stopCPU(), fmt.Errorf("trace: %w", err))
		}
		if err := trace.Start(tr); err != nil {
			_ = tr.Close()
			return nil, errors.Join(stopCPU(), fmt.Errorf("trace: %w", err))
		}
	}
	return func() error {
		var traceErr error
		if tr != nil {
			trace.Stop()
			if traceErr = tr.Close(); traceErr != nil {
				traceErr = fmt.Errorf("trace: %w", traceErr)
			}
		}
		return errors.Join(stopCPU(), traceErr, writeHeap(f.mem))
	}, nil
}

// writeHeap writes the heap profile of the live objects after a collection,
// so the profile shows what the run still holds rather than what the last GC
// cycle happened to leave.
func writeHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("heap profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	return nil
}
