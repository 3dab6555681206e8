// Package profiling implements the -cpuprofile and -memprofile flags of the
// repo's commands in one place.
package profiling

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath and returns the function
// that ends it and then writes a heap profile to memPath; the caller runs it
// once, after the work to be profiled. An empty path skips that profile, so
// with both empty Start and stop do nothing.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			_ = cpu.Close() // the start error is the one to report
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		var cpuErr error
		if cpu != nil {
			pprof.StopCPUProfile()
			if cpuErr = cpu.Close(); cpuErr != nil {
				cpuErr = fmt.Errorf("cpu profile: %w", cpuErr)
			}
		}
		return errors.Join(cpuErr, writeHeap(memPath))
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
