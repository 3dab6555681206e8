// Package proftest checks a command's profiling flags (see package
// profiling) from its tests.
package proftest

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// CheckFlags runs a command's run function on args twice, plain and with
// -cpuprofile, -memprofile and -trace, and requires the same output and
// three non-empty files; then it requires each flag to reject a path in a
// directory that does not exist rather than leave its file silently missing.
func CheckFlags(t *testing.T, run func(args []string, w io.Writer) error, args []string) {
	t.Helper()
	var plain, profiled strings.Builder
	if err := run(args, &plain); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := map[string]string{
		"-cpuprofile": filepath.Join(dir, "cpu.pprof"),
		"-memprofile": filepath.Join(dir, "mem.pprof"),
		"-trace":      filepath.Join(dir, "run.trace"),
	}
	withProfiles := append([]string(nil), args...)
	for flag, path := range files {
		withProfiles = append(withProfiles, flag, path)
	}
	if err := run(withProfiles, &profiled); err != nil {
		t.Fatal(err)
	}
	if profiled.String() != plain.String() {
		t.Error("profiling changed the run's output")
	}
	for flag, path := range files {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s file %s missing or empty: %v", flag, path, err)
		}
	}
	for flag := range files {
		unwritable := append(append([]string(nil), args...), flag, filepath.Join(dir, "missing", "out"))
		if err := run(unwritable, io.Discard); err == nil {
			t.Errorf("an unwritable %s path was accepted", flag)
		}
	}
}
