package tokenaccount_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowed lists the exported functions and methods that no non-test
// file of this module names outside the file that declares them, each with
// the reason it stays exported. TestExportedSurfaceHasCallers fails on a
// flagged name missing from this list and on an entry that is no longer
// flagged, so the exported surface can only shrink unless a change says why
// it grows. Keys are "<dir>.<Func>" or "<dir>.<Recv>.<Method>", <dir> being
// the package directory relative to the module root.
var surfaceAllowed = map[string]string{
	"core.MustPureReactive":                  "test fixture: the flooding reference strategy of the protocol, runtime and simnet tests",
	"internal/profiling/proftest.CheckFlags": "test helper package: the profiling-flag check shared by the tokensim, sweep and paperfigs tests",
	"live.Env.Bus":                           "fault-injection fixture: the one handle on the memory bus's fault options",
	"meanfield.Equilibrium":                  "oracle: the mean-field equilibrium simulated balances are compared with",
	"meanfield.Simulate":                     "oracle: the mean-field trajectory simulated runs are compared with",
	"netmodel.Constant.MinDelay":             "interface method: netmodel.MinDelayer, called by PlanShards",
	"netmodel.Exponential.MinDelay":          "interface method: netmodel.MinDelayer, called by PlanShards",
	"netmodel.LogNormal.MinDelay":            "interface method: netmodel.MinDelayer, called by PlanShards",
	"netmodel.Lossy.MinDelay":                "interface method: netmodel.MinDelayer, called by PlanShards",
	"netmodel.Uniform.MinDelay":              "interface method: netmodel.MinDelayer, called by PlanShards",
	"netmodel.Zones.MinDelay":                "interface method: netmodel.MinDelayer, called by PlanShards",
	"runtime.Host.MessagesDelivered":         "test fixture: the delivered side of the sent = delivered + dropped balance the runtime, simnet and live tests check",
	"trace.AlwaysOnline":                     "test fixture: the failure-free trace the runtime and simnet tests edit into churn schedules",
	"trace.ReadCSV":                          "fuzzed (FuzzCSVRoundTrip); the tracegen tests read its output with it",
	"transport.MemoryBus.Block":              "fault-injection fixture of the memory bus",
	"transport.MemoryBus.Unblock":            "fault-injection fixture of the memory bus",
	"transport.TCPEndpoint.SetHandler":       "bench-only: the benchmark module still calls it",
	"transport.WithDropProbability":          "fault-injection fixture of the memory bus",
	"transport.WithPartition":                "fault-injection fixture of the memory bus",
	"workload.ReadStream":                    "fuzzed (FuzzStreamRoundTrip, FuzzReadStream); the tracegen tests read its output with it",
}

// surfaceScan lists the exported functions and methods of the module's
// non-test files whose name appears in no other non-test file. It is a word
// scan, as crude as a grep: a name counts as used wherever it appears as an
// identifier in another file, whatever the package or receiver, except as
// the name of a function or method declaration. Examples count as callers;
// bench/, a module of its own, and testdata/ do not.
func surfaceScan(t *testing.T) []string {
	t.Helper()
	type decl struct{ key, file, name string }
	var decls []decl
	uses := map[string]map[string]bool{} // identifier -> files that use it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !fn.Name.IsExported() {
				continue
			}
			key := filepath.ToSlash(filepath.Dir(path)) + "."
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if idx, ok := typ.(*ast.IndexExpr); ok {
					typ = idx.X
				}
				recv, ok := typ.(*ast.Ident)
				if !ok || !recv.IsExported() {
					continue
				}
				key += recv.Name + "."
			}
			decls = append(decls, decl{key + fn.Name.Name, path, fn.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				if uses[id.Name] == nil {
					uses[id.Name] = map[string]bool{}
				}
				uses[id.Name][path] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var flagged []string
	for _, d := range decls {
		used := false
		for file := range uses[d.name] {
			if file != d.file {
				used = true
				break
			}
		}
		if !used {
			flagged = append(flagged, d.key)
		}
	}
	sort.Strings(flagged)
	return flagged
}

// TestExportedSurfaceHasCallers is the ratchet on the module's exported
// surface: every exported function or method is named by some other
// non-test file, or is on surfaceAllowed with its reason.
func TestExportedSurfaceHasCallers(t *testing.T) {
	flagged := surfaceScan(t)
	t.Run("flagged names are allowed", func(t *testing.T) {
		for _, key := range flagged {
			if _, ok := surfaceAllowed[key]; !ok {
				t.Errorf("%s is exported but no other non-test file names it: give it a caller, unexport it, or add it to surfaceAllowed with a reason", key)
			}
		}
	})
	t.Run("allowed names are flagged", func(t *testing.T) {
		seen := map[string]bool{}
		for _, key := range flagged {
			seen[key] = true
		}
		for key, reason := range surfaceAllowed {
			if !seen[key] {
				t.Errorf("surfaceAllowed lists %s (%q), which is gone or now has a caller: delete the entry", key, reason)
			}
			if strings.TrimSpace(reason) == "" {
				t.Errorf("surfaceAllowed lists %s without a reason", key)
			}
		}
	})
}
