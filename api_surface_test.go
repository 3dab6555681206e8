package tokenaccount_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
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
	"apps/pushgossip.Update.Payload":         "test fixture: the update payload the runtime, simnet and live tests deliver by hand",
	"core.MustPureReactive":                  "test fixture: the flooding reference strategy of the protocol, runtime and simnet tests",
	"internal/profiling/proftest.CheckFlags": "test helper package: the profiling-flag check shared by the tokensim, sweep and paperfigs tests",
	"live.Env.Rand":                          "bench-only: the benchmark module's live relay draws from it",
	"meanfield.Equilibrium":                  "oracle: the mean-field equilibrium simulated balances are compared with",
	"meanfield.Generalized":                  "oracle: the mean-field model of the generalized strategy, which the experiment tests and root benchmarks compare with",
	"meanfield.Randomized":                   "oracle: the mean-field model of the randomized strategy, which the experiment tests and root benchmarks compare with",
	"meanfield.Simple":                       "oracle: the mean-field model of the simple strategy, which the experiment tests and root benchmarks compare with",
	"meanfield.Simulate":                     "oracle: the mean-field trajectory simulated runs are compared with",
	"metrics.Series.At":                      "test accessor: the experiment tests compare recorded series point by point",
	"metrics.Series.Max":                     "test accessor: the experiment and meanfield tests bound recorded series with it",
	"metrics.Series.Mean":                    "test accessor: the experiment tests compare recorded series by their mean",
	"protocol.Node.Receive":                  "the Node facade's ONMESSAGE (Algorithm 4): the protocol and runtime tests drive single nodes through it; the Host calls Slab.Receive",
	"protocol.Node.Tick":                     "the Node facade's proactive round (Algorithm 4): the protocol and runtime tests drive single nodes through it; the Host calls Slab.Tick",
	"runtime.Host.MessagesDelivered":         "test fixture: the delivered side of the sent = delivered + dropped balance the runtime, simnet and live tests check",
	"runtime.Host.N":                         "accessor: the runtime, simnet and live tests size their loops over a Host with it",
	"runtime.Host.SetOffline":                "churn API: the Host's trace hook calls it in its own file, the runtime, simnet and live tests drive churn by hand with it",
	"runtime.Host.SetOnline":                 "churn API: the Host's trace hook calls it in its own file, the runtime, simnet and live tests drive churn by hand with it",
	"simnet.Env.Schedule":                    "bench-only: the benchmark module's traced environment still calls it",
	"trace.AlwaysOnline":                     "test fixture: the failure-free trace the runtime and simnet tests edit into churn schedules",
	"trace.ReadCSV":                          "fuzzed (FuzzCSVRoundTrip); the tracegen tests read its output with it",
	"transport.TCPEndpoint.Send":             "bench-only: the benchmark module's traced transport still calls it",
	"transport.TCPEndpoint.SetHandler":       "bench-only: the benchmark module still calls it",
	"workload.ReadStream":                    "fuzzed (FuzzStreamRoundTrip, FuzzReadStream); the tracegen tests read its output with it",
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string // the compiled export data, with -export
	Module     *struct{ Main bool }
}

// surfaceScan lists the exported functions and methods of the module's
// non-test files that no other non-test file of the module refers to. It
// type-checks every package of the module from source — the standard
// library from the export data `go list -export` compiles, so the scan needs
// no network and no module beyond this one — and resolves every identifier
// to the object it denotes, so a selector counts for the method of its
// receiver's type only: x.Pending() on a sim.Engine is no use of a
// blockcast.Chain's Pending. A method also counts as used when its type
// implements an interface with that method whose method some non-test file
// calls, or an interface of the standard library, whose callers (fmt, sort,
// encoding/json, ...) the scan does not see. Examples count as callers;
// bench/, a module of its own, and testdata/ do not.
func surfaceScan(t *testing.T) []string {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-json", "./...").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	exports := map[string]string{}               // standard package -> export data file
	checked := map[string]*types.Package{}       // module package -> its source-checked package
	stdIfaces := map[string][]*types.Interface{} // method name -> standard interfaces with it
	seenStd := map[string]bool{}                 // standard packages filed in stdIfaces
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		p, err := gc.Import(path)
		if err == nil && !seenStd[path] {
			seenStd[path] = true
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addInterface(stdIfaces, tn.Type())
				}
			}
		}
		return p, err
	})
	addInterface(stdIfaces, types.Universe.Lookup("error").Type())

	type decl struct {
		key, file string
		fn        *types.Func
	}
	var decls []decl
	usedIn := map[*types.Func]map[string]bool{} // function -> non-test files naming it
	var moduleIfaces []*types.Interface
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			t.Fatal(err)
		}
		if lp.Module == nil || !lp.Module.Main {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		dir, err := filepath.Rel(root, lp.Dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				if usedIn[fn] == nil {
					usedIn[fn] = map[string]bool{}
				}
				usedIn[fn][fset.Position(id.Pos()).Filename] = true
			}
		}
		// Every interface the package spells out, named or not: a type
		// assertion to interface{ Processed() uint64 } calls Processed too.
		for _, tv := range info.Types {
			if iface, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				moduleIfaces = append(moduleIfaces, iface)
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				key := filepath.ToSlash(dir) + "."
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					named := receiverNamed(recv.Type())
					if named == nil || !named.Obj().Exported() {
						continue
					}
					key += named.Obj().Name() + "."
				}
				decls = append(decls, decl{key + fn.Name(), fset.Position(fd.Pos()).Filename, fn})
			}
		}
	}
	// A module interface's method reaches every implementation once some
	// non-test file calls it.
	calledIfaces := map[string][]*types.Interface{}
	for _, iface := range moduleIfaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if m := iface.Method(i); len(usedIn[m]) > 0 {
				calledIfaces[m.Name()] = append(calledIfaces[m.Name()], iface)
			}
		}
	}
	implements := func(fn *types.Func, ifaces []*types.Interface) bool {
		named := receiverNamed(fn.Type().(*types.Signature).Recv().Type())
		for _, iface := range ifaces {
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}
	var flagged []string
	for _, d := range decls {
		used := false
		for file := range usedIn[d.fn] {
			if file != d.file {
				used = true
				break
			}
		}
		if !used && d.fn.Type().(*types.Signature).Recv() != nil {
			used = implements(d.fn, calledIfaces[d.fn.Name()]) || implements(d.fn, stdIfaces[d.fn.Name()])
		}
		if !used {
			flagged = append(flagged, d.key)
		}
	}
	sort.Strings(flagged)
	return flagged
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addInterface files typ under each of its methods' names if it is an
// interface.
func addInterface(byMethod map[string][]*types.Interface, typ types.Type) {
	iface, ok := typ.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		byMethod[name] = append(byMethod[name], iface)
	}
}

// receiverNamed returns the named type of a method receiver, pointer or
// not, or nil.
func receiverNamed(typ types.Type) *types.Named {
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, _ := typ.(*types.Named)
	return named
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
