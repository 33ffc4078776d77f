package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyFuncs names the internal functions that only tests call and
// that stay anyway, because they are a test's reference or harness.
var testOnlyFuncs = map[string]string{
	"internal/dataio.ReadLabeled":               "reads cabd-gen output back in TestLabeledRoundTrip; fuzzed",
	"internal/faultgen.Chaos":                   "builds the chaos streams of the stream golden and the resume tests",
	"internal/lint.Loader.ModulePath":           "the loader tests check the module path read from go.mod",
	"internal/lint/cfg.Graph.Dump":              "prints a CFG for the cfg tests' expected shapes",
	"internal/ml/fft.FFT":                       "the forward transform the fft tests invert and check",
	"internal/ml/forest.Forest.Predict":         "the forest tests' class-level check of the ensemble",
	"internal/ml/forest.Forest.PredictProbaOOB": "per-row oracle for TrainingProba's out-of-bag distributions",
	"internal/ml/forest.Forest.Snapshot":        "the reference tests compare ensembles through it",
	"internal/ml/forest.TrainWeighted":          "the row-major reference for core's sequential oracle and TestTrainMatrixMatchesRowMajor",
	"internal/ml/nn.VAE.AccumulateGrad":         "the VAE's gradient check",
	"internal/ml/nn.VAE.Grads":                  "the VAE's gradient check",
	"internal/ml/nn.VAE.NegELBO":                "the VAE's gradient check",
	"internal/ml/nn.VAE.Params":                 "the VAE's gradient check",
	"internal/obs.FakeClock.Advance":            "the fake clock of the deterministic timing tests",
	"internal/obs.FakeClock.SetStep":            "the fake clock of the deterministic timing tests",
	"internal/obs.NewFakeClock":                 "the fake clock of the deterministic timing tests",
	"internal/obs.Recorder.GaugeValue":          "reads a gauge back in the recorder and server tests",
	"internal/oracle.Oracle.Queries":            "cross-checks Result.Queries",
	"internal/sanitize.Report.Clean":            "public API through cabd.SanitizeReport",
	"internal/sax.PAA":                          "reference for the SAX kernels, through Word in sax_test.go",
	"internal/stats.MAD":                        "reference for RobustZ",
}

// TestNoUnreferencedInternalFuncs fails on every function or method
// declared under internal/ that no non-test file of the repository
// references, cmd/, examples/ and perfbench/ included, unless
// testOnlyFuncs keeps it. An entry there that something references now
// fails too, so the list stays exact.
func TestNoUnreferencedInternalFuncs(t *testing.T) {
	got, err := unreferencedFuncs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if _, ok := testOnlyFuncs[name]; !ok {
			t.Errorf("%s: no non-test file references it; delete it, or keep it in testOnlyFuncs with a reason", name)
		}
	}
	for name := range testOnlyFuncs {
		if !slices.Contains(got, name) {
			t.Errorf("testOnlyFuncs keeps %s, but it is referenced or gone; drop the entry", name)
		}
	}
}

// TestUnreferencedFuncsScan runs the scan over a small module: a name
// used only in a test file, a comment or a string is unreferenced, and so
// is one whose only uses resolve to a same-named function or method of
// another package, or a method named like one of a standard library
// interface its type does not implement. A use anywhere else, a call
// from a command, a method an interface of the module declares or one of
// an implemented standard library interface keeps a function.
func TestUnreferencedFuncsScan(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module m\n",
		"internal/a/a.go": `package a

import "fmt"

type T struct{}

func Used() {}
func Dead() {} // Dead is named in this comment only.
func (T) Gone() {}
func (T) String() string { return fmt.Sprint("Dead") }
func (T) Width()         {}
func (T) Visit() {}
func helper() {}
func init()   { helper() }
`,
		"internal/a/a_test.go": `package a

func use() { Dead(); T{}.Gone() }
`,
		"internal/a/testdata/x.go": `package x

func Dead() {}
`,
		"internal/b/b.go": `package b

type visitor interface{ Visit() }

type V struct{}

func Dead()      {}
func (V) Gone() {}
`,
		"cmd/c/main.go": `package main

import (
	"m/internal/a"
	"m/internal/b"
)

func main() { a.Used(); b.Dead(); b.V{}.Gone() }
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := unreferencedFuncs(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/a.Dead", "internal/a.T.Gone", "internal/a.T.Width"}
	if !slices.Equal(got, want) {
		t.Fatalf("unreferenced = %v, want %v", got, want)
	}
}

// unreferencedFuncs returns, sorted, every function and method declared
// in a non-test file under root's internal/ that no non-test file of the
// module at root references. The module is loaded and type-checked as
// cabd-lint loads it, so a reference is an identifier the type checker
// resolves to that very declaration: comments, strings and same-named
// declarations elsewhere never count, and a declaration does not
// reference itself. Like the go tool, the scan skips testdata and
// directories whose names start with "." or "_". A method also counts as
// referenced when an interface may call it. An interface the module
// declares counts by the method's name alone, since a generic one cannot
// be checked uninstantiated. The predeclared error and the named
// interfaces of the standard library packages the module imports,
// directly or not, count only when the method's type, or a pointer to
// it, implements them, so hash.Hash does not keep every method named
// Reset. init and main are never reported. Each result is the declaring
// directory, relative to root, then the receiver type, if any, then the
// name, dot-separated.
func unreferencedFuncs(root string) ([]string, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		return nil, err
	}
	type decl struct {
		key string
		fn  *types.Func
	}
	var decls []decl
	used := map[*types.Func]bool{}
	ifaceMethods := map[string]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	var std []*types.Package
	for _, path := range paths {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		if len(p.TypeErrors) > 0 {
			return nil, p.TypeErrors[0]
		}
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, imp := range p.Types.Imports() {
			if !l.inModule(imp.Path()) {
				std = append(std, imp)
			}
		}
		rel, _ := strings.CutPrefix(path, l.modulePath+"/")
		internal := rel == "internal" || strings.HasPrefix(rel, "internal/")
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if internal {
						fn := p.Info.Defs[n.Name].(*types.Func)
						key := rel + "." + fn.Name()
						if named := recvNamed(fn); named != nil {
							key = rel + "." + named.Obj().Name() + "." + fn.Name()
						}
						decls = append(decls, decl{key, fn})
					}
				case *ast.InterfaceType:
					for _, field := range n.Methods.List {
						for _, name := range field.Names {
							ifaceMethods[name.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	seen := map[*types.Package]bool{}
	for len(std) > 0 {
		pkg := std[len(std)-1]
		std = std[:len(std)-1]
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		std = append(std, pkg.Imports()...)
	}
	var out []string
	for _, d := range decls {
		name := d.fn.Name()
		method := recvNamed(d.fn) != nil
		if used[d.fn] || name == "init" || name == "main" || (method && (ifaceMethods[name] || implementsOne(d.fn, ifaces))) {
			continue
		}
		out = append(out, d.key)
	}
	slices.Sort(out)
	return out, nil
}

// recvNamed returns the named type a method is declared on, or nil for a
// function.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// implementsOne reports whether method fn's type, or a pointer to it,
// implements one of ifaces that has a method of fn's name. A generic
// type is not instantiated, so for it the name alone decides.
func implementsOne(fn *types.Func, ifaces []*types.Interface) bool {
	named := recvNamed(fn)
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); obj == nil {
			continue
		}
		if named.TypeParams().Len() > 0 || types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
