package lint

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testOnlyFuncs names the internal functions that only tests call and
// that stay anyway, because they are a test's reference or harness.
var testOnlyFuncs = map[string]string{
	"internal/dataio.ReadLabeled":               "reads cabd-gen output back in TestLabeledRoundTrip; fuzzed",
	"internal/lint.Loader.ModulePath":           "the loader tests check the module path read from go.mod",
	"internal/lint/cfg.Graph.Dump":              "prints a CFG for the cfg tests' expected shapes",
	"internal/ml/fft.FFT":                       "the forward transform the fft tests invert and check",
	"internal/ml/forest.Forest.Predict":         "the forest tests' class-level check of the ensemble",
	"internal/ml/forest.Forest.PredictProbaOOB": "per-row oracle for TrainingProba's out-of-bag distributions",
	"internal/ml/nn.VAE.AccumulateGrad":         "the VAE's gradient check",
	"internal/ml/nn.VAE.Grads":                  "the VAE's gradient check",
	"internal/ml/nn.VAE.NegELBO":                "the VAE's gradient check",
	"internal/obs.FakeClock.Advance":            "the fake clock of the deterministic timing tests",
	"internal/obs.FakeClock.SetStep":            "the fake clock of the deterministic timing tests",
	"internal/obs.NewFakeClock":                 "the fake clock of the deterministic timing tests",
	"internal/obs.Recorder.GaugeValue":          "reads a gauge back in the recorder and server tests",
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
// used only in a test file, a comment or a string is unreferenced, and a
// use anywhere else, a call from a command or a method an interface
// declares keeps a function.
func TestUnreferencedFuncsScan(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/a/a.go": `package a

import "fmt"

type T struct{}

func Used() {}
func Dead() {} // Dead is named in this comment only.
func (T) Gone() {}
func (T) String() string { return fmt.Sprint("Dead") }
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
`,
		"cmd/c/main.go": `package main

import "m/internal/a"

func main() { a.Used() }
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
	want := []string{"internal/a.Dead", "internal/a.T.Gone"}
	if !slices.Equal(got, want) {
		t.Fatalf("unreferenced = %v, want %v", got, want)
	}
}

// unreferencedFuncs returns, sorted, every function and method declared
// in a non-test file under root's internal/ whose name no non-test file
// under root uses. Names are matched as parsed identifiers, so comments
// and strings never count, and they are not resolved: a use of a name
// references every declaration of it, and a declaration does not
// reference itself. Like the go tool, the scan skips testdata and
// directories whose names start with "." or "_". A method also counts as
// referenced when an interface declared under root, or in a standard
// library package imported from there, directly or not, has a method of
// its name: it may be called only through that interface. init and main
// are never reported. Each result is the declaring directory, relative
// to root, then the receiver type, if any, then the name, dot-separated.
func unreferencedFuncs(root string) ([]string, error) {
	type decl struct {
		key, name string
		method    bool
	}
	var decls []decl
	used := map[string]bool{}
	ifaceMethods := map[string]bool{}
	imports := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
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
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for _, spec := range f.Imports {
			if p, err := strconv.Unquote(spec.Path.Value); err == nil {
				imports[p] = true
			}
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if rel == "internal" || strings.HasPrefix(rel, "internal/") {
				decls = append(decls, decl{rel + "." + recvPrefix(fd) + fd.Name.Name, fd.Name.Name, fd.Recv != nil})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
				}
			case *ast.InterfaceType:
				addMethodNames(ifaceMethods, n)
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := stdInterfaceMethods(imports, ifaceMethods); err != nil {
		return nil, err
	}
	var out []string
	for _, d := range decls {
		if used[d.name] || d.name == "init" || d.name == "main" || (d.method && ifaceMethods[d.name]) {
			continue
		}
		out = append(out, d.key)
	}
	slices.Sort(out)
	return out, nil
}

// recvPrefix returns a method's receiver type name and a dot, or "" for
// a function.
func recvPrefix(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}

// addMethodNames adds the names of the methods it declares to names.
func addMethodNames(names map[string]bool, it *ast.InterfaceType) {
	for _, field := range it.Methods.List {
		for _, name := range field.Names {
			names[name.Name] = true
		}
	}
}

// stdInterfaceMethods adds to names the methods of every interface
// declared in the standard library packages of imports and in those they
// import, read from GOROOT's source. Paths outside GOROOT, the module's
// own included, are skipped.
func stdInterfaceMethods(imports map[string]bool, names map[string]bool) error {
	src := filepath.Join(build.Default.GOROOT, "src")
	var queue []string
	for p := range imports {
		queue = append(queue, p)
	}
	seen := map[string]bool{}
	fset := token.NewFileSet()
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if seen[p] {
			continue
		}
		seen[p] = true
		dir := filepath.Join(src, filepath.FromSlash(p))
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		pkg, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			continue // no buildable Go files here
		}
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addMethodNames(names, it)
				}
				return true
			})
		}
		queue = append(queue, pkg.Imports...)
	}
	return nil
}
