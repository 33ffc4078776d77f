// Package lint is cabd's in-tree static-analysis engine: a stdlib-only
// loader (go/parser + go/types with a source importer — no
// golang.org/x/tools) plus a registry of repo-specific analyzers that
// enforce the pipeline invariants the compiler cannot check: clock
// injection (wallclock), fixed-seed determinism (maporder, seededrand,
// floateq), panic isolation (recoverwrap) and context discipline
// (ctxdiscipline).
//
// Suppression: a `//cabd:lint-ignore <rule> <reason>` comment silences
// that rule's diagnostics on its own line and the next one. The reason is
// mandatory — an ignore without one is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Name       string // package clause name ("main" for binaries)
	Files      []*ast.File
	Fset       *token.FileSet
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// Loader parses and type-checks the packages of one module. Imports of
// module-internal paths are resolved against the module root; everything
// else (the standard library) is type-checked from GOROOT source via the
// stdlib "source" importer. Not safe for concurrent use.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	buildCtx   build.Context
	std        types.ImporterFrom
	pkgs       map[string]*Package // import path -> loaded package
	loading    map[string]bool     // cycle guard
}

// NewLoader returns a loader rooted at the module directory containing
// go.mod (the module path is read from it).
func NewLoader(moduleRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %s is not a module root: %v", moduleRoot, err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", moduleRoot)
	}
	return NewLoaderAt(moduleRoot, modPath), nil
}

// NewLoaderAt returns a loader treating root as the source tree of the
// module named modulePath, without requiring a go.mod (the fixture
// harness loads testdata trees this way).
func NewLoaderAt(root, modulePath string) *Loader {
	if abs, err := filepath.Abs(root); err == nil {
		root = abs // keep FileSet positions absolute and Rel-able
	}
	fset := token.NewFileSet()
	ctx := build.Default
	// Pure-Go view of every package: the repo is cgo-free and the source
	// importer must not trip over cgo-only files in transitive stdlib.
	ctx.CgoEnabled = false
	return &Loader{
		fset:       fset,
		moduleRoot: root,
		modulePath: modulePath,
		buildCtx:   ctx,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
}

// ModulePath returns the module path the loader resolves against.
func (l *Loader) ModulePath() string { return l.modulePath }

// inModule reports whether path names a package of the loaded module.
func (l *Loader) inModule(path string) bool {
	return path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")
}

// dirOf maps a module-internal import path to its directory.
func (l *Loader) dirOf(path string) string {
	if path == l.modulePath {
		return l.moduleRoot
	}
	rel := strings.TrimPrefix(path, l.modulePath+"/")
	return filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// recursively through this loader, everything else goes to the stdlib
// source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if !l.inModule(path) {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	if len(p.TypeErrors) > 0 {
		return p.Types, fmt.Errorf("package %s has type errors: %v", path, p.TypeErrors[0])
	}
	return p.Types, nil
}

// Load parses and type-checks the module package named by importPath
// (cached). Test files (_test.go) are excluded: every lint rule exempts
// them, and loading only library code keeps the analysis cycle-free and
// fast.
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if !l.inModule(importPath) {
		return nil, fmt.Errorf("lint: %s is not inside module %s", importPath, l.modulePath)
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	p, err := l.loadDir(l.dirOf(importPath), importPath)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = p
	return p, nil
}

// loadDir does the actual parse + type-check of one directory.
func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	bp, err := l.buildCtx.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %v", importPath, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %v", importPath, err)
		}
		files = append(files, f)
	}
	p := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Name:       bp.Name,
		Files:      files,
		Fset:       l.fset,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			p.TypeErrors = append(p.TypeErrors, err)
		},
	}
	p.Types, _ = conf.Check(importPath, l.fset, files, p.Info)
	return p, nil
}

// Expand resolves package patterns relative to the module root into a
// sorted list of import paths. Supported forms: "./..." (whole module),
// "./dir/..." (subtree), "./dir" or "dir" (single package), and a full
// import path inside the module. Directories named testdata or vendor,
// and those starting with "." or "_", are skipped by the recursive forms.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case l.inModule(pat):
			add(pat)
		case strings.HasSuffix(pat, "..."):
			sub := strings.TrimSuffix(pat, "...")
			sub = strings.TrimSuffix(sub, "/")
			sub = strings.TrimPrefix(sub, "./")
			root := filepath.Join(l.moduleRoot, filepath.FromSlash(sub))
			paths, err := l.walk(root)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		default:
			rel := strings.TrimPrefix(pat, "./")
			if rel == "" || rel == "." {
				add(l.modulePath)
				continue
			}
			add(l.modulePath + "/" + filepath.ToSlash(rel))
		}
	}
	sort.Strings(out)
	return out, nil
}

// walk collects the import paths of every buildable package under root.
func (l *Loader) walk(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := l.buildCtx.ImportDir(path, 0); err != nil {
			return nil // no buildable Go files here; keep walking
		}
		rel, err := filepath.Rel(l.moduleRoot, path)
		if err != nil {
			return err
		}
		if rel == "." {
			out = append(out, l.modulePath)
		} else {
			out = append(out, l.modulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	return out, err
}
