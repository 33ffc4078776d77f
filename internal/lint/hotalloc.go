package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathMarker annotates a function whose body must not allocate: the
// scoring workers, the SoA matrix fill, the forest's split search and
// recorded-leaf read, and the SAX word encoder (see DESIGN.md).
const hotpathMarker = "cabd:hotpath"

var analyzerHotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "a function annotated //cabd:hotpath may not allocate: no make/new, " +
		"no growing append, no closure literals, no goroutine spawns, no " +
		"slice/map composite literals, no interface boxing of non-pointer " +
		"values, no string<->[]byte conversions. Exempt: sync.Pool draws, " +
		"make under a cap()/len() growth guard, and append into x[:0] " +
		"(the reset-reuse idiom)",
	Run: func(p *Pass) {
		for _, f := range p.Pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !isHotpath(fn) {
					continue
				}
				checkHotalloc(p, fn)
			}
		}
	},
}

// isHotpath reports whether the declaration carries the annotation.
func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.Contains(c.Text, hotpathMarker) {
			return true
		}
	}
	return false
}

// growthGuards collects the body ranges of if-statements whose condition
// consults cap() or len() — the grow-once pattern of pooled buffers
// (`if cap(buf) < n { buf = make(...) }`) is a cold path by contract.
func growthGuards(body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		guarded := false
		ast.Inspect(ifs.Cond, func(k ast.Node) bool {
			if call, ok := k.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
					guarded = true
				}
			}
			return true
		})
		if guarded {
			out = append(out, posRange{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return out
}

// isResetReuseAppend reports the append(x[:0], ...) compaction idiom,
// which writes into the existing backing array.
func isResetReuseAppend(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	sl, ok := call.Args[0].(*ast.SliceExpr)
	if !ok || sl.Slice3 {
		return false
	}
	if sl.High == nil {
		return false
	}
	lit, ok := sl.High.(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "0"
}

// isSyncPoolCall reports whether call is a method call on sync.Pool
// (Get/Put) — the sanctioned scratch-memory source on hot paths.
func isSyncPoolCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.useOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if ptr, isPtr := rt.(*types.Pointer); isPtr {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// pointerShaped reports whether values of t fit in an interface word
// without a heap allocation: pointers, channels, maps, funcs and unsafe
// pointers. Slices, strings, structs and scalars all box.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return true
	}
	return false
}

// checkBoxing flags call arguments whose static type is a non-pointer
// concrete value passed into an interface parameter — each such call
// boxes the value onto the heap.
func checkBoxing(p *Pass, call *ast.CallExpr) []string {
	sig, ok := p.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return nil
	}
	var hits []string
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			pt = params.At(np - 1).Type().(*types.Slice).Elem()
			if call.Ellipsis.IsValid() {
				pt = params.At(np - 1).Type() // s... passes the slice itself
			}
		case i < np:
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := p.Info.TypeOf(arg)
		if at == nil || pointerShaped(at) {
			continue
		}
		if tv, ok := p.Info.Types[arg]; ok && tv.Value != nil {
			continue // untyped constants often stay out of the heap; let them pass
		}
		hits = append(hits, at.String())
	}
	return hits
}

func checkHotalloc(p *Pass, fn *ast.FuncDecl) {
	guards := growthGuards(fn.Body)
	guarded := func(pos token.Pos) bool {
		for _, r := range guards {
			if r.contains(pos) {
				return true
			}
		}
		return false
	}
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch m := n.(type) {
		case *ast.FuncLit:
			p.Reportf(m.Pos(), "closure literal in hot path %s allocates (captures escape to the heap); hoist the state into the receiver or pass it as arguments", name)
			return false
		case *ast.GoStmt:
			p.Reportf(m.Pos(), "goroutine spawn in hot path %s allocates a stack; fan out once outside the annotated function", name)
			return false
		case *ast.CompositeLit:
			t := p.Info.TypeOf(m)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				if !guarded(m.Pos()) {
					p.Reportf(m.Pos(), "%s composite literal in hot path %s allocates; reuse a pooled buffer", t.String(), name)
				}
			}
		case *ast.CallExpr:
			if isSyncPoolCall(p, m) {
				return false // the sanctioned draw; Put's any-boxing included
			}
			if id, ok := m.Fun.(*ast.Ident); ok {
				_, isBuiltin := p.useOf(id).(*types.Builtin)
				switch {
				case !isBuiltin:
				case id.Name == "make":
					if !guarded(m.Pos()) {
						p.Reportf(m.Pos(), "make in hot path %s allocates; draw from a sync.Pool or grow under a cap() guard", name)
					}
					return true
				case id.Name == "new":
					p.Reportf(m.Pos(), "new in hot path %s allocates; reuse scratch state", name)
					return true
				case id.Name == "append":
					if !isResetReuseAppend(m) && !guarded(m.Pos()) {
						p.Reportf(m.Pos(), "append in hot path %s may grow its backing array; preallocate and write by index (or append into x[:0])", name)
					}
					return true
				}
			}
			// Conversions: string <-> []byte/[]rune copy; conversions to
			// interface types box.
			if tv, ok := p.Info.Types[m.Fun]; ok && tv.IsType() && len(m.Args) == 1 {
				to := tv.Type
				from := p.Info.TypeOf(m.Args[0])
				if from != nil {
					if isStringByteConv(to, from) {
						p.Reportf(m.Pos(), "%s(%s) conversion in hot path %s copies; keep one representation", to.String(), from.String(), name)
					}
					if _, isIface := to.Underlying().(*types.Interface); isIface && !pointerShaped(from) {
						p.Reportf(m.Pos(), "conversion of %s to %s in hot path %s boxes onto the heap", from.String(), to.String(), name)
					}
				}
				return true
			}
			for _, boxed := range checkBoxing(p, m) {
				p.Reportf(m.Pos(), "call boxes a %s into an interface parameter in hot path %s; use a concrete-typed helper (sync.Pool Get/Put is exempt)", boxed, name)
			}
		}
		return true
	})
}

// isStringByteConv reports a string <-> []byte/[]rune conversion.
func isStringByteConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(to) && isBytes(from)) || (isBytes(to) && isStr(from))
}
