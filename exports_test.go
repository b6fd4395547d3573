package repro_test

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

// guardedPackages are the simulator stack's packages, whose exported
// names must each have a caller in non-test code.
var guardedPackages = []string{
	"internal/sim", "internal/network", "internal/topology",
	"internal/mpi", "internal/coll", "internal/measure",
}

// exportAllowlist holds the exported names of guardedPackages that no
// non-test code names, each with the reason it stays exported.
var exportAllowlist = map[string]string{
	"measure.StartupLatency":             "Fig. 1's T0(p) procedure (4-byte message, empty barrier); the paper package's startup-shape tests and BenchmarkFig1_StartupLatency measure through it",
	"network.Network.UncontendedLatency": "the zero-load wormhole formula that the contention property test bounds every arrival by",
	"topology.NewCrossbar":               "the single-switch fixture of the network and topology tests, whose routes are two hops between any pair",
	"topology.SaturationBandwidthMBs":    "the wire-level total-exchange ceiling that TestSaturationBandwidthOrderingMatchesPaper ranks T3D > Paragon > SP2 above §5's measured aggregate bandwidths",
}

// exportDecl is one exported top-level name: a function, type, variable
// or constant, or a method as Type.Method.
type exportDecl struct {
	name       string // the identifier a caller writes
	key        string // pkg-qualified, as the allowlist spells it
	start, end token.Pos
}

// TestExportedSimulatorAPIHasCallers fails when an exported top-level
// name of the simulator stack is named nowhere in the main module's or
// perfbench's non-test code outside its own declaration. Names match by
// text (any identifier with the same spelling counts as a use), so a
// pass is a lower bound on dead API, never a false alarm.
func TestExportedSimulatorAPIHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	var decls []exportDecl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
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
		files = append(files, f)
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, g := range guardedPackages {
			if dir == g {
				decls = append(decls, exportedDecls(f, strings.TrimPrefix(g, "internal/"))...)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found; is the test running from the module root?")
	}

	uses := map[string][]token.Pos{}
	for _, f := range files {
		declared := declaredNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.IsExported() && !declared[id] {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
	}

	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		used := false
		for _, p := range uses[d.name] {
			if p < d.start || p >= d.end {
				used = true
				break
			}
		}
		if _, ok := exportAllowlist[d.key]; used && ok {
			t.Errorf("%s has a caller now; drop it from exportAllowlist", d.key)
		}
		if !used && exportAllowlist[d.key] == "" {
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	for _, k := range dead {
		t.Errorf("%s is exported but no non-test code names it: delete it, unexport it, or allowlist it with a reason", k)
	}
	for k := range exportAllowlist {
		if !seen[k] {
			t.Errorf("exportAllowlist names %s, which is not declared", k)
		}
	}
}

// exportedDecls lists f's exported top-level names, keyed pkg.Name or
// pkg.Type.Method.
func exportedDecls(f *ast.File, pkg string) []exportDecl {
	var out []exportDecl
	add := func(id *ast.Ident, key string, n ast.Node) {
		if id.IsExported() {
			out = append(out, exportDecl{name: id.Name, key: pkg + "." + key, start: n.Pos(), end: n.End()})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			key := d.Name.Name
			if d.Recv != nil {
				recv := receiverType(d.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue // a method of an unexported type is reached through an interface or not at all
				}
				key = recv + "." + key
			}
			add(d.Name, key, d)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s.Name.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, id.Name, s)
					}
				}
			}
		}
	}
	return out
}

// declaredNames returns the identifiers in f that name what they
// declare (functions, methods, types, variables, constants and struct
// fields) rather than use it, so that two declarations sharing a name
// do not count as each other's callers.
func declaredNames(f *ast.File) map[*ast.Ident]bool {
	declared := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			declared[d.Name] = true
		case *ast.TypeSpec:
			declared[d.Name] = true
		case *ast.ValueSpec:
			for _, id := range d.Names {
				declared[id] = true
			}
		case *ast.StructType:
			for _, fl := range d.Fields.List {
				for _, id := range fl.Names {
					declared[id] = true
				}
			}
		}
		return true
	})
	return declared
}

// receiverType returns the name of a method receiver's base type.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
