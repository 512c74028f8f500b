// The public surface as a golden: ROADMAP aim 2 tracks the root
// package's exported symbol count, and `make size` prints it — but a
// number nobody runs drifts. Here the surface itself is pinned, so
// adding, removing or renaming an exported name fails `go test ./...`
// and shows up as a diff of testdata/api.golden in review. Beside it,
// the same kind of pin for the other direction of drift: exported names
// under internal/ that only tests still call.
package waitornot_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"waitornot/internal/testutil"
)

// TestPublicAPIGolden lists the root package's exported funcs, types
// and methods (on exported types), sorted. After a deliberate surface
// change: go test -run TestPublicAPIGolden -update .
func TestPublicAPIGolden(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, file := range pkgs["waitornot"].Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names = append(names, "func "+d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					names = append(names, "method "+id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						names = append(names, "type "+ts.Name.Name)
					}
				}
			}
		}
	}
	sort.Strings(names)
	testutil.GoldenFile(t, filepath.Join("testdata", "api.golden"), []byte(strings.Join(names, "\n")+"\n"))
}

// TestNoNewTestOnlyProductCode is the ratchet on test-only product
// code: every exported func, method, type, const or var declared in a
// non-test file under internal/ whose name appears as an identifier in
// no other non-test .go file of the repository — so nothing but its own
// file and the tests can be calling it. Matching is by bare name
// (go/parser only, no type checking), so a name shared with anything
// used elsewhere counts as used: the list under-reports, never
// over-reports. internal/testutil is test scaffolding by charter and is
// not scanned. The list is pinned in testdata/testonly.golden and
// `make size` prints its length; a name not in the golden fails here,
// with or without -update — delete the code with its tests, or give it
// a caller. After deleting listed code:
// go test -run TestNoNewTestOnlyProductCode -update .
func TestNoNewTestOnlyProductCode(t *testing.T) {
	type decl struct{ file, label, name string }
	var decls []decl
	uses := map[string]map[string]bool{} // identifier -> files it appears in
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if uses[id.Name] == nil {
					uses[id.Name] = map[string]bool{}
				}
				uses[id.Name][path] = true
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") || dir == "internal/testutil" {
			return nil
		}
		add := func(kind string, id *ast.Ident, recv string) {
			if id.IsExported() {
				decls = append(decls, decl{path, dir + " " + kind + " " + recv + id.Name, id.Name})
			}
		}
		for _, dd := range file.Decls {
			switch d := dd.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("func", d.Name, "")
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					add("method", d.Name, id.Name+".")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						add("type", sp.Name, "")
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							add(strings.ToLower(d.Tok.String()), id, "")
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var list []string
	for _, d := range decls {
		elsewhere := len(uses[d.name])
		if uses[d.name][d.file] {
			elsewhere--
		}
		if elsewhere == 0 {
			list = append(list, d.label)
		}
	}
	sort.Strings(list)

	// Growth is refused outright, -update included: the golden only
	// ever shrinks.
	golden := filepath.Join("testdata", "testonly.golden")
	if pinned, err := os.ReadFile(golden); err == nil {
		known := map[string]bool{}
		for _, line := range strings.Split(string(pinned), "\n") {
			known[line] = true
		}
		var grown []string
		for _, label := range list {
			if !known[label] {
				grown = append(grown, label)
			}
		}
		if len(grown) > 0 {
			t.Fatalf("new test-only product code — no caller outside its own file and the tests:\n  %s", strings.Join(grown, "\n  "))
		}
	}
	testutil.GoldenFile(t, golden, []byte(strings.Join(list, "\n")+"\n"))
}
