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
	"slices"
	"sort"
	"strings"
	"testing"

	"waitornot/internal/testutil"
)

// TestPublicAPIGolden lists the root package's exported consts, vars,
// funcs, types and methods (on exported types), sorted. After a
// deliberate surface change: go test -run TestPublicAPIGolden -update .
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
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							names = append(names, "type "+sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							if id.IsExported() {
								names = append(names, d.Tok.String()+" "+id.Name)
							}
						}
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
// over-reports. Two kinds of name count as used by rule: a method on
// an unexported receiver (no other package can name the receiver; the
// method is there for an interface it satisfies, like heap.Interface),
// and a type spelled in the signature of an exported func or method of
// its own file that is itself used elsewhere (callers hold its values
// without naming it). internal/testutil is test scaffolding by charter
// and is not scanned. The list is pinned in testdata/testonly.golden
// and `make size` prints its length; a name not in the golden fails here,
// with or without -update — delete the code with its tests, or give it
// a caller. After deleting listed code:
// go test -run TestNoNewTestOnlyProductCode -update .
func TestNoNewTestOnlyProductCode(t *testing.T) {
	type decl struct{ file, label, name string }
	var decls []decl
	uses := map[string]map[string]bool{} // identifier -> files it appears in
	// file -> identifier -> exported funcs whose signature spells it
	inSignature := map[string]map[string][]string{}
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
		inSignature[path] = map[string][]string{}
		signature := func(d *ast.FuncDecl) {
			ast.Inspect(d.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					inSignature[path][id.Name] = append(inSignature[path][id.Name], d.Name.Name)
				}
				return true
			})
		}
		for _, dd := range file.Decls {
			switch d := dd.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("func", d.Name, "")
					if d.Name.IsExported() {
						signature(d)
					}
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					add("method", d.Name, id.Name+".")
					if d.Name.IsExported() {
						signature(d)
					}
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
	usedElsewhere := func(name, file string) bool {
		n := len(uses[name])
		if uses[name][file] {
			n--
		}
		return n > 0
	}
	var list []string
	for _, d := range decls {
		if usedElsewhere(d.name, d.file) {
			continue
		}
		if strings.Contains(d.label, " type ") && slices.ContainsFunc(inSignature[d.file][d.name],
			func(fn string) bool { return usedElsewhere(fn, d.file) }) {
			continue
		}
		list = append(list, d.label)
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
