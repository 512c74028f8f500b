// The public surface as a golden: ROADMAP aim 2 tracks the root
// package's exported symbol count, and `make size` prints it — but a
// number nobody runs drifts. Here the surface itself is pinned, so
// adding, removing or renaming an exported name fails `go test ./...`
// and shows up as a diff of testdata/api.golden in review.
package waitornot_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
