package banks

// The public surface of package banks, pinned by a golden. The test walks
// the package's non-test sources with go/parser and renders every exported
// declaration — functions, methods on exported types, exported struct
// fields and interface methods, constants, variables and types — one per
// line, sorted, and compares the result with api.txt. A change to the
// surface therefore shows up as a reviewable diff of api.txt.
//
// Regenerate with:
//
//	go test -run TestAPISurface -update-api .

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update-api", false, "rewrite api.txt from the package's exported declarations")

func TestAPISurface(t *testing.T) {
	got := strings.Join(exportedDecls(t, "."), "\n") + "\n"
	if *updateAPI {
		if err := os.WriteFile("api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatalf("missing api.txt (run with -update-api): %v", err)
	}
	if string(want) == got {
		return
	}
	wantSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		wantSet[l] = true
	}
	gotSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(got), "\n") {
		gotSet[l] = true
		if !wantSet[l] {
			t.Errorf("not in api.txt: %s", l)
		}
	}
	for l := range wantSet {
		if !gotSet[l] {
			t.Errorf("in api.txt, gone from the package: %s", l)
		}
	}
	t.Error("the exported surface differs from api.txt; if the change is intended, regenerate it with -update-api")
}

// exportedDecls renders the exported declarations of the package in dir,
// sorted.
func exportedDecls(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	node := func(n ast.Node) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	var out []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || (d.Recv != nil && !exportedRecv(d.Recv)) {
					continue
				}
				out = append(out, node(&ast.FuncDecl{Recv: d.Recv, Name: d.Name, Type: d.Type}))
			case *ast.GenDecl:
				for _, s := range d.Specs {
					out = append(out, specLines(d.Tok, s, node)...)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// specLines renders one exported const, var or type spec; a struct or
// interface type contributes one further line per exported field or
// method.
func specLines(tok token.Token, s ast.Spec, node func(ast.Node) string) []string {
	var out []string
	switch s := s.(type) {
	case *ast.ValueSpec:
		for _, n := range s.Names {
			if n.IsExported() {
				out = append(out, tok.String()+" "+n.Name)
			}
		}
	case *ast.TypeSpec:
		if !s.Name.IsExported() {
			return nil
		}
		name := s.Name.Name
		var members *ast.FieldList
		switch ty := s.Type.(type) {
		case *ast.StructType:
			out = append(out, "type "+name+" struct")
			members = ty.Fields
		case *ast.InterfaceType:
			out = append(out, "type "+name+" interface")
			members = ty.Methods
		default:
			assign := " "
			if s.Assign.IsValid() {
				assign = " = "
			}
			out = append(out, "type "+name+assign+node(s.Type))
		}
		if members != nil {
			for _, f := range members.List {
				for _, n := range f.Names {
					if n.IsExported() {
						out = append(out, "field "+name+"."+n.Name+" "+node(f.Type))
					}
				}
				if len(f.Names) == 0 { // embedded
					out = append(out, "field "+name+" embeds "+node(f.Type))
				}
			}
		}
	}
	return out
}

// exportedRecv reports whether a method's receiver type is exported.
func exportedRecv(recv *ast.FieldList) bool {
	ty := recv.List[0].Type
	if star, ok := ty.(*ast.StarExpr); ok {
		ty = star.X
	}
	id, ok := ty.(*ast.Ident)
	return ok && id.IsExported()
}
