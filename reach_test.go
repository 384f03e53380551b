package cubicleos_test

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

// reachAllowed names the exported declarations under internal/ that no
// non-test code reaches by name and that stay anyway, each with its reason.
// A key is "dir.Name" for a function, type, variable or constant and
// "dir.Recv.Name" for a method.
var reachAllowed = map[string]string{
	"internal/cubicle.Env.WindowRemove": "Table 1 window operation",

	"internal/cubicle.Monitor.ExecuteAt":    "red-team hook (ROADMAP item 3): a crossing that skips the trampoline",
	"internal/cubicle.Trampoline.GuardAddr": "red-team hook (ROADMAP item 3): an entry mid-guard-page",

	"internal/cubicle.ContainedFault.Unwrap": "errors.Is and errors.As call it",

	"internal/vfscore.ENOSPC": "an errno of the VFS interface (the sqldb fault-injection tests return it)",

	// The pinned image tests (TestSpeedtestImagePinned and the speedtest
	// stream-digest cell) read every page through it from other packages;
	// those reads are part of what they pin.
	"internal/sqldb.Pager.Get": "oracle of the pinned speedtest image",
}

// TestExportedNamesAreReached fails on an exported declaration under
// internal/ (outside the test helpers in cubicletest) that no run can
// reach by name: one that is neither selected as .Name in a non-test file
// of the module, benchmark/, cmd/ and examples/ included, nor used as a
// bare identifier elsewhere in its own package. Names only tests call
// belong in the package's export_test.go, or in cubicletest when tests of
// several packages share them.
//
// The check parses without type-checking, so a selector counts for every
// declaration of that name: it finds a subset of the unreached names, never
// a reached one.
func TestExportedNamesAreReached(t *testing.T) {
	type decl struct {
		dir, name, key string
		pos            token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	selected := map[string]bool{}          // names selected as .Name anywhere
	usedIn := map[string]map[string]bool{} // dir -> names used bare there
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		dir := filepath.ToSlash(filepath.Dir(path))
		internal := strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "internal/cubicle/cubicletest")
		add := func(id *ast.Ident, key string) {
			declIdents[id] = true
			if internal && id.IsExported() {
				decls = append(decls, decl{dir, id.Name, dir + "." + key, fset.Position(id.Pos())})
			}
		}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				key := dl.Name.Name
				if dl.Recv != nil {
					typ := dl.Recv.List[0].Type
					if s, ok := typ.(*ast.StarExpr); ok {
						typ = s.X
					}
					if ix, ok := typ.(*ast.IndexExpr); ok {
						typ = ix.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						declIdents[id] = true // a receiver does not reach its type
						key = id.Name + "." + key
					}
				}
				add(dl.Name, key)
			case *ast.GenDecl:
				for _, s := range dl.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, n.Name)
						}
					}
				}
			}
		}
		uses := usedIn[dir]
		if uses == nil {
			uses = map[string]bool{}
			usedIn[dir] = uses
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declIdents[n] {
					uses[n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unreached []string
	allowed := map[string]bool{}
	for _, d := range decls {
		reached := usedIn[d.dir][d.name] || selected[d.name]
		if _, ok := reachAllowed[d.key]; ok {
			allowed[d.key] = true
			if reached {
				t.Errorf("%s is reached; drop its reachAllowed entry", d.key)
			}
			continue
		}
		if !reached {
			unreached = append(unreached, d.pos.String()+": "+d.key)
		}
	}
	for key := range reachAllowed {
		if !allowed[key] {
			t.Errorf("reachAllowed names %s, which is not declared", key)
		}
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d exported names no non-test code reaches; delete each, move it to export_test.go or cubicletest, or allow it with its reason:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
}
