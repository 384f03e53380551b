package sqldb_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/speedtest"
	"cubicleos/internal/sqldb"
)

// renderAST writes a statement as text: type names and exported fields,
// never pointers, so that two ASTs render alike exactly when they are
// equal. With shape set a literal renders as ELit{?}.
func renderAST(stmt any, shape bool) string {
	var sb strings.Builder
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				sb.WriteString("nil")
				return
			}
			walk(v.Elem())
		case reflect.Struct:
			if shape && v.Type() == reflect.TypeFor[sqldb.ELit]() {
				sb.WriteString("ELit{?}")
				return
			}
			sb.WriteString(v.Type().Name() + "{")
			for i := range v.NumField() {
				if f := v.Type().Field(i); f.IsExported() {
					sb.WriteString(" " + f.Name + ":")
					walk(v.Field(i))
				}
			}
			sb.WriteString(" }")
		case reflect.Slice:
			sb.WriteByte('[')
			for i := range v.Len() {
				if i > 0 {
					sb.WriteByte(' ')
				}
				walk(v.Index(i))
			}
			sb.WriteByte(']')
		case reflect.String:
			fmt.Fprintf(&sb, "%q", v.String())
		default:
			fmt.Fprint(&sb, v.Interface())
		}
	}
	walk(reflect.ValueOf(stmt))
	return sb.String()
}

// TestASTGolden pins the parser's output to testdata/ast.golden, computed
// with this test at the commit before the parser reused its nodes: the AST
// of every statement of TestParseStatements' good list, and of every
// statement speedtest runs at size 10 as Exec's parser built it — those
// folded into one digest, with the first statement of each shape written
// out. Each of the latter must also render as a fresh Parse of its text.
func TestASTGolden(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# TestParseStatements' good list\n")
	for _, src := range sqldb.GoodStatements {
		stmt, err := sqldb.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		fmt.Fprintf(&sb, "%s\n\t%s\n", src, renderAST(stmt, false))
	}
	digest, n, shapes := fnv.New64a(), 0, map[string]bool{}
	var firsts strings.Builder
	testDBNamed(t, "/ast.db", 128, func(e *cubicle.Env, db *sqldb.DB) {
		db.OnParse(func(sql string, stmt any) {
			got := renderAST(stmt, false)
			if fresh, err := sqldb.Parse(sql); err != nil || renderAST(fresh, false) != got {
				t.Errorf("%s:\nExec's parser built %s\n  a fresh parser %s (%v)", sql, got, renderAST(fresh, false), err)
			}
			fmt.Fprintln(digest, got)
			n++
			if shape := renderAST(stmt, true); !shapes[shape] {
				shapes[shape] = true
				fmt.Fprintf(&firsts, "%s\n\t%s\n", sql, got)
			}
		})
		r := speedtest.New(db, speedtest.Config{Size: 10})
		if err := r.Setup(); err != nil {
			t.Fatal(err)
		}
		for _, id := range speedtest.QueryIDs {
			if err := r.Run(id); err != nil {
				t.Fatalf("query %d: %v", id, err)
			}
		}
	})
	fmt.Fprintf(&sb, "# speedtest size 10: %d statements, FNV-1a 64 of their ASTs %016x; the first of each shape\n",
		n, digest.Sum64())
	sb.WriteString(firsts.String())

	want, err := os.ReadFile("testdata/ast.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("testdata/ast.golden line %d:\nwant %s\n got %s", i+1, w[i], g[i])
			}
		}
		t.Fatalf("%d lines rendered, testdata/ast.golden has %d", len(g), len(w))
	}
}
