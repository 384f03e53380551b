package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// goodStatements must parse; the AST of each is pinned in
// testdata/ast.golden.
var goodStatements = []string{
	"SELECT 1",
	"SELECT a FROM t ORDER BY a DESC, b ASC LIMIT 10",
	"SELECT count(*), sum(a+1) FROM t GROUP BY b",
	"SELECT a FROM t1, t2, t3 WHERE t1.a = t2.b AND t2.b = t3.c",
	"SELECT a FROM t WHERE b BETWEEN 1 AND 10 AND s LIKE 'x%'",
	"SELECT (SELECT max(a) FROM t) + 1",
	"INSERT INTO t VALUES (1, 'two', 3.5, NULL)",
	"INSERT INTO t (a, b) VALUES (1, 2), (3, 4)",
	"INSERT OR REPLACE INTO t VALUES (1)",
	"REPLACE INTO t VALUES (1)",
	"UPDATE t SET a = a + 1, b = 'x' WHERE id = 5",
	"DELETE FROM t WHERE a < 0",
	"CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT NOT NULL, r REAL)",
	"ALTER TABLE t ADD COLUMN extra INTEGER",
	"BEGIN", "BEGIN TRANSACTION", "COMMIT", "END",
	"PRAGMA integrity_check",
	"SELECT a + b * c - d / e % f, a - -1, (a + b) * c FROM t",
	"SELECT a FROM t WHERE a = b = c AND x IS NOT NULL AND y IS NULL = 1",
	"SELECT 'it''s quoted'",
	"SELECT 1 -- trailing comment",
	"SELECT 1;",
}

// badStatements are malformed statements and the error each fails with,
// recorded when every parsing function returned an error of its own; an
// error of the executor's ("sqldb: …") is one of a statement that parses.
// The rows from "DROP TABLE t" on are SQL that none of the paper's runs
// executes, which the engine does not speak (DESIGN.md §16).
var badStatements = []struct{ src, err string }{
	{"", "sql: expected statement, got \"\""},
	{"SELECT", "sql: unexpected token \"\""},
	{"SELECT FROM t", "sql: trailing tokens at \"t\""},
	{"SELECT 1 2", "sql: trailing tokens at \"2\""},
	{"WHERE 1", "sql: unsupported statement \"WHERE\""},
	{"INSERT t VALUES (1)", "sql: expected INTO, got \"t\""},
	{"UPDATE SET a = 1", "sql: expected SET, got \"a\""},
	{"CREATE t", "sql: expected TABLE, got \"t\""},
	{"SELECT 'open", "sql: unterminated string"},
	{"SELECT a FROM t ORDER", "sql: expected BY, got \"\""},
	{"SELECT a FROM t LIMIT a", "sql: LIMIT must be an integer literal"},
	{"DELETE t", "sql: expected FROM, got \"t\""},
	{"DROP", "sql: unsupported statement \"DROP\""},
	{"SELECT a IN", "sql: trailing tokens at \"IN\""},
	{"SELECT ((1)", "sql: expected \")\", got \"\""},
	{"SELECT 1 UNION SELECT 2", "sql: trailing tokens at \"UNION\""},
	{"SELECT a ! b", "sql: unexpected character '!'"},
	{"SELECT 99999999999999999999", "sql: bad integer \"99999999999999999999\""},
	{"SELECT 1e999", "sql: bad number \"1e999\""},
	{"SELECT 1.2.3", "sql: bad number \"1.2.3\""},
	{"CREATE UNIQUE TABLE t (a)", "sql: expected TABLE, got \"UNIQUE\""},
	{"SELECT a NOT b", "sql: trailing tokens at \"NOT\""},
	{"SELECT a IS 1", "sql: expected NULL, got \"1\""},
	{"SELECT a BETWEEN 1 OR 2", "sql: expected AND, got \"OR\""},
	{"ALTER t ADD a", "sql: expected TABLE, got \"t\""},
	{"ALTER TABLE t DROP a", "sql: expected ADD, got \"DROP\""},
	{"ALTER TABLE t ADD COLUMN", "sql: expected identifier, got \"\""},
	{"CREATE INDEX i t (a)", "sql: expected ON, got \"t\""},
	{"CREATE INDEX i ON t a", "sql: expected \"(\", got \"a\""},
	{"CREATE INDEX i ON t (a b)", "sql: expected \")\", got \"b\""},
	{"CREATE TABLE t (a PRIMARY b)", "sql: expected KEY, got \"b\""},
	{"CREATE TABLE t (a, b", "sql: expected \")\", got \"\""},
	{"CREATE TABLE t a", "sql: expected \"(\", got \"a\""},
	{"INSERT OR IGNORE INTO t VALUES (1)", "sql: expected REPLACE, got \"IGNORE\""},
	{"INSERT INTO t (a, 1) VALUES (1)", "sql: expected identifier, got \"1\""},
	{"INSERT INTO t VALUES 1", "sql: expected \"(\", got \"1\""},
	{"INSERT INTO t VALUES (1", "sql: expected \")\", got \"\""},
	{"INSERT INTO t (a VALUES (1)", "sql: expected \")\", got \"VALUES\""},
	{"INSERT INTO t DEFAULT VALUES", "sql: expected VALUES, got \"DEFAULT\""},
	{"UPDATE t SET a 1", "sql: expected \"=\", got \"1\""},
	{"UPDATE t SET a = ", "sql: unexpected token \"\""},
	{"UPDATE t a = 1", "sql: expected SET, got \"a\""},
	{"DELETE FROM t WHERE", "sql: unexpected token \"\""},
	{"SELECT a FROM t GROUP a", "sql: expected BY, got \"a\""},
	{"SELECT a FROM t1 INNER t2", "sql: trailing tokens at \"INNER\""},
	{"SELECT a FROM t1 JOIN t2 ON", "sql: trailing tokens at \"JOIN\""},
	{"SELECT t. FROM t", "sql: trailing tokens at \"t\""},
	{"SELECT a FROM", "sql: expected identifier, got \"\""},
	{"SELECT a FROM t WHERE a = (SELECT b FROM u", "sql: expected \")\", got \"\""},
	{"SELECT a LIKE", "sql: unexpected token \"\""},
	{"SELECT a FROM t ORDER BY", "sql: unexpected token \"\""},
	{"SELECT a FROM t GROUP BY", "sql: unexpected token \"\""},
	{"SELECT a AS 1", "sql: trailing tokens at \"AS\""},
	{"SELECT a FROM t LIMIT 1.5", "sql: LIMIT must be an integer literal"},
	{"PRAGMA 1", "sql: expected identifier, got \"1\""},
	{"VACUUM", "sql: unsupported statement \"VACUUM\""},
	{"SELECT f(1, 2", "sql: expected \")\", got \"\""},
	{"SELECT a FROM t;;", "sql: trailing tokens at \";\""},
	{"SELECT )", "sql: unexpected token \")\""},
	{"SELECT (SELECT 1", "sql: expected \")\", got \"\""},
	{"DROP VIEW v", "sql: unsupported statement \"DROP\""},
	{"CREATE TABLE", "sql: expected identifier, got \"\""},
	{"BEGIN foo", "sql: trailing tokens at \"foo\""},
	{"SELECT -", "sql: unexpected token \"\""},
	{"SELECT 1 +", "sql: unexpected token \"\""},
	{"SELECT count(*", "sql: expected \")\", got \"\""},
	{"42", "sql: expected statement, got \"42\""},
	{"DROP TABLE t", "sql: unsupported statement \"DROP\""},
	{"DROP INDEX i", "sql: unsupported statement \"DROP\""},
	{"SELECT a FROM t WHERE b IN (1, 2, 3)", "sql: trailing tokens at \"IN\""},
	{"SELECT a FROM t WHERE b NOT IN (SELECT k FROM u)", "sql: trailing tokens at \"NOT\""},
	{"SELECT a FROM t WHERE NOT a = b", "sql: trailing tokens at \"a\""},
	{"SELECT a FROM t WHERE b NOT LIKE '%y'", "sql: trailing tokens at \"NOT\""},
	{"SELECT a FROM t WHERE a NOT BETWEEN 2 AND 3", "sql: trailing tokens at \"NOT\""},
	{"SELECT -a FROM t", "sql: unary minus takes a number"},
	{"SELECT a FROM t WHERE a IS NULL OR b IS NOT NULL", "sql: trailing tokens at \"OR\""},
	{"SELECT a || b FROM t", "sql: unexpected character '|'"},
	{"SELECT DISTINCT a FROM t", "sql: trailing tokens at \"a\""},
	{"SELECT ALL a FROM t", "sql: trailing tokens at \"a\""},
	{"SELECT count(*) FROM t GROUP BY b HAVING count(*) > 2", "sql: trailing tokens at \"HAVING\""},
	{"SELECT * FROM t", "sql: unexpected token \"*\""},
	{"SELECT a AS x FROM t", "sql: trailing tokens at \"AS\""},
	{"SELECT x.a FROM t x", "sql: trailing tokens at \"x\""},
	{"SELECT t.a FROM t JOIN u ON t.a = u.k", "sql: trailing tokens at \"JOIN\""},
	{"SELECT t.a FROM t INNER JOIN u ON t.a = u.k", "sql: trailing tokens at \"INNER\""},
	{"INSERT INTO t SELECT a, b FROM t", "sql: expected VALUES, got \"SELECT\""},
	{"CREATE UNIQUE INDEX i ON t (a, b)", "sql: expected TABLE, got \"UNIQUE\""},
	{"ROLLBACK", "sql: unsupported statement \"ROLLBACK\""},
	{"PRAGMA cache_stats", "sqldb: unsupported pragma cache_stats"},
	{"SELECT abs(a) FROM t", "sqldb: no such function abs"},
	{"SELECT upper(b) FROM t", "sqldb: no such function upper"},
	{"SELECT lower(b) FROM t", "sqldb: no such function lower"},
	{"SELECT substr(b, 1, 2) FROM t", "sqldb: no such function substr"},
	{"SELECT coalesce(a, 0) FROM t", "sqldb: no such function coalesce"},
	{"SELECT ifnull(a, 0) FROM t", "sqldb: no such function ifnull"},
	{"SELECT typeof(a) FROM t", "sqldb: no such function typeof"},
	{"SELECT total(a) FROM t", "sqldb: no such function total"},
	// A subquery reads its own tables only: one that names the outer
	// row's fails, every time, rather than answering from its cache.
	{"SELECT a, (SELECT count(*) FROM u WHERE k = t.a) FROM t", "sqldb: no such column t.a"},
	// A VALUES row has no columns to name, bare or inside a function.
	{"INSERT INTO t VALUES (a, 'x')", "sqldb: no such column a"},
	{"INSERT INTO t VALUES (length(a), 'x')", "sqldb: no such column a"},
	{"INSERT INTO t (a) VALUES (t.b)", "sqldb: no such column t.b"},
	{"SELECT a", "sqldb: no such column a"},
}

func TestParseStatements(t *testing.T) {
	for _, src := range goodStatements {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
	// Every malformed statement fails with its message through Exec, and
	// through Parse unless the executor's is the message. After each
	// failing Exec, the DB's parser, which the failure unwound, parses the
	// next statement as a fresh parser does.
	withDB(t, 64, func(db *DB) {
		for _, sql := range []string{
			"CREATE TABLE t (a INTEGER, b TEXT)", "INSERT INTO t VALUES (1, 'x')",
			"CREATE TABLE u (k INTEGER)", "INSERT INTO u VALUES (1)",
		} {
			db.MustExec(sql)
		}
		const next = "SELECT a, count(*) FROM t WHERE b LIKE 'x%' AND a BETWEEN 1 AND 2 GROUP BY a ORDER BY 2 DESC LIMIT 3"
		want, err := Parse(next)
		if err != nil {
			t.Fatal(err)
		}
		var got any
		db.onParse = func(_ string, stmt any) { got = stmt }
		for _, c := range badStatements {
			parseErr := c.err
			if strings.HasPrefix(c.err, "sqldb: ") {
				parseErr = "<nil>"
			}
			if _, err := Parse(c.src); fmt.Sprint(err) != parseErr {
				t.Errorf("Parse(%q): %v, want %s", c.src, err, parseErr)
			}
			if _, err := db.Exec(c.src); fmt.Sprint(err) != c.err {
				t.Errorf("Exec(%q): %v, want %s", c.src, err, c.err)
			}
			got = nil
			db.MustExec(next)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("after Exec(%q) the DB's parser built %#v, want %#v", c.src, got, want)
			}
		}
	})
	// The lexer's own table: '' escapes, unterminated literals and every
	// operator, one character and two.
	op := func(texts ...string) (toks []token) {
		for _, text := range texts {
			toks = append(toks, token{tkOp, text})
		}
		return toks
	}
	for _, c := range []struct {
		src  string
		want []token // without the closing tkEOF; nil = a lex error
	}{
		{"'plain'", []token{{tkString, "plain"}}},
		{"''", []token{{tkString, ""}}},
		{"''''", []token{{tkString, "'"}}},
		{"'it''s'", []token{{tkString, "it's"}}},
		{"'''a'''", []token{{tkString, "'a'"}}},
		{"'a''''b'", []token{{tkString, "a''b"}}},
		{"'a' 'b'", []token{{tkString, "a"}, {tkString, "b"}}},
		{"'a'b", []token{{tkString, "a"}, {tkIdent, "b"}}},
		{"'open", nil}, {"'", nil}, {"'a''", nil}, {"x = 'it''s", nil},
		{"+-*/%=<>(),.;", op("+", "-", "*", "/", "%", "=", "<>", "(", ")", ",", ".", ";")},
		{"< > = . ;", op("<", ">", "=", ".", ";")},
		{"<=>=<>!===", op("<=", ">=", "<>", "!=", "==")},
		{"a<=b", []token{{tkIdent, "a"}, {tkOp, "<="}, {tkIdent, "b"}}},
		{"a<-1", []token{{tkIdent, "a"}, {tkOp, "<"}, {tkOp, "-"}, {tkNumber, "1"}}},
		{"1.5e-3 x", []token{{tkNumber, "1.5e-3"}, {tkIdent, "x"}}},
		{"a -- b\n c", []token{{tkIdent, "a"}, {tkIdent, "c"}}},
		{"a ! b", nil}, {"a | b", nil}, {"a || b", nil}, {"a & b", nil}, {"\x80", nil},
	} {
		got, err := lexed(c.src)
		if c.want == nil {
			if err == nil {
				t.Errorf("lex(%q) = %v, want an error", c.src, got)
			}
			continue
		}
		if want := append(c.want, token{tkEOF, ""}); err != nil || !slices.Equal(got, want) {
			t.Errorf("lex(%q) = %v, %v; want %v", c.src, got, err, want)
		}
	}
}

// lexed is lex, returning the error it fails with.
func lexed(src string) (toks []token, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = r.(execErr).err
		}
	}()
	return lex(nil, src), nil
}

// FuzzParse: for any input Parse returns an AST or an error, never a
// panic, and a parser that input left behind — unwound part way through a
// statement, as Exec's is by a malformed one — parses the next statement
// to the AST a fresh parser builds. Seeded with the good statements and
// the bad ones.
func FuzzParse(f *testing.F) {
	for _, src := range goodStatements {
		f.Add(src)
	}
	for _, c := range badStatements {
		f.Add(c.src)
	}
	const next = "SELECT a, (SELECT max(b) FROM u) FROM t WHERE c LIKE 'x%' AND d BETWEEN 3 AND 4 ORDER BY a DESC LIMIT 5"
	want, err := Parse(next)
	if err != nil {
		f.Fatal(err)
	}
	var p parser // reused from input to input, as Exec's is
	f.Fuzz(func(t *testing.T, src string) {
		if stmt, err := Parse(src); (stmt == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want an AST or an error", src, stmt, err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(execErr); !ok {
						panic(r)
					}
				}
			}()
			p.parse(src)
		}()
		if got := p.parse(next); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %q the reused parser built %#v, want %#v", src, got, want)
		}
	})
}

// TestParseNeverPanics throws random token soup at the parser.
func TestParseNeverPanics(t *testing.T) {
	tokens := []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "INSERT",
		"INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "TABLE",
		"INDEX", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "IS", "NULL",
		"JOIN", "ON", "HAVING", "DISTINCT", "t", "a", "b", "ident_1",
		"1", "3.5", "'str'", "(", ")", ",", "*", "+", "-", "/", "%",
		"=", "<", ">", "<=", ">=", "!=", "<>", "||", ".", ";",
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		for i := 0; i < int(n%40)+1; i++ {
			sb.WriteString(tokens[rng.Intn(len(tokens))])
			sb.WriteByte(' ')
		}
		_, _ = Parse(sb.String()) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestLexNeverPanics throws arbitrary bytes at the lexer+parser.
func TestLexNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = Parse(string(raw))
		// The same bytes inside, and cut off inside, a string literal.
		_, _ = Parse("SELECT '" + string(raw) + "'")
		_, _ = Parse("SELECT '" + string(raw))
		return true
	}
	for _, src := range []string{"'", "''", "'''", "x'", "'\x00", "<", "|", "||", "!", "-", "--", ".", ".e", "1e", "1e+"} {
		f([]byte(src))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestParseSelectShape(t *testing.T) {
	stmt, err := Parse("SELECT a, count(*) FROM t1, t2 WHERE t1.id = t2.ref AND a > 0 GROUP BY a ORDER BY 2 DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	s, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if len(s.Cols) != 2 {
		t.Errorf("cols: %+v", s.Cols)
	}
	if len(s.From) != 2 || s.From[0].Table != "t1" || s.From[1].Table != "t2" {
		t.Errorf("from: %+v", s.From)
	}
	if s.Where == nil {
		t.Error("where missing")
	}
	if len(s.GroupBy) != 1 || len(s.OrderBy) != 1 || !s.OrderBy[0].Desc || s.Limit != 5 {
		t.Errorf("clauses: groupby=%d orderby=%+v limit=%d", len(s.GroupBy), s.OrderBy, s.Limit)
	}
}

func TestParseCreateTableShape(t *testing.T) {
	stmt, err := Parse("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score REAL)")
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*CreateTableStmt)
	if s.Name != "t" || len(s.Cols) != 3 || s.RowidCol != 0 {
		t.Errorf("%+v", s)
	}
	if s.Cols[1].Type != "TEXT" || s.Cols[2].Type != "REAL" {
		t.Errorf("types: %+v", s.Cols)
	}
	// TEXT PRIMARY KEY is not a rowid alias.
	stmt, _ = Parse("CREATE TABLE u (k TEXT PRIMARY KEY)")
	if stmt.(*CreateTableStmt).RowidCol != -1 {
		t.Error("TEXT PRIMARY KEY treated as rowid alias")
	}
}

// TestColumnKeywords: a word that can follow a column's name, in any
// case, is not read as its type, and lookupKw's buffer holds every key of
// the maps it reads.
func TestColumnKeywords(t *testing.T) {
	stmt, err := Parse("CREATE TABLE t (a primary key, b NOT NULL, c Null, d blob not null)")
	if err != nil {
		t.Fatal(err)
	}
	s := stmt.(*CreateTableStmt)
	var types []string
	for _, c := range s.Cols {
		types = append(types, c.Type)
	}
	if want := []string{"TEXT", "TEXT", "TEXT", "BLOB"}; !slices.Equal(types, want) {
		t.Errorf("types %v, want %v", types, want)
	}
	var keys []string
	for k := range keywords {
		keys = append(keys, k)
	}
	for k := range binOps {
		keys = append(keys, k)
	}
	for k := range namedLits {
		keys = append(keys, k)
	}
	for _, k := range keys {
		if len(k) > maxKw {
			t.Errorf("key %q is longer than maxKw = %d", k, maxKw)
		}
		if _, ok := lookupKw(keywords, k); ok != keywords[k] {
			t.Errorf("lookupKw(keywords, %q) = %v", k, ok)
		}
	}
}

// TestGroupByKeepsTypesApart: GROUP BY puts two values in one group
// exactly when WHERE's = finds them equal — 7 and '7' apart, 1 and 1.0
// together, NULL apart from 'NULL' — and a text with a NUL byte does not
// run into the next column's value.
func TestGroupByKeepsTypesApart(t *testing.T) {
	withDB(t, 64, func(db *DB) {
		rows := func(sql string) string {
			var out []string
			for _, r := range db.MustExec(sql).Rows {
				var cols []string
				for _, v := range r {
					cols = append(cols, fmt.Sprintf("%q", v.String()))
				}
				out = append(out, strings.Join(cols, ","))
			}
			return strings.Join(out, ";")
		}
		db.MustExec("CREATE TABLE w (a, b)")
		db.MustExec("INSERT INTO w VALUES (7, 1), ('7', 2), (1, 4), (1.0, 8), (NULL, 16), ('NULL', 32), ('x\x00', 'y'), ('x', '\x00y')")
		for _, c := range []struct{ sql, want string }{
			{"SELECT count(*) FROM w WHERE a = 7", `"1"`},
			{"SELECT count(*) FROM w WHERE a = 1", `"2"`},
			{"SELECT a, count(*), sum(b) FROM w GROUP BY a", `"7","1","1";"7","1","2";"1","2","12";"NULL","1","16";"NULL","1","32";"x\x00","1","0";"x","1","0"`},
			{"SELECT count(*) FROM w GROUP BY a, b", `"1";"1";"1";"1";"1";"1";"1";"1"`},
		} {
			if got := rows(c.sql); got != c.want {
				t.Errorf("%s:\n got %s\nwant %s", c.sql, got, c.want)
			}
		}
	})
}
