package sqldb

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// --- Lexer -------------------------------------------------------------------

type tokKind int

const (
	tkEOF tokKind = iota
	tkIdent
	tkNumber
	tkString
	tkOp
)

type token struct {
	kind tokKind
	text string
}

// ops2 are the two-character operators; oneCharOps holds the text of each
// single-character one ("" for a byte that is not an operator), so that
// an operator token costs no allocation.
var (
	ops2       = [...]string{"<=", ">=", "<>", "!=", "==", "||"}
	oneCharOps = func() (t [256]string) {
		for _, c := range "+-*/%=<>(),.;" {
			t[c] = string(c)
		}
		return t
	}()
)

// lex appends the tokens of src to toks[:0].
func lex(toks []token, src string) ([]token, error) {
	toks = slices.Grow(toks[:0], len(src)/4+2)
	pos := 0
scan:
	for pos < len(src) {
		c := src[pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			pos++
		case c == '-' && pos+1 < len(src) && src[pos+1] == '-':
			for pos < len(src) && src[pos] != '\n' {
				pos++
			}
		case isDigit(c) || (c == '.' && pos+1 < len(src) && isDigit(src[pos+1])):
			start := pos
			for pos < len(src) && (isDigit(src[pos]) || src[pos] == '.' || src[pos] == 'e' || src[pos] == 'E' ||
				((src[pos] == '+' || src[pos] == '-') && pos > start && (src[pos-1] == 'e' || src[pos-1] == 'E'))) {
				pos++
			}
			toks = append(toks, token{tkNumber, src[start:pos]})
		case c == '\'':
			// The literal ends at the first quote that is not doubled; with
			// no doubled quote inside, its text is a piece of the source.
			start, escaped := pos+1, false
			for pos = start; ; pos++ {
				if pos >= len(src) {
					return nil, fmt.Errorf("sql: unterminated string")
				}
				if src[pos] != '\'' {
					continue
				}
				if pos+1 >= len(src) || src[pos+1] != '\'' {
					break
				}
				escaped = true
				pos++
			}
			text := src[start:pos]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, token{tkString, text})
			pos++
		case isIdentStart(c):
			start := pos
			for pos < len(src) && isIdentPart(src[pos]) {
				pos++
			}
			toks = append(toks, token{tkIdent, src[start:pos]})
		default:
			// Multi-char operators first.
			for _, op := range ops2 {
				if strings.HasPrefix(src[pos:], op) {
					toks = append(toks, token{tkOp, op})
					pos += 2
					continue scan
				}
			}
			if oneCharOps[c] == "" {
				return nil, fmt.Errorf("sql: unexpected character %q", c)
			}
			toks = append(toks, token{tkOp, oneCharOps[c]})
			pos++
		}
	}
	return append(toks, token{tkEOF, ""}), nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }

// --- AST ---------------------------------------------------------------------

// Expr is a SQL expression node.
type Expr interface{}

// ELit is a literal value.
type ELit struct{ V Value }

// ECol is a column reference, optionally table-qualified.
type ECol struct{ Table, Name string }

// EBin is a binary operation.
type EBin struct {
	Op   string
	L, R Expr
}

// EUn is a unary operation (NOT, -).
type EUn struct {
	Op string
	E  Expr
}

// EFunc is a function call; Star marks count(*).
type EFunc struct {
	Name string
	Args []Expr
	Star bool
}

// ESub is a scalar subquery. Uncorrelated subqueries are evaluated once
// per statement execution and cached: every parse allocates its ESub
// nodes, which the parser never hands out again.
type ESub struct {
	Sel    *SelectStmt
	cached *Value
}

// EIn is x [NOT] IN (e1, e2, ...) or x [NOT] IN (SELECT ...).
type EIn struct {
	E    Expr
	List []Expr
	Sub  *SelectStmt
	Not  bool
}

// EBetween is x BETWEEN lo AND hi (negated when Not).
type EBetween struct {
	E, Lo, Hi Expr
	Not       bool
}

// SelectCol is one result column.
type SelectCol struct {
	Expr  Expr
	Alias string
	Star  bool
}

// FromItem is one table in the FROM clause.
type FromItem struct {
	Table string
	Alias string
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT statement.
type SelectStmt struct {
	Distinct bool
	Cols     []SelectCol
	From     []FromItem
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 = none
}

// InsertStmt is INSERT [OR REPLACE] INTO.
type InsertStmt struct {
	Table   string
	Cols    []string
	Rows    [][]Expr
	Replace bool
	// FromSelect supports INSERT INTO t SELECT ...
	FromSelect *SelectStmt
}

// UpdateStmt is UPDATE ... SET ... [WHERE].
type UpdateStmt struct {
	Table string
	Sets  []struct {
		Col string
		E   Expr
	}
	Where Expr
}

// DeleteStmt is DELETE FROM ... [WHERE].
type DeleteStmt struct {
	Table string
	Where Expr
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	Name     string
	Cols     []Column
	RowidCol int
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX.
type CreateIndexStmt struct {
	Name   string
	Table  string
	Cols   []string
	Unique bool
}

// DropStmt drops a table or index.
type DropStmt struct {
	Kind string // "table" or "index"
	Name string
}

// AlterAddColumnStmt is ALTER TABLE t ADD COLUMN.
type AlterAddColumnStmt struct {
	Table string
	Col   Column
}

// TxnStmt is BEGIN/COMMIT/ROLLBACK.
type TxnStmt struct{ Kind string }

// PragmaStmt is PRAGMA name.
type PragmaStmt struct{ Name string }

// --- Parser ------------------------------------------------------------------

// parser parses one statement after another and hands the nodes,
// statement structs and lists of each out again for the next: a
// statement's AST lives until the next parse. What it keeps between
// statements is bounded: one chunk of each node type, lists as long as one
// statement's, and after a statement of more than maxKeptToks tokens
// nothing at all.
type parser struct {
	toks []token
	pos  int
	// lits, cols, bins and sels are the chunks literal, column, binary and
	// SELECT nodes are carved from.
	lits []ELit
	cols []ECol
	bins []EBin
	sels []SelectStmt
	// ins, upd and del are the INSERT, UPDATE or DELETE being parsed.
	ins InsertStmt
	upd UpdateStmt
	del DeleteStmt
	// list holds the expressions of the lists being parsed, innermost last;
	// exprs holds the lists parsed, each cut to size.
	list, exprs []Expr
}

const (
	nodeChunk   = 32
	maxKeptToks = 1024
)

// carve returns the next slot of *chunk as the last statement left it,
// starting a new chunk when this one is full so that the slots handed out
// before stay put. Chunks double up to nodeChunk: a parser used once
// (Parse) does not pay for 32 nodes. parse rewinds the last chunk.
func carve[T any](chunk *[]T) *T {
	if len(*chunk) == cap(*chunk) {
		*chunk = make([]T, 0, min(nodeChunk, max(4, 2*cap(*chunk))))
	}
	*chunk = (*chunk)[:len(*chunk)+1]
	return &(*chunk)[len(*chunk)-1]
}

// place puts v in the next slot of *chunk.
func place[T any](chunk *[]T, v T) *T {
	n := carve(chunk)
	*n = v
	return n
}

func (p *parser) lit(v Value) *ELit            { return place(&p.lits, ELit{V: v}) }
func (p *parser) col(table, name string) *ECol { return place(&p.cols, ECol{Table: table, Name: name}) }
func (p *parser) bin(op string, l, r Expr) *EBin {
	return place(&p.bins, EBin{Op: op, L: l, R: r})
}

// Parse parses one SQL statement.
func Parse(src string) (any, error) { return new(parser).parse(src) }

func (p *parser) parse(src string) (any, error) {
	if cap(p.toks) > maxKeptToks {
		*p = parser{}
	}
	var err error
	if p.toks, err = lex(p.toks, src); err != nil {
		return nil, err
	}
	p.pos, p.list, p.exprs = 0, p.list[:0], p.exprs[:0]
	p.lits, p.cols, p.bins, p.sels = p.lits[:0], p.cols[:0], p.bins[:0], p.sels[:0]
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tkOp, ";")
	if p.peek().kind != tkEOF {
		return nil, fmt.Errorf("sql: trailing tokens at %q", p.peek().text)
	}
	return stmt, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

// acceptKw consumes a keyword (case-insensitive) if present.
func (p *parser) acceptKw(kw string) bool {
	t := p.peek()
	if t.kind == tkIdent && strings.EqualFold(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return fmt.Errorf("sql: expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) accept(kind tokKind, text string) bool {
	t := p.peek()
	if t.kind == kind && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.accept(tkOp, op) {
		return fmt.Errorf("sql: expected %q, got %q", op, p.peek().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tkIdent {
		return "", fmt.Errorf("sql: expected identifier, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) statement() (any, error) {
	t := p.peek()
	if t.kind != tkIdent {
		return nil, fmt.Errorf("sql: expected statement, got %q", t.text)
	}
	switch strings.ToUpper(t.text) {
	case "SELECT":
		return p.selectStmt()
	case "INSERT", "REPLACE":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "CREATE":
		return p.createStmt()
	case "DROP":
		return p.dropStmt()
	case "ALTER":
		return p.alterStmt()
	case "BEGIN":
		p.pos++
		p.acceptKw("TRANSACTION")
		return &TxnStmt{Kind: "begin"}, nil
	case "COMMIT", "END":
		p.pos++
		p.acceptKw("TRANSACTION")
		return &TxnStmt{Kind: "commit"}, nil
	case "ROLLBACK":
		p.pos++
		return &TxnStmt{Kind: "rollback"}, nil
	case "PRAGMA":
		p.pos++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &PragmaStmt{Name: strings.ToLower(name)}, nil
	}
	return nil, fmt.Errorf("sql: unsupported statement %q", t.text)
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := carve(&p.sels)
	*s = SelectStmt{Cols: s.Cols[:0], From: s.From[:0], OrderBy: s.OrderBy[:0], Limit: -1}
	if p.acceptKw("DISTINCT") {
		s.Distinct = true
	} else {
		p.acceptKw("ALL")
	}
	for {
		if p.accept(tkOp, "*") {
			s.Cols = append(s.Cols, SelectCol{Star: true})
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			col := SelectCol{Expr: e}
			if p.acceptKw("AS") {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				col.Alias = a
			}
			s.Cols = append(s.Cols, col)
		}
		if !p.accept(tkOp, ",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		fromItem := func() error {
			name, err := p.ident()
			if err != nil {
				return err
			}
			fi := FromItem{Table: name, Alias: name}
			if t := p.peek(); t.kind == tkIdent && !isKeyword(t.text) {
				fi.Alias = t.text
				p.pos++
			}
			s.From = append(s.From, fi)
			return nil
		}
		if err := fromItem(); err != nil {
			return nil, err
		}
	fromLoop:
		for {
			switch {
			case p.accept(tkOp, ","):
				if err := fromItem(); err != nil {
					return nil, err
				}
			case p.acceptKw("JOIN"), p.acceptKw("INNER"):
				// "INNER" must be followed by JOIN; plain "JOIN" already
				// consumed it.
				if strings.EqualFold(p.toks[p.pos-1].text, "INNER") {
					if err := p.expectKw("JOIN"); err != nil {
						return nil, err
					}
				}
				if err := fromItem(); err != nil {
					return nil, err
				}
				if p.acceptKw("ON") {
					on, err := p.expr()
					if err != nil {
						return nil, err
					}
					if s.Where == nil {
						s.Where = on
					} else {
						s.Where = p.bin("AND", s.Where, on)
					}
				}
			default:
				break fromLoop
			}
		}
	}
	if p.acceptKw("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		if s.Where == nil {
			s.Where = w
		} else {
			s.Where = p.bin("AND", s.Where, w)
		}
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		var err error
		if s.GroupBy, err = p.exprList(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("HAVING") {
		h, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				oi.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			s.OrderBy = append(s.OrderBy, oi)
			if !p.accept(tkOp, ",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		lit, ok := e.(*ELit)
		if !ok || lit.V.Kind != KInt {
			return nil, fmt.Errorf("sql: LIMIT must be an integer literal")
		}
		s.Limit = lit.V.I
	}
	return s, nil
}

// keywords, upper case: an identifier that spells one is not read as a
// table's alias or a column's type.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "JOIN": true, "INNER": true, "ON": true,
	"AND": true, "OR": true, "NOT": true, "AS": true, "ASC": true, "DESC": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "DROP": true, "TABLE": true, "INDEX": true,
	"UNIQUE": true, "BEGIN": true, "COMMIT": true, "ROLLBACK": true,
	"LIKE": true, "BETWEEN": true, "IS": true, "NULL": true, "IN": true,
	"PRIMARY": true, "KEY": true, "REPLACE": true, "ALTER": true, "ADD": true,
	"COLUMN": true, "PRAGMA": true, "HAVING": true, "DISTINCT": true, "ALL": true,
	"UNION": true, "END": true, "TRANSACTION": true,
}

// isKeyword reports whether the identifier s spells a keyword in any case.
func isKeyword(s string) bool {
	_, ok := lookupKw(keywords, s)
	return ok
}

// lookupKw looks the identifier s up in m, whose keys are keywords in
// upper case, without allocating.
func lookupKw[V any](m map[string]V, s string) (v V, ok bool) {
	var up [len("TRANSACTION")]byte // the longest keyword
	if len(s) > len(up) {
		return v, false
	}
	for i := range len(s) {
		up[i] = s[i]
		if 'a' <= s[i] && s[i] <= 'z' {
			up[i] -= 'a' - 'A'
		}
	}
	v, ok = m[string(up[:len(s)])]
	return v, ok
}

func (p *parser) insertStmt() (*InsertStmt, error) {
	s := &p.ins
	*s = InsertStmt{Cols: s.Cols[:0], Rows: s.Rows[:0]}
	if p.acceptKw("REPLACE") {
		s.Replace = true
	} else {
		if err := p.expectKw("INSERT"); err != nil {
			return nil, err
		}
		if p.acceptKw("OR") {
			if err := p.expectKw("REPLACE"); err != nil {
				return nil, err
			}
			s.Replace = true
		}
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Table = name
	if p.accept(tkOp, "(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			s.Cols = append(s.Cols, col)
			if !p.accept(tkOp, ",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.peek().kind == tkIdent && strings.EqualFold(p.peek().text, "SELECT") {
		sub, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		s.FromSelect = sub
		return s, nil
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		row, err := p.exprList()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
		if !p.accept(tkOp, ",") {
			break
		}
	}
	return s, nil
}

func (p *parser) updateStmt() (*UpdateStmt, error) {
	if err := p.expectKw("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &p.upd
	*s = UpdateStmt{Table: name, Sets: s.Sets[:0]}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Sets = append(s.Sets, struct {
			Col string
			E   Expr
		}{col, e})
		if !p.accept(tkOp, ",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

func (p *parser) deleteStmt() (*DeleteStmt, error) {
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	s := &p.del
	*s = DeleteStmt{Table: name}
	if p.acceptKw("WHERE") {
		w, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

func (p *parser) createStmt() (any, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	unique := p.acceptKw("UNIQUE")
	if p.acceptKw("INDEX") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var cols []string
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if !p.accept(tkOp, ",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Name: name, Table: table, Cols: cols, Unique: unique}, nil
	}
	if unique {
		return nil, fmt.Errorf("sql: UNIQUE only valid for indexes")
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	s := &CreateTableStmt{Name: name, RowidCol: -1}
	for {
		cname, err := p.ident()
		if err != nil {
			return nil, err
		}
		col := Column{Name: cname, Type: "TEXT"}
		if t := p.peek(); t.kind == tkIdent && !isKeyword(t.text) {
			col.Type = strings.ToUpper(t.text)
			p.pos++
		}
		if p.acceptKw("PRIMARY") {
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			if strings.EqualFold(col.Type, "INTEGER") {
				s.RowidCol = len(s.Cols)
			}
		}
		p.acceptKw("NOT") // tolerate NOT NULL
		p.acceptKw("NULL")
		s.Cols = append(s.Cols, col)
		if !p.accept(tkOp, ",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *parser) dropStmt() (*DropStmt, error) {
	if err := p.expectKw("DROP"); err != nil {
		return nil, err
	}
	kind := ""
	switch {
	case p.acceptKw("TABLE"):
		kind = "table"
	case p.acceptKw("INDEX"):
		kind = "index"
	default:
		return nil, fmt.Errorf("sql: DROP must name TABLE or INDEX")
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropStmt{Kind: kind, Name: name}, nil
}

func (p *parser) alterStmt() (*AlterAddColumnStmt, error) {
	if err := p.expectKw("ALTER"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ADD"); err != nil {
		return nil, err
	}
	p.acceptKw("COLUMN")
	cname, err := p.ident()
	if err != nil {
		return nil, err
	}
	col := Column{Name: cname, Type: "TEXT"}
	if t := p.peek(); t.kind == tkIdent && !isKeyword(t.text) {
		col.Type = strings.ToUpper(t.text)
		p.pos++
	}
	return &AlterAddColumnStmt{Table: table, Col: col}, nil
}

// --- Expression parsing (precedence climbing) ---------------------------------

// binOp is a binary operator's precedence level, loosest 0, and the Op of
// its node.
type binOp struct {
	level int
	op    string
}

// binOps holds every binary operator, a keyword upper case (matched in any
// case). IS, BETWEEN, IN and NOT have no Op: they start the comparisons
// cmpTail parses.
var binOps = map[string]binOp{
	"OR": {0, "OR"}, "AND": {1, "AND"},
	"=": {cmpLevel, "="}, "==": {cmpLevel, "="}, "!=": {cmpLevel, "!="}, "<>": {cmpLevel, "!="},
	"<": {cmpLevel, "<"}, "<=": {cmpLevel, "<="}, ">": {cmpLevel, ">"}, ">=": {cmpLevel, ">="},
	"LIKE": {cmpLevel, "LIKE"}, "IS": {cmpLevel, ""}, "BETWEEN": {cmpLevel, ""}, "IN": {cmpLevel, ""}, "NOT": {cmpLevel, ""},
	"+": {cmpLevel + 1, "+"}, "-": {cmpLevel + 1, "-"}, "||": {cmpLevel + 1, "||"},
	"*": {cmpLevel + 2, "*"}, "/": {cmpLevel + 2, "/"}, "%": {cmpLevel + 2, "%"},
}

const (
	notLevel = 2 // where NOT is a prefix: looser than a comparison, tighter than AND
	cmpLevel = 3
)

func (p *parser) expr() (Expr, error) { return p.binary(0) }

// binary parses an operand and every operator after it that binds at
// least as tightly as level, left to right; an operator's right operand
// binds one level tighter.
func (p *parser) binary(level int) (Expr, error) {
	var l Expr
	var err error
	if level <= notLevel && p.acceptKw("NOT") {
		if l, err = p.binary(notLevel); err != nil {
			return nil, err
		}
		l = &EUn{Op: "NOT", E: l}
	} else if l, err = p.exprUnary(); err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var o binOp
		ok := false
		switch t.kind {
		case tkOp:
			o, ok = binOps[t.text]
		case tkIdent:
			o, ok = lookupKw(binOps, t.text)
		}
		switch {
		case !ok || o.level < level:
			return l, nil
		case o.op == "":
			if l, err = p.cmpTail(l); err != nil {
				return nil, err
			}
		default:
			p.pos++
			r, err := p.binary(o.level + 1)
			if err != nil {
				return nil, err
			}
			l = p.bin(o.op, l, r)
		}
	}
}

// cmpTail parses the comparison on l that IS, BETWEEN, IN or NOT starts:
// IS [NOT] NULL, [NOT] BETWEEN, [NOT] IN or NOT LIKE.
func (p *parser) cmpTail(l Expr) (Expr, error) {
	switch {
	case p.acceptKw("IS"):
		not := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return p.bin("IS NULL", l, p.lit(Bool(!not))), nil
	case p.acceptKw("BETWEEN"):
		return p.between(l, false)
	case p.acceptKw("IN"):
		return p.inTail(l, false)
	}
	p.pos++ // NOT
	switch {
	case p.acceptKw("IN"):
		return p.inTail(l, true)
	case p.acceptKw("BETWEEN"):
		return p.between(l, true)
	case p.acceptKw("LIKE"):
		r, err := p.binary(cmpLevel + 1)
		if err != nil {
			return nil, err
		}
		return &EUn{Op: "NOT", E: p.bin("LIKE", l, r)}, nil
	}
	return nil, fmt.Errorf("sql: expected IN, BETWEEN or LIKE after NOT, got %q", p.peek().text)
}

// between parses the bounds of e [NOT] BETWEEN lo AND hi.
func (p *parser) between(e Expr, not bool) (Expr, error) {
	lo, err := p.binary(cmpLevel + 1)
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AND"); err != nil {
		return nil, err
	}
	hi, err := p.binary(cmpLevel + 1)
	if err != nil {
		return nil, err
	}
	return &EBetween{E: e, Lo: lo, Hi: hi, Not: not}, nil
}

// exprList parses a comma-separated list of expressions. They collect on
// p.list above those of the lists around this one, and the finished list
// moves to p.exprs, cut to size.
func (p *parser) exprList() ([]Expr, error) {
	base := len(p.list)
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.list = append(p.list, e)
		if !p.accept(tkOp, ",") {
			break
		}
	}
	start := len(p.exprs)
	p.exprs = append(p.exprs, p.list[base:]...)
	p.list = p.list[:base]
	return p.exprs[start:len(p.exprs):len(p.exprs)], nil
}

// inTail parses the parenthesised tail of an IN predicate.
func (p *parser) inTail(l Expr, not bool) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	if p.peek().kind == tkIdent && strings.EqualFold(p.peek().text, "SELECT") {
		sub, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &EIn{E: l, Sub: sub, Not: not}, nil
	}
	list, err := p.exprList()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &EIn{E: l, List: list, Not: not}, nil
}

func (p *parser) exprUnary() (Expr, error) {
	if p.accept(tkOp, "-") {
		e, err := p.exprUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*ELit); ok {
			switch lit.V.Kind {
			case KInt:
				return p.lit(Int(-lit.V.I)), nil
			case KReal:
				return p.lit(Real(-lit.V.R)), nil
			}
		}
		return &EUn{Op: "-", E: e}, nil
	}
	if p.accept(tkOp, "+") {
		return p.exprUnary()
	}
	return p.exprPrimary()
}

func (p *parser) exprPrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tkNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q", t.text)
			}
			return p.lit(Real(f)), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad integer %q", t.text)
		}
		return p.lit(Int(i)), nil
	case tkString:
		p.pos++
		return p.lit(Text(t.text)), nil
	case tkOp:
		if t.text == "(" {
			p.pos++
			// Scalar subquery?
			if p.peek().kind == tkIdent && strings.EqualFold(p.peek().text, "SELECT") {
				sub, err := p.selectStmt()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &ESub{Sel: sub}, nil
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tkIdent:
		p.pos++
		switch {
		case strings.EqualFold(t.text, "NULL"):
			return p.lit(Null()), nil
		case strings.EqualFold(t.text, "TRUE"):
			return p.lit(Int(1)), nil
		case strings.EqualFold(t.text, "FALSE"):
			return p.lit(Int(0)), nil
		}
		name := t.text
		// Function call?
		if p.accept(tkOp, "(") {
			f := &EFunc{Name: strings.ToLower(name)}
			switch {
			case p.accept(tkOp, ")"):
				return f, nil
			case p.accept(tkOp, "*"):
				f.Star = true
			default:
				var err error
				if f.Args, err = p.exprList(); err != nil {
					return nil, err
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return f, nil
		}
		// Qualified column?
		if p.accept(tkOp, ".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return p.col(name, col), nil
		}
		return p.col("", name), nil
	}
	return nil, fmt.Errorf("sql: unexpected token %q", t.text)
}
