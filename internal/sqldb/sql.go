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
	ops2       = [...]string{"<=", ">=", "<>", "!=", "=="}
	oneCharOps = func() (t [256]string) {
		for _, c := range "+-*/%=<>(),.;" {
			t[c] = string(c)
		}
		return t
	}()
)

// lex appends the tokens of src to toks[:0].
func lex(toks []token, src string) []token {
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
					failSQL("unterminated string")
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
				failSQL("unexpected character %q", c)
			}
			toks = append(toks, token{tkOp, oneCharOps[c]})
			pos++
		}
	}
	return append(toks, token{tkEOF, ""})
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

// EFunc is a function call; Star marks count(*).
type EFunc struct {
	Name string
	Args []Expr
	Star bool
}

// ESub is a scalar subquery. It reads only its own tables, so it is
// evaluated once a statement and cached: done is set once cached holds
// its value, and the parser clears both when it hands the node out again.
type ESub struct {
	Sel    *SelectStmt
	cached Value
	done   bool
}

// EBetween is x BETWEEN lo AND hi.
type EBetween struct{ E, Lo, Hi Expr }

// SelectCol is one result column.
type SelectCol struct{ Expr Expr }

// FromItem is one table in the FROM clause.
type FromItem struct{ Table string }

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT statement.
type SelectStmt struct {
	Cols    []SelectCol
	From    []FromItem
	Where   Expr
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   int64 // -1 = none
}

// InsertStmt is INSERT [OR REPLACE] INTO.
type InsertStmt struct {
	Table   string
	Cols    []string
	Rows    [][]Expr
	Replace bool
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

// CreateIndexStmt is CREATE INDEX.
type CreateIndexStmt struct {
	Name  string
	Table string
	Cols  []string
}

// AlterAddColumnStmt is ALTER TABLE t ADD COLUMN.
type AlterAddColumnStmt struct {
	Table string
	Col   Column
}

// TxnStmt is BEGIN or COMMIT.
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
//
// A malformed statement unwinds the parse with an execErr, as a failing
// one unwinds the executor (failSQL): the parsing functions return only
// what they parsed, and the recover is Exec's, or Parse's.
type parser struct {
	toks []token
	pos  int
	// lits, cols, bins, betweens, funcs, subs and sels are the chunks
	// literal, column, binary, BETWEEN, function-call, subquery and SELECT
	// nodes are carved from.
	lits     []ELit
	cols     []ECol
	bins     []EBin
	betweens []EBetween
	funcs    []EFunc
	subs     []ESub
	sels     []SelectStmt
	// ins, upd, del and txn are the INSERT, UPDATE, DELETE, BEGIN or
	// COMMIT being parsed.
	ins InsertStmt
	upd UpdateStmt
	del DeleteStmt
	txn TxnStmt
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

// failSQL fails the statement being parsed.
func failSQL(format string, args ...any) {
	panic(execErr{fmt.Errorf("sql: "+format, args...)})
}

// Parse parses one SQL statement.
func Parse(src string) (stmt any, err error) {
	defer func() {
		if r := recover(); r != nil {
			ee, ok := r.(execErr)
			if !ok {
				panic(r)
			}
			stmt, err = nil, ee.err
		}
	}()
	return new(parser).parse(src), nil
}

func (p *parser) parse(src string) any {
	if cap(p.toks) > maxKeptToks {
		*p = parser{}
	}
	p.toks = lex(p.toks, src)
	p.pos, p.list, p.exprs = 0, p.list[:0], p.exprs[:0]
	p.lits, p.cols, p.bins, p.betweens = p.lits[:0], p.cols[:0], p.bins[:0], p.betweens[:0]
	p.funcs, p.subs, p.sels = p.funcs[:0], p.subs[:0], p.sels[:0]
	stmt := p.statement()
	p.accept(tkOp, ";")
	if p.peek().kind != tkEOF {
		failSQL("trailing tokens at %q", p.peek().text)
	}
	return stmt
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

// expectKw consumes the keywords kws, in order.
func (p *parser) expectKw(kws ...string) {
	for _, kw := range kws {
		if !p.acceptKw(kw) {
			failSQL("expected %s, got %q", kw, p.peek().text)
		}
	}
}

func (p *parser) accept(kind tokKind, text string) bool {
	t := p.peek()
	if t.kind == kind && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) {
	if !p.accept(tkOp, op) {
		failSQL("expected %q, got %q", op, p.peek().text)
	}
}

func (p *parser) ident() string {
	t := p.peek()
	if t.kind != tkIdent {
		failSQL("expected identifier, got %q", t.text)
	}
	p.pos++
	return t.text
}

// idents appends to dst the comma-separated identifiers up to a closing
// parenthesis, which it consumes.
func (p *parser) idents(dst []string) []string {
	for more := true; more; more = p.accept(tkOp, ",") {
		dst = append(dst, p.ident())
	}
	p.expectOp(")")
	return dst
}

// atSelect reports whether a SELECT starts at the next token.
func (p *parser) atSelect() bool {
	t := p.peek()
	return t.kind == tkIdent && strings.EqualFold(t.text, "SELECT")
}

func (p *parser) statement() any {
	t := p.peek()
	if t.kind != tkIdent {
		failSQL("expected statement, got %q", t.text)
	}
	switch up := strings.ToUpper(t.text); up {
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
	case "ALTER":
		return p.alterStmt()
	case "BEGIN", "COMMIT", "END":
		p.pos++
		p.acceptKw("TRANSACTION")
		p.txn = TxnStmt{Kind: "commit"}
		if up == "BEGIN" {
			p.txn.Kind = "begin"
		}
		return &p.txn
	case "PRAGMA":
		p.pos++
		return &PragmaStmt{Name: strings.ToLower(p.ident())}
	}
	failSQL("unsupported statement %q", t.text)
	return nil
}

func (p *parser) selectStmt() *SelectStmt {
	p.expectKw("SELECT")
	s := carve(&p.sels)
	*s = SelectStmt{Cols: s.Cols[:0], From: s.From[:0], OrderBy: s.OrderBy[:0], Limit: -1}
	for more := true; more; more = p.accept(tkOp, ",") {
		s.Cols = append(s.Cols, SelectCol{Expr: p.expr()})
	}
	if p.acceptKw("FROM") {
		for more := true; more; more = p.accept(tkOp, ",") {
			s.From = append(s.From, FromItem{Table: p.ident()})
		}
	}
	s.Where = p.where()
	if p.acceptKw("GROUP") {
		p.expectKw("BY")
		s.GroupBy = p.exprList()
	}
	if p.acceptKw("ORDER") {
		p.expectKw("BY")
		for more := true; more; more = p.accept(tkOp, ",") {
			oi := OrderItem{Expr: p.expr()}
			if p.acceptKw("DESC") {
				oi.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			s.OrderBy = append(s.OrderBy, oi)
		}
	}
	if p.acceptKw("LIMIT") {
		lit, ok := p.expr().(*ELit)
		if !ok || lit.V.Kind != KInt {
			failSQL("LIMIT must be an integer literal")
		}
		s.Limit = lit.V.I
	}
	return s
}

// where parses an optional WHERE clause.
func (p *parser) where() Expr {
	if p.acceptKw("WHERE") {
		return p.expr()
	}
	return nil
}

// keywords, upper case, are the words that can follow a column's name
// other than its type: an identifier that spells one is not read as the
// type.
var keywords = map[string]bool{"PRIMARY": true, "NOT": true, "NULL": true}

// isKeyword reports whether the identifier s spells a keyword in any case.
func isKeyword(s string) bool {
	_, ok := lookupKw(keywords, s)
	return ok
}

// maxKw is the length of the longest key of keywords, binOps and
// namedLits, the maps lookupKw reads.
const maxKw = len("BETWEEN")

// lookupKw looks the identifier s up in m, whose keys are keywords in
// upper case, without allocating.
func lookupKw[V any](m map[string]V, s string) (v V, ok bool) {
	var up [maxKw]byte
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

func (p *parser) insertStmt() *InsertStmt {
	s := &p.ins
	*s = InsertStmt{Cols: s.Cols[:0], Rows: s.Rows[:0]}
	if s.Replace = p.acceptKw("REPLACE"); !s.Replace {
		p.expectKw("INSERT")
		if s.Replace = p.acceptKw("OR"); s.Replace {
			p.expectKw("REPLACE")
		}
	}
	p.expectKw("INTO")
	s.Table = p.ident()
	if p.accept(tkOp, "(") {
		s.Cols = p.idents(s.Cols)
	}
	p.expectKw("VALUES")
	for more := true; more; more = p.accept(tkOp, ",") {
		p.expectOp("(")
		s.Rows = append(s.Rows, p.exprList())
		p.expectOp(")")
	}
	return s
}

func (p *parser) updateStmt() *UpdateStmt {
	p.expectKw("UPDATE")
	s := &p.upd
	*s = UpdateStmt{Table: p.ident(), Sets: s.Sets[:0]}
	p.expectKw("SET")
	for more := true; more; more = p.accept(tkOp, ",") {
		col := p.ident()
		p.expectOp("=")
		s.Sets = append(s.Sets, struct {
			Col string
			E   Expr
		}{col, p.expr()})
	}
	s.Where = p.where()
	return s
}

func (p *parser) deleteStmt() *DeleteStmt {
	p.expectKw("DELETE", "FROM")
	p.del = DeleteStmt{Table: p.ident(), Where: p.where()}
	return &p.del
}

func (p *parser) createStmt() any {
	p.expectKw("CREATE")
	if p.acceptKw("INDEX") {
		s := &CreateIndexStmt{Name: p.ident()}
		p.expectKw("ON")
		s.Table = p.ident()
		p.expectOp("(")
		s.Cols = p.idents(nil)
		return s
	}
	p.expectKw("TABLE")
	s := &CreateTableStmt{Name: p.ident(), RowidCol: -1}
	p.expectOp("(")
	for more := true; more; more = p.accept(tkOp, ",") {
		col := p.column()
		if p.acceptKw("PRIMARY") {
			p.expectKw("KEY")
			if strings.EqualFold(col.Type, "INTEGER") {
				s.RowidCol = len(s.Cols)
			}
		}
		p.acceptKw("NOT") // tolerate NOT NULL
		p.acceptKw("NULL")
		s.Cols = append(s.Cols, col)
	}
	p.expectOp(")")
	return s
}

// column parses a column's name and its type, TEXT when none is given.
func (p *parser) column() Column {
	col := Column{Name: p.ident(), Type: "TEXT"}
	if t := p.peek(); t.kind == tkIdent && !isKeyword(t.text) {
		col.Type = strings.ToUpper(t.text)
		p.pos++
	}
	return col
}

func (p *parser) alterStmt() *AlterAddColumnStmt {
	p.expectKw("ALTER", "TABLE")
	s := &AlterAddColumnStmt{Table: p.ident()}
	p.expectKw("ADD")
	p.acceptKw("COLUMN")
	s.Col = p.column()
	return s
}

// --- Expression parsing (precedence climbing) ---------------------------------

// binOp is a binary operator's precedence level, loosest 0, and the Op of
// its node.
type binOp struct {
	level int
	op    string
}

// binOps holds every binary operator, a keyword upper case (matched in any
// case). IS and BETWEEN have no Op: they start the comparisons cmpTail
// parses.
var binOps = map[string]binOp{
	"AND": {0, "AND"}, "LIKE": {cmpLevel, "LIKE"}, "IS": {cmpLevel, ""}, "BETWEEN": {cmpLevel, ""},
	"=": {cmpLevel, "="}, "==": {cmpLevel, "="}, "!=": {cmpLevel, "!="}, "<>": {cmpLevel, "!="},
	"<": {cmpLevel, "<"}, "<=": {cmpLevel, "<="}, ">": {cmpLevel, ">"}, ">=": {cmpLevel, ">="},
	"+": {cmpLevel + 1, "+"}, "-": {cmpLevel + 1, "-"},
	"*": {cmpLevel + 2, "*"}, "/": {cmpLevel + 2, "/"}, "%": {cmpLevel + 2, "%"},
}

// namedLits are the literals spelled as keywords.
var namedLits = map[string]Value{"NULL": Null(), "TRUE": Int(1), "FALSE": Int(0)}

const cmpLevel = 1

func (p *parser) expr() Expr { return p.binary(0) }

// binary parses an operand and every operator after it that binds at
// least as tightly as level, left to right; an operator's right operand
// binds one level tighter.
func (p *parser) binary(level int) Expr {
	l := p.exprUnary()
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
			return l
		case o.op == "":
			l = p.cmpTail(l)
		default:
			p.pos++
			l = p.bin(o.op, l, p.binary(o.level+1))
		}
	}
}

// cmpTail parses the comparison on l that IS or BETWEEN starts: IS [NOT]
// NULL, or BETWEEN lo AND hi.
func (p *parser) cmpTail(l Expr) Expr {
	if p.acceptKw("IS") {
		not := p.acceptKw("NOT")
		p.expectKw("NULL")
		return p.bin("IS NULL", l, p.lit(Bool(!not)))
	}
	p.pos++ // BETWEEN
	lo := p.binary(cmpLevel + 1)
	p.expectKw("AND")
	return place(&p.betweens, EBetween{E: l, Lo: lo, Hi: p.binary(cmpLevel + 1)})
}

// exprList parses a comma-separated list of expressions. They collect on
// p.list above those of the lists around this one, and the finished list
// moves to p.exprs, cut to size.
func (p *parser) exprList() []Expr {
	base := len(p.list)
	for more := true; more; more = p.accept(tkOp, ",") {
		e := p.expr()
		p.list = append(p.list, e)
	}
	start := len(p.exprs)
	p.exprs = append(p.exprs, p.list[base:]...)
	p.list = p.list[:base]
	return p.exprs[start:len(p.exprs):len(p.exprs)]
}

// exprUnary parses an operand: a minus folds into the number after it.
func (p *parser) exprUnary() Expr {
	if p.accept(tkOp, "-") {
		if lit, ok := p.exprUnary().(*ELit); ok {
			switch lit.V.Kind {
			case KInt:
				return p.lit(Int(-lit.V.I))
			case KReal:
				return p.lit(Real(-lit.V.R))
			}
		}
		failSQL("unary minus takes a number")
	}
	if p.accept(tkOp, "+") {
		return p.exprUnary()
	}
	return p.exprPrimary()
}

func (p *parser) exprPrimary() Expr {
	t := p.peek()
	switch t.kind {
	case tkNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				failSQL("bad number %q", t.text)
			}
			return p.lit(Real(f))
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			failSQL("bad integer %q", t.text)
		}
		return p.lit(Int(i))
	case tkString:
		p.pos++
		return p.lit(Text(t.text))
	case tkOp:
		if p.accept(tkOp, "(") {
			var e Expr
			if p.atSelect() { // a scalar subquery
				e = place(&p.subs, ESub{Sel: p.selectStmt()})
			} else {
				e = p.expr()
			}
			p.expectOp(")")
			return e
		}
	case tkIdent:
		p.pos++
		if v, ok := lookupKw(namedLits, t.text); ok {
			return p.lit(v)
		}
		// Function call?
		if p.accept(tkOp, "(") {
			f := place(&p.funcs, EFunc{Name: strings.ToLower(t.text)})
			switch {
			case p.accept(tkOp, ")"):
				return f
			case p.accept(tkOp, "*"):
				f.Star = true
			default:
				f.Args = p.exprList()
			}
			p.expectOp(")")
			return f
		}
		// Qualified column?
		if p.accept(tkOp, ".") {
			return p.col(t.text, p.ident())
		}
		return p.col("", t.text)
	}
	failSQL("unexpected token %q", t.text)
	return nil
}
