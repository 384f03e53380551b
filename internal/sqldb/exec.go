package sqldb

import (
	"fmt"
	"slices"
	"strings"
)

// Result is the outcome of one statement. It is the DB's own and is good
// until the next Exec on the DB, which reuses its rows, their values and
// the bytes of their texts and blobs: copy what must outlive that.
type Result struct {
	Cols         []string
	Rows         [][]Value
	RowsAffected int64
	LastRowid    int64
}

// execErr unwinds a statement that fails, in the lexer, the parser or the
// executor, to the recover in Exec (or, for a parse, in Parse).
type execErr struct{ err error }

// fail fails the statement being executed.
func fail(format string, args ...any) {
	panic(execErr{fmt.Errorf("sqldb: "+format, args...)})
}

// tblCtx is one table binding in the current row context.
type tblCtx struct {
	alias string
	tbl   *Table
	rowid int64
	// rec is the bound row's record as the scan or look-up showed it — a
	// view of a pinned page frame, or of the DB's copy of one (a staged
	// hit, a stored row) — and is good until the row's callback returns.
	rec []byte
	// vals has an entry per column and is reused from row to row: bindRow
	// decodes rec into it, a text or blob as a view of rec. A value that
	// outlives the row's callback is copied by whoever keeps it (kept).
	vals []Value
	// own is the bind's copy of each record under PoisonRows, which fills
	// it with 0xDD once the row's callback has returned.
	own []byte
}

// rowCtx is the evaluation context: bound tables plus an optional parent
// (for correlated subqueries).
type rowCtx struct {
	tables []*tblCtx
	parent *rowCtx
	// group is set on the row context of a group of an aggregate query:
	// an aggregate call evaluated in it reads its value over the group.
	group *group
}

// frame is what a statement works in at one level of nesting, kept for
// the next statement at that level: level 0 is Exec's statement, and a
// subquery or an INSERT's SELECT runs one level below the statement that
// evaluates it. Entering a level rewinds its frame, so its Result and
// binds are dead once the next statement at that level starts — at level
// 0, the next Exec.
type frame struct {
	res *Result
	// cells holds the values of res.Rows, each row a run of its own, and
	// text the bytes of res.Cols and of the texts and blobs among cells.
	cells arena[Value]
	text  arena[byte]
	binds []*tblCtx
	// levels plans the join over binds, and cols is the select list with
	// its hidden ORDER BY and HAVING columns.
	levels []joinLevel
	cols   []SelectCol
	conj   []Expr // the WHERE clause's conjuncts
	rc     rowCtx // the row context of a row of the join
}

// enter rewinds the frame of the next level down and returns it.
func (db *DB) enter() *frame {
	if db.depth == len(db.frames) {
		db.frames = append(db.frames, &frame{res: new(Result),
			cells: newArena[Value](valueSize, db.arenaBytes()), text: newArena[byte](1, db.arenaBytes())})
	}
	f := db.frames[db.depth]
	db.depth++
	if db.onRewind != nil {
		db.onRewind(f)
	}
	*f.res = Result{Cols: f.res.Cols[:0], Rows: f.res.Rows[:0]}
	f.cells.rewind()
	f.text.rewind()
	return f
}

// arenaBytes is what each arena keeps across statements at most: what the
// page cache holds.
func (db *DB) arenaBytes() int { return db.pager.cap * PageSize }

// subSelect runs s one level below the statement evaluating it. Its Result
// is good until the next statement at that level starts: whoever keeps a
// value of it past that copies it (kept).
func (db *DB) subSelect(s *SelectStmt, parent *rowCtx) *Result {
	f := db.enter()
	db.execSelect(f, s, parent)
	db.depth--
	return f.res
}

// bind returns f's i-th bind, set to tbl under alias: the value slice a
// bind decodes rows into is kept from statement to statement.
func (f *frame) bind(i int, alias string, tbl *Table) *tblCtx {
	if i == len(f.binds) {
		f.binds = append(f.binds, new(tblCtx))
	}
	b := f.binds[i]
	b.alias, b.tbl = alias, tbl
	return b
}

// keep returns v sharing nothing but f's text arena: a text or blob is
// copied there.
func (f *frame) keep(v Value) Value {
	switch v.Kind {
	case KText:
		v.S = keepText(f, v.S)
	case KBlob:
		b := f.text.alloc(len(v.B))
		copy(b, v.B)
		v.B = b
	}
	return v
}

// keepText returns a copy of s in f's text arena.
func keepText[S string | []byte](f *frame, s S) string {
	b := f.text.alloc(len(s))
	copy(b, s)
	return view(b)
}

// resolve finds (table, column) for a column reference.
func (rc *rowCtx) resolve(table, name string) (Value, bool) {
	for c := rc; c != nil; c = c.parent {
		for _, t := range c.tables {
			if table != "" && !strings.EqualFold(t.alias, table) {
				continue
			}
			if strings.EqualFold(name, "rowid") {
				return Int(t.rowid), true
			}
			if i := t.tbl.ColIndex(name); i >= 0 {
				return t.vals[i], true
			}
		}
	}
	return Value{}, false
}

// aggState accumulates one aggregate function over a group.
type aggState struct {
	fn    string
	count int64
	sum   float64
	sumI  int64
	isInt bool
	// ext is the least value added so far for min, the greatest for max:
	// a copy, since the group's later rows are bound after it.
	ext Value
}

func (a *aggState) add(v Value) {
	if v.IsNull() {
		return
	}
	a.count++
	switch v.Kind {
	case KInt:
		a.sumI += v.I
		a.sum += float64(v.I)
	default:
		a.isInt = false
		a.sum += v.Num()
	}
	if a.fn == "min" && (a.count == 1 || Compare(v, a.ext) < 0) ||
		a.fn == "max" && (a.count == 1 || Compare(v, a.ext) > 0) {
		a.ext = kept(v)
	}
}

func (a *aggState) result() Value {
	switch a.fn {
	case "count":
		return Int(a.count)
	case "sum", "total":
		if a.count == 0 {
			if a.fn == "total" {
				return Real(0)
			}
			return Null()
		}
		if a.isInt {
			return Int(a.sumI)
		}
		return Real(a.sum)
	case "avg":
		if a.count == 0 {
			return Null()
		}
		return Real(a.sum / float64(a.count))
	case "min", "max":
		if a.count == 0 {
			return Null()
		}
		return a.ext
	}
	return Null()
}

func isAggFn(name string) bool {
	switch name {
	case "count", "sum", "avg", "min", "max", "total":
		return true
	}
	return false
}

// group is one group of an aggregate query: a copy of its first row, which
// the columns that are not aggregates read, and the state of each of the
// query's aggregate calls over it, in calls' order.
type group struct {
	first  *rowCtx
	calls  []*EFunc
	states []*aggState
}

// result returns the value over g of x, one of g's aggregate calls.
func (g *group) result(x *EFunc) Value { return g.states[slices.Index(g.calls, x)].result() }

// walkExpr calls fn on e and, while fn returns true, on each of its
// subexpressions, depth first and left to right. It is the only code that
// knows which nodes an Expr has below it; eval and projectRow, which
// evaluate the tree, keep their own switches. A subquery is a statement,
// not a subexpression: a callback that must look into one does so itself.
func walkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *EBin:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *EUn:
		walkExpr(x.E, fn)
	case *EBetween:
		walkExpr(x.E, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case *EFunc:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *EIn:
		walkExpr(x.E, fn)
		for _, a := range x.List {
			walkExpr(a, fn)
		}
	}
}

// walkSelect walks every expression of s's clauses: the select list,
// WHERE, GROUP BY, HAVING and ORDER BY.
func walkSelect(s *SelectStmt, fn func(Expr) bool) {
	for _, c := range s.Cols {
		walkExpr(c.Expr, fn)
	}
	walkExpr(s.Where, fn)
	for _, g := range s.GroupBy {
		walkExpr(g, fn)
	}
	walkExpr(s.Having, fn)
	for _, o := range s.OrderBy {
		walkExpr(o.Expr, fn)
	}
}

// likeMatch implements SQL LIKE: % matches any run of bytes, _ any one
// byte, and an ASCII letter either case of itself; other bytes match only
// themselves, as in SQLite without ICU. A mismatch backs up to the last %
// only — a run the pattern before it matched stays matched — so a match
// takes at most (len(s)+1)·(len(pat)+1) steps, which it returns for tests.
func likeMatch(pat, s string) (match bool, steps int) {
	p, t := 0, 0
	star, resume := -1, 0 // the last % seen, and where its run ends next
	for ; t < len(s); steps++ {
		switch {
		case p < len(pat) && pat[p] == '%':
			star, resume = p, t
			p++
		case p < len(pat) && (pat[p] == '_' || lowerASCII(pat[p]) == lowerASCII(s[t])):
			p, t = p+1, t+1
		case star >= 0:
			resume++
			p, t = star+1, resume
		default:
			return false, steps
		}
	}
	for p < len(pat) && pat[p] == '%' {
		p++
	}
	return p == len(pat), steps
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// eval computes an expression in the given row context.
func (db *DB) eval(rc *rowCtx, e Expr) Value {
	db.e.Work(workRowFilter / 4)
	switch x := e.(type) {
	case *ELit:
		return x.V
	case *ECol:
		v, ok := rc.resolve(x.Table, x.Name)
		if !ok {
			fail("no such column %s", colName(x))
		}
		return v
	case *EUn:
		switch x.Op {
		case "NOT":
			v := db.eval(rc, x.E)
			if v.IsNull() {
				return Null()
			}
			return Bool(!v.Truthy())
		case "-":
			v := db.eval(rc, x.E)
			switch v.Kind {
			case KInt:
				return Int(-v.I)
			case KNull:
				return Null()
			default:
				return Real(-v.Num())
			}
		}
	case *EBetween:
		v := db.eval(rc, x.E)
		lo := db.eval(rc, x.Lo)
		hi := db.eval(rc, x.Hi)
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null()
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		if x.Not {
			in = !in
		}
		return Bool(in)
	case *EIn:
		v := db.eval(rc, x.E)
		if v.IsNull() {
			return Null()
		}
		found := false
		if x.Sub != nil {
			for _, row := range db.subSelect(x.Sub, rc).Rows {
				if len(row) > 0 && !row[0].IsNull() && Compare(v, row[0]) == 0 {
					found = true
					break
				}
			}
		} else {
			for _, le := range x.List {
				lv := db.eval(rc, le)
				if !lv.IsNull() && Compare(v, lv) == 0 {
					found = true
					break
				}
			}
		}
		if x.Not {
			found = !found
		}
		return Bool(found)
	case *EBin:
		return db.evalBin(rc, x)
	case *EFunc:
		return db.evalFunc(rc, x)
	case *ESub:
		if x.cached != nil {
			return *x.cached
		}
		res := db.subSelect(x.Sel, rc)
		v := Null()
		if len(res.Rows) > 0 && len(res.Rows[0]) > 0 {
			v = kept(res.Rows[0][0]) // the next subquery at its level reuses res
		}
		// SQLite flattens and caches uncorrelated scalar subqueries;
		// correlated ones must be re-evaluated per outer row.
		if !db.isCorrelated(x.Sel) {
			x.cached = &v
		}
		return v
	}
	fail("unsupported expression %T", e)
	return Null()
}

// isCorrelated reports whether the subquery references columns outside
// its own FROM scope (conservatively: any reference it cannot resolve
// against its own tables marks it correlated).
func (db *DB) isCorrelated(sel *SelectStmt) bool {
	aliases := map[string]bool{}
	var cols []*Table
	for _, fi := range sel.From {
		aliases[strings.ToLower(fi.Alias)] = true
		if t := db.cat.Table(fi.Table); t != nil {
			cols = append(cols, t)
		}
	}
	resolvable := func(c *ECol) bool {
		if c.Table != "" {
			return aliases[strings.ToLower(c.Table)]
		}
		if strings.EqualFold(c.Name, "rowid") {
			return len(cols) > 0
		}
		for _, t := range cols {
			if t.ColIndex(c.Name) >= 0 {
				return true
			}
		}
		return false
	}
	correlated := false
	walkSelect(sel, func(e Expr) bool {
		switch x := e.(type) {
		case *ECol:
			correlated = correlated || !resolvable(x)
		case *EIn:
			// A nested subquery resolving against its own scope is fine;
			// treat unresolved nesting conservatively as correlated.
			correlated = correlated || x.Sub != nil && db.isCorrelated(x.Sub)
		case *ESub:
			correlated = correlated || db.isCorrelated(x.Sel)
		}
		return !correlated
	})
	return correlated
}

func colName(c *ECol) string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

func (db *DB) evalBin(rc *rowCtx, x *EBin) Value {
	switch x.Op {
	case "AND":
		l := db.eval(rc, x.L)
		if !l.IsNull() && !l.Truthy() {
			return Bool(false)
		}
		r := db.eval(rc, x.R)
		if !r.IsNull() && !r.Truthy() {
			return Bool(false)
		}
		if l.IsNull() || r.IsNull() {
			return Null()
		}
		return Bool(true)
	case "OR":
		l := db.eval(rc, x.L)
		if !l.IsNull() && l.Truthy() {
			return Bool(true)
		}
		r := db.eval(rc, x.R)
		if !r.IsNull() && r.Truthy() {
			return Bool(true)
		}
		if l.IsNull() || r.IsNull() {
			return Null()
		}
		return Bool(false)
	case "IS NULL":
		l := db.eval(rc, x.L)
		want := db.eval(rc, x.R).Truthy() // true = IS NULL, false = IS NOT NULL
		return Bool(l.IsNull() == want)
	}
	l := db.eval(rc, x.L)
	r := db.eval(rc, x.R)
	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null()
		}
		cmp := Compare(l, r)
		switch x.Op {
		case "=":
			return Bool(cmp == 0)
		case "!=":
			return Bool(cmp != 0)
		case "<":
			return Bool(cmp < 0)
		case "<=":
			return Bool(cmp <= 0)
		case ">":
			return Bool(cmp > 0)
		default:
			return Bool(cmp >= 0)
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null()
		}
		match, _ := likeMatch(r.String(), l.String())
		return Bool(match)
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null()
		}
		return Text(l.String() + r.String())
	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			return Null()
		}
		if l.Kind == KInt && r.Kind == KInt {
			switch x.Op {
			case "+":
				return Int(l.I + r.I)
			case "-":
				return Int(l.I - r.I)
			case "*":
				return Int(l.I * r.I)
			case "/":
				if r.I == 0 {
					return Null()
				}
				return Int(l.I / r.I)
			case "%":
				if r.I == 0 {
					return Null()
				}
				return Int(l.I % r.I)
			}
		}
		a, b := l.Num(), r.Num()
		switch x.Op {
		case "+":
			return Real(a + b)
		case "-":
			return Real(a - b)
		case "*":
			return Real(a * b)
		case "/":
			if b == 0 {
				return Null()
			}
			return Real(a / b)
		case "%": // on the operands truncated to integers, as SQLite does
			if int64(b) == 0 {
				return Null()
			}
			return Int(int64(a) % int64(b))
		}
	}
	fail("unsupported operator %q", x.Op)
	return Null()
}

// scalarArity is how many arguments each scalar function takes: at least
// [0] and at most [1], 127 being SQLite's default cap for any function.
var scalarArity = map[string][2]int{
	"length": {1, 1}, "abs": {1, 1}, "upper": {1, 1}, "lower": {1, 1}, "typeof": {1, 1},
	"substr": {2, 3}, "coalesce": {2, 127}, "ifnull": {2, 2}, "random": {0, 0},
}

func (db *DB) evalFunc(rc *rowCtx, x *EFunc) Value {
	if isAggFn(x.Name) {
		if rc == nil || rc.group == nil {
			fail("aggregate %s used outside an aggregate query", x.Name)
		}
		return rc.group.result(x)
	}
	arity, known := scalarArity[x.Name]
	switch n := len(x.Args); {
	case !known:
		fail("no such function %s", x.Name)
	case n < arity[0] || n > arity[1] || x.Star:
		fail("wrong number of arguments to function %s()", x.Name)
	}
	var buf [3]Value
	args := buf[:0]
	for _, a := range x.Args {
		args = append(args, db.eval(rc, a))
	}
	switch x.Name {
	case "length":
		if args[0].IsNull() {
			return Null()
		}
		if args[0].Kind == KBlob {
			return Int(int64(len(args[0].B)))
		}
		return Int(int64(len(args[0].String())))
	case "abs":
		v := args[0]
		switch v.Kind {
		case KInt:
			if v.I < 0 {
				return Int(-v.I)
			}
			return v
		case KNull:
			return Null()
		default:
			n := v.Num()
			if n < 0 {
				n = -n
			}
			return Real(n)
		}
	case "upper":
		return Text(strings.ToUpper(args[0].String()))
	case "lower":
		return Text(strings.ToLower(args[0].String()))
	case "substr":
		s := args[0].String()
		start := int(args[1].Num()) - 1
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return Text("")
		}
		end := len(s)
		if len(args) > 2 { // a negative length reads as 0
			end = min(max(start+int(args[2].Num()), start), len(s))
		}
		return Text(s[start:end])
	case "coalesce", "ifnull":
		for _, a := range args {
			if !a.IsNull() {
				return a
			}
		}
		return Null()
	case "random":
		return Int(int64(db.nextRand()))
	}
	switch args[0].Kind { // typeof
	case KNull:
		return Text("null")
	case KInt:
		return Text("integer")
	case KReal:
		return Text("real")
	case KText:
		return Text("text")
	}
	return Text("blob")
}
