package sqldb

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Result is the outcome of one statement. It is the DB's own and is good
// until the next Exec on the DB, which reuses its rows, their values and
// the bytes of their texts: copy what must outlive that.
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
	tbl   *Table
	rowid int64
	// rec is the bound row's record as the scan or look-up showed it — a
	// view of a pinned page frame, or of the DB's copy of one (a staged
	// hit, a stored row) — and is good until the row's callback returns.
	rec []byte
	// vals has an entry per column and is reused from row to row: bindRow
	// decodes rec into it, a text as a view of rec. A value that
	// outlives the row's callback is copied by whoever keeps it (kept).
	vals []Value
	// own is the bind's copy of each record under PoisonRows, which fills
	// it with 0xDD once the row's callback has returned.
	own []byte
}

// rowCtx is the evaluation context: the bound tables of one statement.
type rowCtx struct {
	tables []*tblCtx
	// group is set on the row context of a group of an aggregate query,
	// its binds rebound to the group's first row: an aggregate call
	// evaluated in it reads its value over the group.
	group *group
}

// frame is what a statement works in at one level of nesting, kept for
// the next statement at that level: level 0 is Exec's statement, and a
// subquery runs one level below the statement that evaluates it. Entering a level rewinds its frame, so its Result and
// binds are dead once the next statement at that level starts — at level
// 0, the next Exec.
type frame struct {
	res *Result
	// cells holds the values of res.Rows, each row a run of its own, and
	// text the bytes of res.Cols and of the texts among cells.
	cells arena[Value]
	text  arena[byte]
	binds []*tblCtx
	// levels plans the join over binds, and cols is the select list with
	// its hidden ORDER BY columns.
	levels []joinLevel
	cols   []SelectCol
	okeys  []okey // the ORDER BY terms, as columns of cols
	conj   []Expr // the WHERE clause's conjuncts
	rc     rowCtx // the row context of a row of the join
	// An aggregate query's state: its aggregate calls, its groups by key
	// and in order of their first row, and the key of the row being
	// grouped. A group and its states are runs of groupSlab and
	// stateSlab; its key and first row are in text and cells. groups is
	// cleared, not remade, by the next aggregate query at this level, and
	// dropped when it held more groups than groupSlab keeps.
	calls     []*EFunc
	groups    map[string]*group
	order     []*group
	key       []byte
	groupSlab arena[group]
	stateSlab arena[aggState]
}

// okey is an ORDER BY term: the column of the select list, hidden ones
// included, that it sorts by, and its direction.
type okey struct {
	idx  int
	desc bool
}

// enter rewinds the frame of the next level down and returns it.
func (db *DB) enter() *frame {
	if db.depth == len(db.frames) {
		limit := db.arenaBytes()
		db.frames = append(db.frames, &frame{res: new(Result),
			cells: newArena[Value](valueSize, limit), text: newArena[byte](1, limit),
			groupSlab: newArena[group](groupSize, limit), stateSlab: newArena[aggState](aggStateSize, limit)})
	}
	f := db.frames[db.depth]
	db.depth++
	if db.onRewind != nil {
		db.onRewind(f)
	}
	*f.res = Result{Cols: f.res.Cols[:0], Rows: f.res.Rows[:0]}
	f.cells.rewind()
	f.text.rewind()
	f.groupSlab.rewind()
	f.stateSlab.rewind()
	return f
}

// arenaBytes is what each arena keeps across statements at most: what the
// page cache holds.
func (db *DB) arenaBytes() int { return db.pager.cap * PageSize }

// subSelect runs s one level below the statement evaluating it. Its Result
// is good until the next statement at that level starts: whoever keeps a
// value of it past that copies it (kept).
func (db *DB) subSelect(s *SelectStmt) *Result {
	f := db.enter()
	db.execSelect(f, s)
	db.depth--
	return f.res
}

// bind returns f's i-th bind, set to tbl: the value slice a bind decodes
// rows into is kept from statement to statement.
func (f *frame) bind(i int, tbl *Table) *tblCtx {
	if i == len(f.binds) {
		f.binds = append(f.binds, new(tblCtx))
	}
	b := f.binds[i]
	b.tbl = tbl
	return b
}

// keep returns v sharing nothing but f's text arena: a text is copied
// there.
func (f *frame) keep(v Value) Value {
	if v.Kind == KText {
		v.S = keepText(f, v.S)
	}
	return v
}

// keepText returns a copy of s in f's text arena.
func keepText[S string | []byte](f *frame, s S) string {
	b := f.text.alloc(len(s))
	copy(b, s)
	return view(b)
}

// resolve finds (table, column) for a column reference. A nil rc, the
// context of an INSERT's VALUES, has no columns.
func (rc *rowCtx) resolve(table, name string) (Value, bool) {
	if rc == nil {
		return Value{}, false
	}
	for _, t := range rc.tables {
		if table != "" && !strings.EqualFold(t.tbl.Name, table) {
			continue
		}
		if strings.EqualFold(name, "rowid") {
			return Int(t.rowid), true
		}
		if i := t.tbl.ColIndex(name); i >= 0 {
			return t.vals[i], true
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
	// a copy, since the group's later rows are bound after it. A text's
	// bytes are in buf, which the state's slot keeps for the next
	// statement's state.
	ext Value
	buf []byte
}

// reset makes a, a slot of a state slab, a new state of fn, keeping the
// capacity of its bytes unless it has grown past a page.
func (a *aggState) reset(fn string) { *a = aggState{fn: fn, isInt: true, buf: scratch(a.buf)} }

func (a *aggState) add(v Value) {
	if v.IsNull() {
		return
	}
	a.count++
	switch a.fn {
	case "sum", "avg":
		if v.Kind == KInt {
			a.sumI += v.I
			a.sum += float64(v.I)
		} else {
			a.isInt = false
			a.sum += v.Num()
		}
	case "min", "max":
		if c := Compare(v, a.ext); a.count == 1 || a.fn == "min" && c < 0 || a.fn == "max" && c > 0 {
			a.ext = v
			if v.Kind == KText {
				a.buf = append(a.buf[:0], v.S...)
				a.ext.S = view(a.buf)
			}
		}
	}
}

func (a *aggState) result() Value {
	switch a.fn {
	case "count":
		return Int(a.count)
	case "sum":
		if a.count == 0 {
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
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}

// group is one group of an aggregate query: a copy of its first row, which
// the columns that are not aggregates read, and the state of each of the
// query's aggregate calls over it, in calls' order.
type group struct {
	// first holds, for each bind, its rowid and then its columns; nil for
	// the group of an empty set.
	first  []Value
	calls  []*EFunc
	states []aggState
}

// result returns the value over g of x, one of g's aggregate calls.
func (g *group) result(x *EFunc) Value { return g.states[slices.Index(g.calls, x)].result() }

// newGroup starts a group of f's aggregate query, with the first row of
// f's binds when it has one, in f's slabs and arenas.
func (f *frame) newGroup(binds []*tblCtx) *group {
	g := &f.groupSlab.alloc(1)[0]
	*g = group{calls: f.calls, states: f.stateSlab.alloc(len(f.calls))}
	for i, x := range f.calls {
		g.states[i].reset(x.Name)
	}
	if binds == nil {
		return g
	}
	n := 0
	for _, b := range binds {
		n += 1 + len(b.tbl.Columns)
	}
	g.first = f.cells.alloc(n)
	at := 0
	for _, b := range binds {
		g.first[at] = Int(b.rowid)
		for i, v := range b.vals[:len(b.tbl.Columns)] {
			g.first[at+1+i] = f.keep(v)
		}
		at += 1 + len(b.tbl.Columns)
	}
	return g
}

// groupRow returns the row context of g: f's binds rebound to g's first
// row, or no binds for the group of an empty set.
func (f *frame) groupRow(binds []*tblCtx, g *group) *rowCtx {
	if g.first == nil {
		binds = nil
	}
	at := 0
	for _, b := range binds {
		b.rowid = g.first[at].I
		b.vals = append(b.vals[:0], g.first[at+1:at+1+len(b.tbl.Columns)]...)
		at += 1 + len(b.tbl.Columns)
	}
	f.rc = rowCtx{tables: binds, group: g}
	return &f.rc
}

// appendGroupKey appends v to the group key being built in dst: a kind
// byte, then a number's decimal text — an integral real's as the integer's,
// so that 1 and 1.0 group together — or a text's bytes with each NUL
// escaped and a NUL pair after them, as appendKey writes them. A value's
// key never runs into the next value's, nor equals another kind's.
func appendGroupKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case KInt:
		return strconv.AppendInt(append(dst, 0x01), v.I, 10)
	case KReal:
		if t := math.Trunc(v.R); t == v.R && t >= -(1<<63) && t < 1<<63 {
			return strconv.AppendInt(append(dst, 0x01), int64(t), 10)
		}
		return strconv.AppendFloat(append(dst, 0x01), v.R, 'g', -1, 64)
	case KText:
		return appendKey(dst, v)
	}
	return append(dst, 0x00)
}

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
	case *EBetween:
		walkExpr(x.E, fn)
		walkExpr(x.Lo, fn)
		walkExpr(x.Hi, fn)
	case *EFunc:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
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
	case *EBetween:
		v := db.eval(rc, x.E)
		lo := db.eval(rc, x.Lo)
		hi := db.eval(rc, x.Hi)
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Null()
		}
		return Bool(Compare(v, lo) >= 0 && Compare(v, hi) <= 0)
	case *EBin:
		return db.evalBin(rc, x)
	case *EFunc:
		return db.evalFunc(rc, x)
	case *ESub:
		if x.done {
			return x.cached
		}
		res := db.subSelect(x.Sel)
		x.cached, x.done = Null(), true
		if len(res.Rows) > 0 && len(res.Rows[0]) > 0 {
			// The next subquery at its level reuses res: the value is copied
			// to the frame of the statement evaluating it, which outlives
			// every evaluation.
			x.cached = db.frames[db.depth-1].keep(res.Rows[0][0])
		}
		return x.cached
	}
	fail("unsupported expression %T", e)
	return Null()
}

func colName(c *ECol) string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

func (db *DB) evalBin(rc *rowCtx, x *EBin) Value {
	l := db.eval(rc, x.L)
	if operands(x.Op, l) == 1 {
		return Bool(false)
	}
	return applyBin(x.Op, l, db.eval(rc, x.R))
}

// operands is how many operands evaluating op evaluates, l its left one:
// a false AND is decided without its right one.
func operands(op string, l Value) uint64 {
	if op == "AND" && !l.IsNull() && !l.Truthy() {
		return 1
	}
	return 2
}

// applyBin applies a binary operator to its operands' values.
func applyBin(op string, l, r Value) Value {
	switch op {
	case "AND":
		if !l.IsNull() && !l.Truthy() || !r.IsNull() && !r.Truthy() {
			return Bool(false)
		}
		if l.IsNull() || r.IsNull() {
			return Null()
		}
		return Bool(true)
	case "IS NULL":
		return Bool(l.IsNull() == r.Truthy()) // r true = IS NULL, false = IS NOT NULL
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null()
		}
		cmp := Compare(l, r)
		switch op {
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
	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			return Null()
		}
		// A division by zero is NULL, as in SQLite; % divides the operands
		// truncated to integers.
		if op == "/" && r.Num() == 0 || op == "%" && int64(r.Num()) == 0 {
			return Null()
		}
		if l.Kind == KInt && r.Kind == KInt {
			switch op {
			case "+":
				return Int(l.I + r.I)
			case "-":
				return Int(l.I - r.I)
			case "*":
				return Int(l.I * r.I)
			case "/":
				return Int(l.I / r.I)
			case "%":
				return Int(l.I % r.I)
			}
		}
		a, b := l.Num(), r.Num()
		switch op {
		case "+":
			return Real(a + b)
		case "-":
			return Real(a - b)
		case "*":
			return Real(a * b)
		case "/":
			return Real(a / b)
		case "%":
			return Int(int64(a) % int64(b))
		}
	}
	fail("unsupported operator %q", op)
	return Null()
}

// scalarArity is how many arguments each scalar function takes: at least
// [0] and at most [1].
var scalarArity = map[string][2]int{"length": {1, 1}, "random": {0, 0}}

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
	if x.Name == "random" {
		return Int(int64(db.nextRand()))
	}
	v := db.eval(rc, x.Args[0]) // length
	if v.IsNull() {
		return Null()
	}
	return Int(int64(len(v.String())))
}
