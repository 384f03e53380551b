package sqldb

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// oldAccess and oldPlanAccess are the planner as it was before the rowid
// became an index with idx nil: a kind per path ranked by a string table,
// and the rowid, index and BETWEEN paths built in branches of their own.
// TestPlanAccessMatchesKindTable holds planAccess to it.
type oldAccess struct {
	kind           string
	idx            *Index
	eq, lo, hi     Expr
	loIncl, hiIncl bool
}

var oldRank = map[string]int{"scan": 0, "index-range": 1, "rowid-range": 2, "index-eq": 3, "rowid-eq": 4}

func (db *DB) oldPlanAccess(binds []*tblCtx, i int, conjuncts []Expr) oldAccess {
	b := binds[i]
	best := oldAccess{kind: "scan"}
	better := func(a oldAccess) bool { return oldRank[a.kind] > oldRank[best.kind] }
	indexOn := func(ci int) *Index {
		col := b.tbl.Columns[ci].Name
		for _, idx := range db.cat.TableIndexes(b.tbl.Name) {
			if strings.EqualFold(idx.Cols[0], col) {
				return idx
			}
		}
		return nil
	}
	consider := func(ci int, op string, rhs Expr) {
		if maxBindIdx(rhs, binds) >= i {
			return
		}
		var a oldAccess
		switch {
		case ci == -2 && op == "=":
			a = oldAccess{kind: "rowid-eq", eq: rhs}
		case ci == -2:
			a = oldAccess{kind: "rowid-range"}
			switch op {
			case ">", ">=":
				a.lo, a.loIncl = rhs, op == ">="
			case "<", "<=":
				a.hi, a.hiIncl = rhs, op == "<="
			}
		case ci >= 0:
			idx := indexOn(ci)
			if idx == nil {
				return
			}
			if op == "=" {
				a = oldAccess{kind: "index-eq", idx: idx, eq: rhs}
			} else {
				a = oldAccess{kind: "index-range", idx: idx}
				switch op {
				case ">", ">=":
					a.lo, a.loIncl = rhs, op == ">="
				case "<", "<=":
					a.hi, a.hiIncl = rhs, op == "<="
				}
			}
		default:
			return
		}
		if better(a) {
			best = a
		}
	}
	for _, c := range conjuncts {
		if maxBindIdx(c, binds) != i {
			continue
		}
		switch x := c.(type) {
		case *EBin:
			switch x.Op {
			case "=", "<", "<=", ">", ">=":
				if ci := colOn(x.L, binds, i); ci != -1 {
					consider(ci, x.Op, x.R)
				} else if ci := colOn(x.R, binds, i); ci != -1 {
					consider(ci, flipOp[x.Op], x.L)
				}
			}
		case *EBetween:
			if ci := colOn(x.E, binds, i); ci != -1 {
				if maxBindIdx(x.Lo, binds) < i && maxBindIdx(x.Hi, binds) < i {
					if ci == -2 {
						a := oldAccess{kind: "rowid-range", lo: x.Lo, hi: x.Hi, loIncl: true, hiIncl: true}
						if better(a) {
							best = a
						}
					} else if idx := indexOn(ci); idx != nil {
						a := oldAccess{kind: "index-range", idx: idx, lo: x.Lo, hi: x.Hi, loIncl: true, hiIncl: true}
						if better(a) {
							best = a
						}
					}
				}
			}
		}
	}
	return best
}

// TestPlanAccessMatchesKindTable: for random WHERE clauses over random
// joins of up to three tables — conjuncts comparing the rowid, its alias,
// the leading and the second column of an index, plain and unknown
// columns, columns of a table outside the join, literals, arithmetic and
// subqueries with every comparison, LIKE and BETWEEN — planAccess chooses at
// every level the path the old planner chose: the same kind, index, bound
// expressions and inclusiveness.
func TestPlanAccessMatchesKindTable(t *testing.T) {
	withDB(t, 64, func(db *DB) {
		for _, sql := range []string{
			"CREATE TABLE t1 (id INTEGER PRIMARY KEY, a INTEGER, b TEXT, c INTEGER)",
			"CREATE INDEX t1a ON t1 (a)",
			"CREATE INDEX t1bc ON t1 (b, c)",
			"CREATE TABLE t2 (x INTEGER, y INTEGER)",
			"CREATE INDEX t2y ON t2 (y)",
			"CREATE INDEX t2yx ON t2 (y, x)",
			"CREATE TABLE t3 (p INTEGER, q TEXT)",
		} {
			db.MustExec(sql)
		}
		rng := rand.New(rand.NewSource(29))
		cols := []string{"id", "a", "b", "c", "x", "y", "p", "q", "rowid", "z"}
		ops := []string{"=", "=", "=", "<", "<=", ">", ">=", "!=", "LIKE"}
		kinds := map[string]int{}
		for range 4000 {
			var from []string
			for _, k := range rng.Perm(3)[:1+rng.Intn(3)] {
				from = append(from, fmt.Sprintf("t%d", 1+k))
			}
			tables := append(slices.Clone(from), "w") // w is no table
			operand := func() string {
				switch n := rng.Intn(10); {
				case n < 5:
					c := cols[rng.Intn(len(cols))]
					if rng.Intn(3) == 0 {
						return tables[rng.Intn(len(tables))] + "." + c
					}
					return c
				case n < 7:
					return fmt.Sprint(rng.Intn(100))
				case n < 8:
					return "'s'"
				case n < 9:
					return "(SELECT 1)"
				}
				return cols[rng.Intn(len(cols))] + " + 1"
			}
			var conj []string
			for range 1 + rng.Intn(4) {
				l, r := operand(), operand()
				if rng.Intn(10) < 7 {
					conj = append(conj, l+" "+ops[rng.Intn(len(ops))]+" "+r)
				} else {
					conj = append(conj, l+" BETWEEN "+r+" AND "+operand())
				}
			}
			sql := "SELECT 1 FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(conj, " AND ")
			stmt, err := Parse(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			s := stmt.(*SelectStmt)
			binds := make([]*tblCtx, len(s.From))
			for k, fi := range s.From {
				binds[k] = &tblCtx{tbl: db.cat.Table(fi.Table)}
			}
			conjuncts := appendConjuncts(nil, s.Where)
			for i := range binds {
				got, want := db.planAccess(binds, i, conjuncts), db.oldPlanAccess(binds, i, conjuncts)
				kind := [...]string{"scan", "index-range", "rowid-range", "index-eq", "rowid-eq"}[got.rank()]
				if kind != want.kind || got.idx != want.idx || got.eq != want.eq || got.lo != want.lo || got.hi != want.hi ||
					got.loIncl != want.loIncl || got.hiIncl != want.hiIncl {
					t.Fatalf("%s, level %d: planned %s %+v, the old planner %+v", sql, i, kind, got, want)
				}
				kinds[kind]++
			}
		}
		for _, kind := range []string{"scan", "index-range", "rowid-range", "index-eq", "rowid-eq"} {
			if kinds[kind] < 100 {
				t.Errorf("premise broken: %s chosen %d times", kind, kinds[kind])
			}
		}
		t.Logf("paths chosen: %v", kinds)
	})
}
