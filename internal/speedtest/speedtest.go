// Package speedtest is the speedtest1 equivalent of the paper's SQLite
// evaluation (§6.4): a schedule of workloads keyed by the query
// identifiers on the x-axis of Figure 6. The paper splits the queries
// into two empirical groups: roughly two thirds "use the OS interface
// infrequently [and] benefit from caching" (low CubicleOS overhead,
// ~1.8×) and the rest "use the OS interface significantly more often"
// (high overhead, ~8×). The workloads reproduce that structure: group A
// operates on tables that fit the page cache inside batched
// transactions; group B works on a larger-than-cache table, commits per
// statement (journal + fsync traffic), or walks every page.
package speedtest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"cubicleos/internal/sqldb"
)

// QueryIDs is the Figure 6 x-axis.
var QueryIDs = []int{
	100, 110, 120, 130, 140, 142, 145, 150, 160, 161, 170, 180, 190,
	210, 230, 240, 250, 260, 270, 280, 290, 300, 310, 320, 400, 410,
	500, 510, 520, 980, 990,
}

// groupA lists the paper's low-overhead queries ("100–120, 140–161, 180,
// 190, 230, 250, 300, 320, 400, 500, 520, 990").
var groupA = map[int]bool{
	100: true, 110: true, 120: true, 140: true, 142: true, 145: true,
	150: true, 160: true, 161: true, 180: true, 190: true, 230: true,
	250: true, 300: true, 320: true, 400: true, 500: true, 520: true,
	990: true,
}

// InGroupA reports whether the paper classifies the query as
// low-overhead (cache-friendly).
func InGroupA(id int) bool { return groupA[id] }

// Title returns the workload description for a query ID (mirroring the
// speedtest1 test names).
func Title(id int) string {
	titles := map[int]string{
		100: "INSERTs into unindexed table, one txn",
		110: "ordered INSERTs with INTEGER PRIMARY KEY, one txn",
		120: "unordered INSERTs with INTEGER PRIMARY KEY, one txn",
		130: "SELECTs, numeric BETWEEN, unindexed big table",
		140: "SELECTs, LIKE, unindexed cached table",
		142: "SELECTs with ORDER BY, cached table",
		145: "SELECTs with ORDER BY and LIMIT, cached table",
		150: "CREATE INDEX on cached tables",
		160: "SELECTs, numeric BETWEEN, indexed",
		161: "SELECTs, text equality, indexed",
		170: "UPDATEs, numeric BETWEEN, indexed, autocommit",
		180: "UPDATEs of individual rows, one txn",
		190: "one big UPDATE of the whole table",
		210: "ALTER TABLE ADD COLUMN and backfill on big table",
		230: "UPDATEs, numeric BETWEEN, PK, one txn",
		240: "UPDATEs of individual rows, autocommit",
		250: "one big UPDATE of the whole cached table",
		260: "SELECT on the column added to the big table",
		270: "DELETEs, numeric BETWEEN, autocommit on big table",
		280: "DELETEs of individual rows, autocommit",
		290: "refill the big table with REPLACE, autocommit batches",
		300: "refill a cached table, one txn",
		310: "four-way join",
		320: "subquery in result set",
		400: "REPLACE ops on an IPK table, one txn",
		410: "lookups of random rows on the big table",
		500: "LIKE with GROUP BY on cached table",
		510: "text comparison scan over the big table",
		520: "random() function scan on cached table",
		980: "PRAGMA integrity_check",
		990: "schema and count statistics (ANALYZE stand-in)",
	}
	return titles[id]
}

// Config scales the workload.
type Config struct {
	// Size is the speedtest1 --stat equivalent; 100 is the default scale.
	Size int
}

// Runner executes the workload schedule against one database.
type Runner struct {
	DB  *sqldb.DB
	cfg Config
	rng uint64

	n   int // rows in the cached tables
	big int // rows in the larger-than-cache table

	// sql is where exec builds each statement's text.
	sql []byte
	// onExec, set only by tests, sees every statement exec runs: its
	// format, a copy of its arguments and the text built from them, a view
	// of sql that the next statement rewrites.
	onExec func(format string, args []any, sql string)
}

// New creates a runner. Size 0 selects the default scale of 100.
func New(db *sqldb.DB, cfg Config) *Runner {
	if cfg.Size <= 0 {
		cfg.Size = 100
	}
	r := &Runner{DB: db, cfg: cfg, rng: 0xDEADBEEFCAFEF00D}
	r.n = cfg.Size * 20   // cached tables: fit the page cache
	r.big = cfg.Size * 40 // big table: several times the page cache
	return r
}

func (r *Runner) rand() uint64 {
	x := r.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.rng = x
	return x * 0x2545F4914F6CDD1D
}

func (r *Runner) randN(n int) int { return int(r.rand() % uint64(n)) }

// filler is deterministic filler text: i·2654435761 mod 10^8 in decimal,
// zero-padded to width. exec writes it straight into the statement.
type filler struct{ i, width int }

func pad(i, width int) filler { return filler{i, width} }

func (f filler) appendTo(dst []byte) []byte {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(f.i*2654435761%100000000), 10)
	for range f.width - len(digits) {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// Setup creates and fills the schema every query runs against.
func (r *Runner) Setup() error {
	stmts := []string{
		"CREATE TABLE z1 (a INTEGER, b INTEGER, c TEXT)",
		"CREATE TABLE z2 (id INTEGER PRIMARY KEY, b INTEGER, c TEXT)",
		"CREATE TABLE z3 (id INTEGER PRIMARY KEY, b INTEGER, c TEXT)",
		"CREATE TABLE zbig (id INTEGER PRIMARY KEY, k INTEGER, pad TEXT)",
		"CREATE TABLE zj1 (id INTEGER PRIMARY KEY, ref INTEGER)",
		"CREATE TABLE zj2 (id INTEGER PRIMARY KEY, ref INTEGER)",
		"CREATE TABLE zj3 (id INTEGER PRIMARY KEY, ref INTEGER)",
		"CREATE TABLE zj4 (id INTEGER PRIMARY KEY, v INTEGER)",
	}
	for _, s := range stmts {
		if err := r.exec(s); err != nil {
			return err
		}
	}
	if err := r.exec("BEGIN"); err != nil {
		return err
	}
	for i := 1; i <= r.big; i++ {
		if err := r.exec("INSERT INTO zbig VALUES (%d, %d, '%s')", i, i%997, pad(i, 180)); err != nil {
			return err
		}
	}
	join := r.n
	if join > 400 {
		join = 400
	}
	for i := 1; i <= join; i++ {
		for _, tbl := range []string{"zj1", "zj2", "zj3"} {
			if err := r.exec("INSERT INTO %s VALUES (%d, %d)", tbl, i, (i%join)+1); err != nil {
				return err
			}
		}
		if err := r.exec("INSERT INTO zj4 VALUES (%d, %d)", i, i*7); err != nil {
			return err
		}
	}
	if err := r.exec("CREATE INDEX izbig ON zbig (k)"); err != nil {
		return err
	}
	return r.exec("COMMIT")
}

// Run executes one query workload by ID.
func (r *Runner) Run(id int) error {
	switch id {
	case 100:
		return r.inTxn(func() error {
			for i := 1; i <= r.n; i++ {
				if err := r.exec("INSERT INTO z1 VALUES (%d, %d, '%s')", i, r.randN(1000000), pad(i, 40)); err != nil {
					return err
				}
			}
			return nil
		})
	case 110:
		return r.inTxn(func() error {
			for i := 1; i <= r.n; i++ {
				if err := r.exec("INSERT INTO z2 VALUES (%d, %d, '%s')", i, r.randN(1000000), pad(i, 40)); err != nil {
					return err
				}
			}
			return nil
		})
	case 120:
		return r.inTxn(func() error {
			perm := make([]int, r.n)
			for i := range perm {
				perm[i] = i + 1
			}
			for i := len(perm) - 1; i > 0; i-- {
				j := r.randN(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			for _, id := range perm {
				if err := r.exec("INSERT INTO z3 VALUES (%d, %d, '%s')", id, r.randN(1000000), pad(id, 40)); err != nil {
					return err
				}
			}
			return nil
		})
	case 130:
		// Unindexed scans over the big table: cache misses per scan.
		for i := 0; i < 12; i++ {
			lo := r.randN(r.big)
			if err := r.exec("SELECT count(*), avg(id) FROM zbig WHERE pad BETWEEN '0' AND '5' AND id BETWEEN %d AND %d", lo, lo+r.big/10); err != nil {
				return err
			}
		}
		return nil
	case 140:
		for i := 0; i < 10; i++ {
			if err := r.exec("SELECT count(*) FROM z1 WHERE c LIKE '%%%d%%'", r.randN(100)); err != nil {
				return err
			}
		}
		return nil
	case 142:
		for i := 0; i < 10; i++ {
			if err := r.exec("SELECT b, c FROM z1 WHERE a BETWEEN %d AND %d ORDER BY c", i*10, i*10+100); err != nil {
				return err
			}
		}
		return nil
	case 145:
		for i := 0; i < 10; i++ {
			if err := r.exec("SELECT b, c FROM z1 ORDER BY c LIMIT 10"); err != nil {
				return err
			}
		}
		return nil
	case 150:
		return r.inTxn(func() error {
			for _, s := range []string{
				"CREATE INDEX iz1b ON z1 (b)",
				"CREATE INDEX iz2b ON z2 (b)",
				"CREATE INDEX iz3b ON z3 (b)",
			} {
				if err := r.exec("%s", s); err != nil {
					return err
				}
			}
			return nil
		})
	case 160:
		for i := 0; i < 200; i++ {
			lo := r.randN(1000000)
			if err := r.exec("SELECT count(*) FROM z2 WHERE b BETWEEN %d AND %d", lo, lo+1000); err != nil {
				return err
			}
		}
		return nil
	case 161:
		for i := 0; i < 200; i++ {
			if err := r.exec("SELECT count(*) FROM z1 WHERE b = %d", r.randN(1000000)); err != nil {
				return err
			}
		}
		return nil
	case 170:
		// Autocommit indexed-range updates on the big table: one journal
		// commit (with fsyncs) per statement.
		for i := 0; i < 60; i++ {
			k := r.randN(997)
			if err := r.exec("UPDATE zbig SET k = %d WHERE k = %d", k, (k+1)%997); err != nil {
				return err
			}
		}
		return nil
	case 180:
		return r.inTxn(func() error {
			for i := 0; i < r.n; i++ {
				if err := r.exec("UPDATE z2 SET b = b + 1 WHERE id = %d", r.randN(r.n)+1); err != nil {
					return err
				}
			}
			return nil
		})
	case 190:
		return r.exec("UPDATE z2 SET b = b + 7")
	case 210:
		if err := r.exec("ALTER TABLE zbig ADD COLUMN extra INTEGER"); err != nil {
			return err
		}
		return r.exec("UPDATE zbig SET extra = id * 2 WHERE id %% 2 = 0")
	case 230:
		return r.inTxn(func() error {
			for i := 0; i < 100; i++ {
				lo := r.randN(r.n)
				if err := r.exec("UPDATE z2 SET b = b + 1 WHERE id BETWEEN %d AND %d", lo, lo+20); err != nil {
					return err
				}
			}
			return nil
		})
	case 240:
		for i := 0; i < 40; i++ {
			if err := r.exec("UPDATE zbig SET k = k + 1 WHERE id = %d", r.randN(r.big)+1); err != nil {
				return err
			}
		}
		return nil
	case 250:
		return r.exec("UPDATE z1 SET b = b + 1")
	case 260:
		for i := 0; i < 8; i++ {
			if err := r.exec("SELECT count(*), sum(extra) FROM zbig WHERE extra IS NOT NULL AND id BETWEEN %d AND %d", i*r.big/8, (i+1)*r.big/8); err != nil {
				return err
			}
		}
		return nil
	case 270:
		for i := 0; i < 30; i++ {
			lo := r.randN(r.big)
			if err := r.exec("DELETE FROM zbig WHERE id BETWEEN %d AND %d", lo, lo+3); err != nil {
				return err
			}
		}
		return nil
	case 280:
		for i := 0; i < 40; i++ {
			if err := r.exec("DELETE FROM zbig WHERE id = %d", r.randN(r.big)+1); err != nil {
				return err
			}
		}
		return nil
	case 290:
		// Refill the big table in autocommit batches of one REPLACE per
		// statement over a sample of rows.
		for i := 0; i < 40; i++ {
			id := r.randN(r.big) + 1
			if err := r.exec("REPLACE INTO zbig (id, k, pad) VALUES (%d, %d, '%s')", id, id%997, pad(id, 180)); err != nil {
				return err
			}
		}
		return nil
	case 300:
		return r.inTxn(func() error {
			if err := r.exec("DELETE FROM z1"); err != nil {
				return err
			}
			for i := 1; i <= r.n; i++ {
				if err := r.exec("INSERT INTO z1 VALUES (%d, %d, '%s')", i, r.randN(1000000), pad(i, 40)); err != nil {
					return err
				}
			}
			return nil
		})
	case 310:
		for i := 0; i < 4; i++ {
			if err := r.exec("SELECT count(*), max(zj4.v) FROM zj1, zj2, zj3, zj4 " +
				"WHERE zj2.id = zj1.ref AND zj3.id = zj2.ref AND zj4.id = zj3.ref"); err != nil {
				return err
			}
		}
		return nil
	case 320:
		for i := 0; i < 2; i++ {
			if err := r.exec("SELECT count(*) FROM z2 WHERE b > (SELECT avg(b) FROM z2)"); err != nil {
				return err
			}
		}
		return nil
	case 400:
		return r.inTxn(func() error {
			for i := 0; i < r.n*2; i++ {
				id := r.randN(r.n) + 1
				if err := r.exec("REPLACE INTO z2 (id, b, c) VALUES (%d, %d, '%s')", id, r.randN(1000000), pad(id, 40)); err != nil {
					return err
				}
			}
			return nil
		})
	case 410:
		// Random point lookups across the big table: cache-miss heavy.
		for i := 0; i < 400; i++ {
			if err := r.exec("SELECT k FROM zbig WHERE id = %d", r.randN(r.big)+1); err != nil {
				return err
			}
		}
		return nil
	case 500:
		for i := 0; i < 10; i++ {
			if err := r.exec("SELECT length(c), count(*) FROM z1 GROUP BY length(c) ORDER BY 1"); err != nil {
				return err
			}
		}
		return nil
	case 510:
		for i := 0; i < 6; i++ {
			if err := r.exec("SELECT count(*) FROM zbig WHERE pad < '%d'", r.randN(10)); err != nil {
				return err
			}
		}
		return nil
	case 520:
		for i := 0; i < 10; i++ {
			if err := r.exec("SELECT count(*) FROM z1 WHERE (b + random() %% 100) %% 7 = 0"); err != nil {
				return err
			}
		}
		return nil
	case 980:
		return r.exec("PRAGMA integrity_check")
	case 990:
		for _, tbl := range []string{"z1", "z2", "z3", "zj4"} {
			if err := r.exec("SELECT count(*) FROM %s", tbl); err != nil {
				return err
			}
		}
		return r.exec("PRAGMA page_count")
	}
	return fmt.Errorf("speedtest: unknown query ID %d", id)
}

// exec runs the statement format describes: %d takes an int, %s a string
// or a filler, %% is a percent sign. The text is built in r.sql, which
// Exec runs in place: it keeps nothing of its text. The arguments do not
// escape, so boxing them costs the caller nothing.
func (r *Runner) exec(format string, args ...any) error {
	r.sql = appendSQL(r.sql[:0], format, args)
	sql := view(r.sql)
	if r.onExec != nil {
		// The hook gets copies: handing it args would move every caller's
		// arguments to the heap.
		own := make([]any, len(args))
		for i, a := range args {
			switch v := a.(type) {
			case int:
				own[i] = v
			case string:
				own[i] = v
			case filler:
				own[i] = v
			}
		}
		r.onExec(format, own, sql)
	}
	_, err := r.DB.Exec(sql)
	return err
}

// view returns b as a string without copying it, so the string changes
// when b does. It is the one place the package makes such a string.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// appendSQL appends format to dst with its verbs filled in from args.
func appendSQL(dst []byte, format string, args []any) []byte {
	for {
		i := strings.IndexByte(format, '%')
		if i < 0 {
			return append(dst, format...)
		}
		dst = append(dst, format[:i]...)
		verb := format[i+1]
		format = format[i+2:]
		if verb == '%' {
			dst = append(dst, '%')
			continue
		}
		switch arg := args[0]; {
		case verb == 'd':
			dst = strconv.AppendInt(dst, int64(arg.(int)), 10)
		case verb != 's':
			panic("speedtest: unsupported verb %" + string(verb))
		default:
			if f, ok := arg.(filler); ok {
				dst = f.appendTo(dst)
			} else {
				dst = append(dst, arg.(string)...)
			}
		}
		args = args[1:]
	}
}

func (r *Runner) inTxn(fn func() error) error {
	if err := r.exec("BEGIN"); err != nil {
		return err
	}
	if err := fn(); err != nil {
		r.DB.Pager().Rollback() // the engine speaks no ROLLBACK
		return err
	}
	return r.exec("COMMIT")
}

// Measurement is one query's cost.
type Measurement struct {
	ID     int
	Cycles uint64
	GroupA bool
}

// RunAll executes Setup plus every query in ID order, reporting per-query
// virtual cycles via the provided clock reader.
func (r *Runner) RunAll(cyclesNow func() uint64) ([]Measurement, error) {
	if err := r.Setup(); err != nil {
		return nil, err
	}
	out := make([]Measurement, 0, len(QueryIDs))
	ids := append([]int{}, QueryIDs...)
	sort.Ints(ids)
	for _, id := range ids {
		start := cyclesNow()
		if err := r.Run(id); err != nil {
			return nil, fmt.Errorf("query %d: %w", id, err)
		}
		out = append(out, Measurement{ID: id, Cycles: cyclesNow() - start, GroupA: InGroupA(id)})
	}
	return out, nil
}
