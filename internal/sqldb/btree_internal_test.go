package sqldb

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/vfscore"
	"cubicleos/internal/vm"
)

// withStack boots a minimal system and runs fn inside its application
// cubicle with what opening a database there takes.
func withStack(t testing.TB, fn func(e *cubicle.Env, vfs *vfscore.Client, ioBuf vm.Addr)) {
	t.Helper()
	s := boot.MustNewFS(boot.Config{Mode: cubicle.ModeUnikraft, Extra: []*cubicle.Component{{
		Name: "APP", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{{Name: "main", Fn: func(e *cubicle.Env, a []uint64) []uint64 { return nil }}},
	}}})
	err := s.RunAs("APP", func(e *cubicle.Env) {
		vfs := vfscore.NewClient(s.M, s.Cubs["APP"].ID)
		vfs.InitBuffers(e, e.CubicleOf(ramfs.Name))
		fn(e, vfs, e.HeapAlloc(PageSize))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// withPager hands fn a pager with the given cache capacity.
func withPager(t testing.TB, cacheCap int, fn func(p *Pager)) {
	t.Helper()
	withStack(t, func(e *cubicle.Env, vfs *vfscore.Client, ioBuf vm.Addr) {
		p, err := OpenPager(e, vfs, "/bt.db", ioBuf, cacheCap)
		if err != nil {
			t.Fatal(err)
		}
		fn(p)
	})
}

// withDB hands fn an open database with the given cache capacity.
func withDB(t testing.TB, cacheCap int, fn func(db *DB)) {
	t.Helper()
	withStack(t, func(e *cubicle.Env, vfs *vfscore.Client, ioBuf vm.Addr) {
		db, err := Open(e, vfs, "/rows.db", ioBuf, cacheCap)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		fn(db)
	})
}

func TestIndexTreeDuplicateKeys(t *testing.T) {
	withPager(t, 16, func(p *Pager) {
		root := CreateIndexTree(p)
		tr := NewIndexTree(p, root)
		const n = 3000
		for i := 1; i <= n; i++ {
			key := EncodeKey([]Value{Int(int64(i % 97))})
			if err := tr.InsertKey(key, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if problems := tr.Check(); len(problems) > 0 {
			t.Fatalf("integrity: %v", problems[:min(4, len(problems))])
		}
		for _, k := range []int64{0, 7, 50, 96} {
			want := 0
			for i := 1; i <= n; i++ {
				if int64(i%97) == k {
					want++
				}
			}
			key := EncodeKey([]Value{Int(k)})
			hi := append(append([]byte{}, key...), 0xFF)
			got := 0
			tr.ScanIndexRange(key, hi, func(kb []byte, rowid int64) bool {
				got++
				return true
			})
			if got != want {
				t.Errorf("k=%d: got %d entries, want %d", k, got, want)
			}
		}
		// Delete every third entry and recheck.
		for i := 3; i <= n; i += 3 {
			key := EncodeKey([]Value{Int(int64(i % 97))})
			if !tr.DeleteKey(key, int64(i)) {
				t.Fatalf("delete (%d,%d) missed", i%97, i)
			}
		}
		if problems := tr.Check(); len(problems) > 0 {
			t.Fatalf("integrity after delete: %v", problems[:min(4, len(problems))])
		}
	})
}

func TestTableTreeHeavy(t *testing.T) {
	withPager(t, 16, func(p *Pager) {
		root := CreateTableTree(p)
		tr := NewTableTree(p, root)
		const n = 4000
		// Interleaved ascending/descending inserts force splits at both
		// ends.
		for i := 0; i < n/2; i++ {
			rec := EncodeRecord([]Value{Int(int64(i)), Text(fmt.Sprintf("fwd-%d", i))})
			if err := tr.InsertRow(int64(i), rec); err != nil {
				t.Fatal(err)
			}
			j := n - 1 - i
			rec = EncodeRecord([]Value{Int(int64(j)), Text(fmt.Sprintf("rev-%d", j))})
			if err := tr.InsertRow(int64(j), rec); err != nil {
				t.Fatal(err)
			}
		}
		if problems := tr.Check(); len(problems) > 0 {
			t.Fatalf("integrity: %v", problems[:min(4, len(problems))])
		}
		count := 0
		last := int64(-1)
		tr.ScanTable(func(rowid int64, record []byte) bool {
			if rowid <= last {
				t.Fatalf("scan out of order: %d after %d", rowid, last)
			}
			last = rowid
			count++
			return true
		})
		if count != n {
			t.Fatalf("scan found %d rows, want %d", count, n)
		}
		if !tr.Row(1234, func([]byte) {}) {
			t.Fatal("Row(1234) missed")
		}
		if tr.MaxRowid() != n-1 {
			t.Fatalf("MaxRowid = %d", tr.MaxRowid())
		}
	})
}

// --- FuzzPageOps --------------------------------------------------------------

// ikey is one index entry of the model.
type ikey struct {
	key   []byte
	rowid int64
}

func (a ikey) cmp(b ikey) int {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c
	}
	return int(min(max(a.rowid-b.rowid, -1), 1))
}

// pageOps is the state FuzzPageOps drives: a table tree and an index
// tree on one pager, the same two trees under the old page algorithm
// (pageoracle_test.go) and a sorted in-memory model of their contents.
type pageOps struct {
	t          *testing.T
	p          *Pager
	tbl, idx   *Btree
	otbl, oidx *oracle
	pages      map[uint32][]byte
	next       uint32
	rows       map[int64][]byte
	keys       []ikey
	saved      *pageOps // the state at Begin, for rollback
}

// snapshot deep-copies everything a rollback has to bring back.
func (s *pageOps) snapshot() {
	c := &pageOps{next: s.next, pages: map[uint32][]byte{}, rows: map[int64][]byte{}, keys: slices.Clone(s.keys)}
	for pg, data := range s.pages {
		c.pages[pg] = bytes.Clone(data)
	}
	for rowid, rec := range s.rows {
		c.rows[rowid] = rec
	}
	s.saved = c
}

func (s *pageOps) restore() {
	c := s.saved
	s.next, s.rows, s.keys = c.next, c.rows, c.keys
	clear(s.pages) // the oracles share the map
	for pg, data := range c.pages {
		s.pages[pg] = data
	}
}

// check compares every page with the oracle's, byte for byte, and every
// cached directory with a fresh walk of its page.
func (s *pageOps) check(step int) {
	s.t.Helper()
	if s.p.NPages() != s.next {
		s.t.Fatalf("step %d: %d pages, oracle has %d", step, s.p.NPages(), s.next)
	}
	for pgno, want := range s.pages {
		got := s.p.Get(pgno)
		for i := range want {
			if got[i] != want[i] {
				s.t.Fatalf("step %d: page %d differs from the oracle at byte %d: %#x, want %#x", step, pgno, i, got[i], want[i])
			}
		}
	}
	if held := s.p.cached + len(s.p.spare); held > s.p.cap+maxSpare {
		s.t.Fatalf("step %d: %d frames cached or spare, at most %d", step, held, s.p.cap+maxSpare)
	}
	for pgno, pg := range s.p.cache {
		if pg == nil || s.pages[uint32(pgno)] == nil {
			continue // not cached, or the header or catalog page
		}
		fresh := node{data: pg.data}
		fresh.index()
		if len(pg.dir) > 0 && !slices.Equal(pg.dir, fresh.dir) {
			s.t.Fatalf("step %d: page %d: cached directory %v, a fresh walk gives %v", step, pgno, pg.dir, fresh.dir)
		}
		for i, b := range pg.data[fresh.end():] {
			if b != 0 {
				s.t.Fatalf("step %d: page %d: byte %d past the last cell is %#x", step, pgno, fresh.end()+i, b)
			}
		}
	}
}

// both runs the same mutation on the real tree and on the oracle. The
// one way it may fail is a split that cannot put each half on a page;
// then both must fail, and it reports false: the sequence ends there.
func (s *pageOps) both(step int, real, old func()) bool {
	s.t.Helper()
	try := func(fn func()) (r any) {
		defer func() { r = recover() }()
		fn()
		return nil
	}
	r, o := try(real), try(old)
	if (r == nil) != (o == nil) {
		s.t.Fatalf("step %d: in-place code: %v; oracle: %v", step, r, o)
	}
	if _, typed := r.(execErr); r != nil && !typed {
		s.t.Fatalf("step %d: untyped panic: %v", step, r)
	}
	return r == nil
}

func fuzzRecord(c byte) []byte {
	text := make([]byte, min(int(c)*16, maxPayload-16))
	for i := range text {
		text[i] = c + byte(i)
	}
	return EncodeRecord([]Value{Text(string(text))})
}

func fuzzKey(a, b, c byte) ikey {
	key := bytes.Repeat([]byte{a}, int(c)*15)
	if len(key) > 0 {
		key[len(key)-1] = b
	}
	return ikey{key, int64(b & 3)}
}

// runPageOps interprets prog, four bytes an operation: opcode, a, b, c. It
// returns how many of its rollbacks came after the transaction had spilled
// pages to the file, whose pre-images the journal alone then holds.
func runPageOps(t *testing.T, prog []byte) (spilled int) {
	withPager(t, 8, func(p *Pager) {
		p.guardScans = true
		s := &pageOps{t: t, p: p, pages: map[uint32][]byte{}, next: p.NPages(), rows: map[int64][]byte{}}
		s.tbl = NewTableTree(p, CreateTableTree(p))
		s.otbl = newOracle(s.pages, &s.next, false)
		s.idx = NewIndexTree(p, CreateIndexTree(p))
		s.oidx = newOracle(s.pages, &s.next, true)
		if s.tbl.root != s.otbl.root || s.idx.root != s.oidx.root {
			t.Fatalf("roots %d/%d, oracle %d/%d", s.tbl.root, s.idx.root, s.otbl.root, s.oidx.root)
		}
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
		s.snapshot()
		for step := 0; len(prog) >= 4; step, prog = step+1, prog[4:] {
			a, b, c := prog[1], prog[2], prog[3]
			rowid := int64(a&0x0f)<<8 | int64(b)
			k := fuzzKey(a, b, c)
			grew := s.next
			switch prog[0] % 8 {
			case 0, 1: // insert or replace a row
				rec := fuzzRecord(c)
				if !s.both(step, func() { s.tbl.InsertRow(rowid, rec) }, func() { s.otbl.insertRow(rowid, rec) }) {
					return
				}
				s.rows[rowid] = rec
			case 2: // delete a row
				var got, want bool
				s.both(step, func() { got = s.tbl.DeleteRow(rowid) }, func() { want = s.otbl.delete(nil, rowid) })
				if _, have := s.rows[rowid]; got != want || got != have {
					t.Fatalf("step %d: DeleteRow(%d) = %v, oracle %v, model %v", step, rowid, got, want, have)
				}
				delete(s.rows, rowid)
			case 3: // insert an index entry (the engine never enters one twice, and Check objects)
				at, have := slices.BinarySearchFunc(s.keys, k, ikey.cmp)
				if have {
					continue
				}
				if !s.both(step, func() { s.idx.InsertKey(k.key, k.rowid) }, func() { s.oidx.insertKey(k.key, k.rowid) }) {
					return
				}
				s.keys = slices.Insert(s.keys, at, k)
			case 4: // delete an index entry
				var got, want bool
				s.both(step, func() { got = s.idx.DeleteKey(k.key, k.rowid) }, func() { want = s.oidx.delete(k.key, k.rowid) })
				at, have := slices.BinarySearchFunc(s.keys, k, ikey.cmp)
				if got != want || got != have {
					t.Fatalf("step %d: DeleteKey = %v, oracle %v, model %v", step, got, want, have)
				}
				if have {
					s.keys = slices.Delete(s.keys, at, at+1)
				}
			case 5: // range scans, at most c entries each
				s.scanRows(step, rowid, int(c))
				s.scanKeys(step, k.key, fuzzKey(a|0x0f, 0xff, c).key, int(c))
			case 6:
				if err := p.Commit(); err != nil {
					t.Fatal(err)
				}
				p.Begin()
				s.snapshot()
			case 7:
				if p.jfd != 0 {
					spilled++
				}
				if err := p.Rollback(); err != nil {
					t.Fatal(err)
				}
				p.Begin()
				s.restore()
				s.snapshot()
				grew = 0 // check every page
			}
			if s.next != grew || step%64 == 63 {
				s.check(step)
			}
		}
		s.check(-1)
		s.scanRows(-1, -1<<63, 1<<30)
		s.scanKeys(-1, nil, nil, 1<<30)
		if got, want := s.tbl.Row(7, func([]byte) {}), s.rows[7] != nil; got != want {
			t.Fatalf("Row(7) found %v, model %v", got, want)
		}
		for _, tr := range []*Btree{s.tbl, s.idx} {
			if problems := tr.Check(); len(problems) > 0 {
				t.Fatalf("integrity: %v", problems[:min(4, len(problems))])
			}
		}
	})
	return spilled
}

// scanRows checks ScanTableFrom (ScanTable when start is the minimum)
// against the model.
func (s *pageOps) scanRows(step int, start int64, limit int) {
	s.t.Helper()
	var want []int64
	for rowid := range s.rows {
		if rowid >= start {
			want = append(want, rowid)
		}
	}
	slices.Sort(want)
	want = want[:min(limit, len(want))]
	var got []int64
	visit := func(rowid int64, record []byte) bool {
		if len(got) == limit {
			return false
		}
		if !bytes.Equal(record, s.rows[rowid]) {
			s.t.Fatalf("step %d: row %d: %d-byte record, model has %d bytes", step, rowid, len(record), len(s.rows[rowid]))
		}
		got = append(got, rowid)
		return true
	}
	if start == -1<<63 {
		s.tbl.ScanTable(visit)
	} else {
		s.tbl.ScanTableFrom(start, visit)
	}
	if !slices.Equal(got, want) {
		s.t.Fatalf("step %d: scan from %d: rowids %v, model %v", step, start, got, want)
	}
}

// scanKeys checks ScanIndexRange against the model.
func (s *pageOps) scanKeys(step int, lo, hi []byte, limit int) {
	s.t.Helper()
	var want, got []ikey
	for _, k := range s.keys {
		if (lo == nil || bytes.Compare(k.key, lo) >= 0) && (hi == nil || bytes.Compare(k.key, hi) <= 0) && len(want) < limit {
			want = append(want, k)
		}
	}
	s.idx.ScanIndexRange(lo, hi, func(key []byte, rowid int64) bool {
		if len(got) == limit {
			return false
		}
		got = append(got, ikey{bytes.Clone(key), rowid})
		return true
	})
	if !slices.EqualFunc(got, want, func(a, b ikey) bool { return a.cmp(b) == 0 }) {
		s.t.Fatalf("step %d: index scan returned %d entries, model %d", step, len(got), len(want))
	}
}

// FuzzPageOps runs random insert / replace / delete / range-scan /
// commit / rollback sequences on a table tree and an index tree and
// checks them against a sorted in-memory model and, page by page, against
// the page algorithm the in-place code replaced. The seed corpus in
// testdata/fuzz/FuzzPageOps, one file a case, covers leaf split, interior
// split in both kinds of tree, root growth, a replace with a longer
// record that splits, delete-to-empty, a rollback across splits and the
// split that fails because one half would not fit a page.
func FuzzPageOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 10, 3, 7, 7, 7, 5, 0, 0, 255, 2, 0, 1, 0, 4, 7, 7, 7})
	f.Add(rollbackAfterSpill())
	f.Fuzz(func(t *testing.T, prog []byte) {
		runPageOps(t, prog[:min(len(prog), 4*2048)])
	})
}

// rollbackAfterSpill is a program that writes some three times the cache
// in half-page rows and index keys, rolls back, and does it again across a
// commit: each rollback follows spills.
func rollbackAfterSpill() []byte {
	var prog []byte
	for round := range byte(2) {
		for i := range byte(40) {
			prog = append(prog, 0, round, i, 120, 3, i, i, 16)
		}
		prog = append(prog, 7, 0, 0, 0)
		for i := range byte(12) {
			prog = append(prog, 0, 0, i, 100)
		}
		prog = append(prog, 6, 0, 0, 0)
	}
	return prog
}

// TestPageOpsRollbackAfterSpill: FuzzPageOps' rollbacks reach the journal
// replay — pages spilled to the file, their released pre-images poisoned
// under the guard — and leave every page as the oracle has it.
func TestPageOpsRollbackAfterSpill(t *testing.T) {
	if got := runPageOps(t, rollbackAfterSpill()); got != 2 {
		t.Errorf("%d rollbacks after a spill, want 2", got)
	}
}

// TestGuardScansCatchesAWriteUnderAScan is the positive control of the
// scan guard: a callback that writes the page it is being shown panics.
func TestGuardScansCatchesAWriteUnderAScan(t *testing.T) {
	withPager(t, 16, func(p *Pager) {
		p.guardScans = true
		tr := NewTableTree(p, CreateTableTree(p))
		for i := int64(1); i <= 3; i++ {
			tr.InsertRow(i, []byte("row"))
		}
		defer func() {
			if recover() == nil {
				t.Error("a scan callback deleted from the page under it and nothing happened")
			}
			if pg := p.cache[tr.root]; pg.pins != 0 {
				t.Errorf("%d pins still counted on the page after the panic", pg.pins)
			}
		}()
		tr.ScanTable(func(rowid int64, record []byte) bool { return tr.DeleteRow(rowid) })
	})
}

// TestPagePathAllocations gates what the page path may allocate; a bound
// of 0 is exact.
func TestPagePathAllocations(t *testing.T) {
	withStack(t, func(e *cubicle.Env, vfs *vfscore.Client, ioBuf vm.Addr) {
		p, err := OpenPager(e, vfs, "/bt.db", ioBuf, 64)
		if err != nil {
			t.Fatal(err)
		}
		tbl := NewTableTree(p, CreateTableTree(p))
		for i := int64(0); i < 100; i++ {
			tbl.InsertRow(i, EncodeRecord([]Value{Int(i), Text("twenty bytes of text.")}))
		}
		idx := NewIndexTree(p, CreateIndexTree(p))
		for i := int64(0); i < 100; i++ {
			idx.InsertKey(EncodeKey([]Value{Int(2 * i)}), i)
		}
		key := EncodeKey([]Value{Int(51)})
		rows, viewed := 0, 0
		// A pager a third the size of its file, the pages clean: fetched
		// round robin, every page misses and evicts a frame onto the spare
		// list for the next miss to take.
		small, err := OpenPager(e, vfs, "/miss.db", e.HeapAlloc(PageSize), 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			initBtreePage(small.Write(small.Allocate()), pgTableLeaf)
		}
		if err := small.flushAll(); err != nil {
			t.Fatal(err)
		}
		next := uint32(1)
		miss := func() {
			next = max(2, (next+1)%(small.nPages+1))
			small.page(next)
		}
		for range small.nPages {
			miss()
		}
		misses := small.Stats.Misses
		for _, c := range []struct {
			name string
			max  float64
			fn   func()
		}{
			{"executor row look-up", 0, func() { tbl.Row(42, func(record []byte) { viewed += len(record) }) }},
			{"InsertKey+DeleteKey without a split", 1, func() { idx.InsertKey(key, 7); idx.DeleteKey(key, 7) }},
			{"100-row ScanTable", 0, func() { tbl.ScanTable(func(int64, []byte) bool { rows++; return true }) }},
			{"page miss with a warm spare list", 0, miss},
		} {
			if got := testing.AllocsPerRun(50, c.fn); got > c.max {
				t.Errorf("%s: %v allocations, want at most %v", c.name, got, c.max)
			}
		}
		if rows == 0 || viewed == 0 || p.Stats.Misses != 0 || small.Stats.Misses-misses != 51 {
			t.Errorf("premise broken: %d rows scanned, %d bytes viewed, %d cache misses; %d of 51 fetches missed",
				rows, viewed, p.Stats.Misses, small.Stats.Misses-misses)
		}
	})
}

func benchTree(b *testing.B, fn func(tbl, idx *Btree)) {
	withPager(b, 512, func(p *Pager) {
		tbl, idx := NewTableTree(p, CreateTableTree(p)), NewIndexTree(p, CreateIndexTree(p))
		for i := int64(0); i < 10000; i++ {
			tbl.InsertRow(i, EncodeRecord([]Value{Int(i), Text("twenty bytes of text.")}))
			idx.InsertKey(EncodeKey([]Value{Int(2 * i)}), i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		fn(tbl, idx)
	})
}

// BenchmarkBtreePointLookup is Row on a three-level cached tree.
func BenchmarkBtreePointLookup(b *testing.B) {
	benchTree(b, func(tbl, _ *Btree) {
		for i := 0; i < b.N; i++ {
			if !tbl.Row(int64(i*7919%10000), func([]byte) {}) {
				b.Fatal("row missing")
			}
		}
	})
}

// BenchmarkBtreeInsertDelete adds and removes one index entry among a
// leaf's worth of neighbours, no split.
func BenchmarkBtreeInsertDelete(b *testing.B) {
	benchTree(b, func(_, idx *Btree) {
		for i := 0; i < b.N; i++ {
			key := EncodeKey([]Value{Int(int64(i*7919%10000)*2 + 1)})
			idx.InsertKey(key, 1)
			if !idx.DeleteKey(key, 1) {
				b.Fatal("entry missing")
			}
		}
	})
}
