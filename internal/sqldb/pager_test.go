package sqldb

import (
	"bytes"
	"slices"
	"testing"

	"cubicleos/internal/cubicle"
)

// TestHotJournalRecovery simulates a crash mid-transaction: the journal
// holds pre-images, some dirty pages were already spilled over the
// database, and the process dies before commit. Reopening must roll the
// database back to the pre-transaction state.
func TestHotJournalRecovery(t *testing.T) {
	withPager(t, 16, func(p *Pager) {
		// Committed baseline: a table page with a known byte.
		root := CreateTableTree(p)
		tr := NewTableTree(p, root)
		if err := tr.InsertRow(1, EncodeRecord([]Value{Text("committed")})); err != nil {
			t.Fatal(err)
		}
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		// An uncommitted transaction overwrites the row, spills its
		// journal and flushes the dirty page — then the "process dies".
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := tr.InsertRow(1, EncodeRecord([]Value{Text("UNCOMMITTED")})); err != nil {
			t.Fatal(err)
		}
		p.spillJournal()
		if err := p.flushAll(); err != nil {
			t.Fatal(err)
		}
		// No Commit, no Rollback, no Close: crash.

		// A fresh pager on the same file must find the hot journal,
		// replay it, and see the committed state.
		e := p.e
		ioBuf2 := e.HeapAlloc(PageSize)
		p2, err := OpenPager(e, p.vfs, p.path, ioBuf2, 16)
		if err != nil {
			t.Fatal(err)
		}
		if p2.Stats.Recoveries != 1 {
			t.Fatalf("recoveries = %d, want 1", p2.Stats.Recoveries)
		}
		tr2 := NewTableTree(p2, root)
		var vals []Value
		if !tr2.Row(1, func(rec []byte) { vals, err = DecodeRecord(rec) }) {
			t.Fatal("row lost after recovery")
		}
		if err != nil {
			t.Fatal(err)
		}
		if vals[0].S != "committed" {
			t.Fatalf("recovered value %q, want the committed one", vals[0].S)
		}
		// The journal must be gone; a third open performs no recovery.
		ioBuf3 := e.HeapAlloc(PageSize)
		p3, err := OpenPager(e, p.vfs, p.path, ioBuf3, 16)
		if err != nil {
			t.Fatal(err)
		}
		if p3.Stats.Recoveries != 0 {
			t.Error("journal not removed after recovery")
		}
	})
}

// TestCommitLeavesNoJournal: a clean commit must remove the journal file
// so the next open sees no hot journal.
func TestCommitLeavesNoJournal(t *testing.T) {
	withPager(t, 8, func(p *Pager) {
		root := CreateTableTree(p)
		tr := NewTableTree(p, root)
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
		big := Text(string(make([]byte, 400)))
		for i := int64(0); i < 400; i++ { // enough pages to force spills at cap 8
			if err := tr.InsertRow(i, EncodeRecord([]Value{Int(i), big})); err != nil {
				t.Fatal(err)
			}
		}
		if p.Stats.Spills == 0 {
			t.Error("tiny cache never spilled (test premise broken)")
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		e := p.e
		p2, err := OpenPager(e, p.vfs, p.path, e.HeapAlloc(PageSize), 8)
		if err != nil {
			t.Fatal(err)
		}
		if p2.Stats.Recoveries != 0 {
			t.Error("journal survived a clean commit")
		}
		if problems := NewTableTree(p2, root).Check(); len(problems) > 0 {
			t.Fatalf("integrity after reopen: %v", problems)
		}
	})
}

// TestRollbackAfterSpill: an explicit rollback after dirty pages were
// spilled to disk must restore the on-disk state too.
func TestRollbackAfterSpill(t *testing.T) {
	withPager(t, 8, func(p *Pager) {
		root := CreateTableTree(p)
		tr := NewTableTree(p, root)
		if err := tr.InsertRow(1, EncodeRecord([]Value{Text("base")})); err != nil {
			t.Fatal(err)
		}
		if err := p.flushAll(); err != nil {
			t.Fatal(err)
		}
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
		fodder := Text(string(make([]byte, 400)))
		for i := int64(2); i < 400; i++ {
			if err := tr.InsertRow(i, EncodeRecord([]Value{Int(i), fodder})); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Rollback(); err != nil {
			t.Fatal(err)
		}
		if !tr.Row(1, func([]byte) {}) {
			t.Fatal("base row lost after rollback")
		}
		if tr.Row(250, func([]byte) {}) {
			t.Fatal("rolled-back row still present")
		}
		if problems := tr.Check(); len(problems) > 0 {
			t.Fatalf("integrity after rollback: %v", problems)
		}
	})
}

// TestHeaderResident: the header page never leaves the cache even under
// eviction pressure.
func TestHeaderResident(t *testing.T) {
	withPager(t, 8, func(p *Pager) {
		for i := 0; i < 64; i++ {
			pg := p.Allocate()
			initBtreePage(p.Write(pg), pgTableLeaf)
		}
		if p.lookup(1) == nil {
			t.Error("header page evicted")
		}
		if p.cached > p.cap+1 {
			t.Errorf("cache over capacity: %d > %d", p.cached, p.cap)
		}
	})
}

// leafPages gives a fresh pager n more pages, each an empty table leaf,
// and writes them out: evicting them costs no spill.
func leafPages(t *testing.T, p *Pager, n int) {
	t.Helper()
	for range n {
		initBtreePage(p.Write(p.Allocate()), pgTableLeaf)
	}
	if err := p.flushAll(); err != nil {
		t.Fatal(err)
	}
}

// evict fetches pages 2.. round robin until pgno is no longer cached.
func evict(t *testing.T, p *Pager, pgno uint32) {
	t.Helper()
	for next := uint32(2); p.lookup(pgno) != nil; next = max(2, (next+1)%(p.nPages+1)) {
		if next != pgno {
			p.page(next)
		}
	}
}

// TestFrameReusePinRule is the positive control of the eviction poison:
// under the guard, a frame evicted while nobody pins it is filled with
// 0xDD on its way to the spare list, so a holder that kept it without a
// pin reads poison and a page number the pager refuses; a pinned frame is
// dropped with its bytes and never handed out again.
func TestFrameReusePinRule(t *testing.T) {
	withPager(t, 8, func(p *Pager) {
		p.guardScans = true
		leafPages(t, p, 24)
		held := p.page(2)
		evict(t, p, 2)
		if held.pgno != 0xDDDDDDDD || !slices.Equal(held.data, bytes.Repeat([]byte{0xDD}, PageSize)) {
			t.Errorf("an unpinned evicted frame reads page %#x, first bytes %x", held.pgno, held.data[:4])
		}
		if !slices.Contains(p.spare, held) {
			t.Error("an unpinned evicted frame is not on the spare list")
		}
		func() {
			defer func() {
				if _, ok := recover().(execErr); !ok {
					t.Error("fetching a poisoned frame's page number did not fail the statement")
				}
			}()
			p.page(held.pgno)
		}()

		pinned := p.page(3)
		pinned.data[PageSize-1] = 0x5A // a byte page 3 does not have on disk
		pinned.pins++
		evict(t, p, 3)
		for pgno := uint32(4); pgno <= p.nPages; pgno++ {
			p.page(pgno) // misses, each taking a frame off the spare list
		}
		if pinned.pgno != 3 || pinned.data[PageSize-1] != 0x5A || slices.Contains(p.spare, pinned) {
			t.Errorf("a pinned evicted frame was recycled: page %d, last byte %#x", pinned.pgno, pinned.data[PageSize-1])
		}
		if got := p.page(3); got == pinned || got.data[PageSize-1] != 0 {
			t.Error("page 3 after the eviction is not a fresh read of the file")
		}
	})
}

// TestFrameReuseSpareListBounded pins the spare list's length: one frame
// once misses are in their steady state (each takes the frame the last one
// evicted), and still one after a rollback of a transaction that wrote
// three times the cache: the pages it spilled come back from the journal,
// into the file and the frames the cache holds, and every page whose image
// is still in memory is cached, so the rollback installs nothing.
func TestFrameReuseSpareListBounded(t *testing.T) {
	withPager(t, 8, func(p *Pager) {
		leafPages(t, p, 24)
		if len(p.spare) != 1 {
			t.Fatalf("%d frames on the spare list after 24 allocations, want 1", len(p.spare))
		}
		for pgno := uint32(2); pgno <= p.nPages; pgno++ {
			p.page(pgno)
			if len(p.spare) != 1 {
				t.Fatalf("%d frames on the spare list after a miss on page %d, want 1", len(p.spare), pgno)
			}
		}
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
		for pgno := uint32(2); pgno <= p.nPages; pgno++ {
			p.Write(pgno)[PageSize-1] = 1
		}
		if p.Stats.Spills == 0 {
			t.Fatal("premise broken: the transaction never spilled")
		}
		if err := p.Rollback(); err != nil {
			t.Fatal(err)
		}
		if p.cached > p.cap {
			t.Fatalf("%d pages cached after the rollback, capacity %d", p.cached, p.cap)
		}
		p.Allocate()
		if len(p.spare) != 1 || p.cached != p.cap {
			t.Errorf("%d frames on the spare list and %d pages cached after an allocation, want 1 and %d",
				len(p.spare), p.cached, p.cap)
		}
	})
}

func TestNestedBeginRejected(t *testing.T) {
	withPager(t, 8, func(p *Pager) {
		if err := p.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := p.Begin(); err == nil {
			t.Error("nested Begin accepted")
		}
		if err := p.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(); err == nil {
			t.Error("Commit without txn accepted")
		}
		if err := p.Rollback(); err == nil {
			t.Error("Rollback without txn accepted")
		}
	})
}

var _ = cubicle.MonitorID
