package experiments

import (
	"hash/crc32"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/speedtest"
	"cubicleos/internal/sqldb"
)

// speedtestPass boots the benchmark's SQLite deployment (Figure 8 layout,
// full isolation, size 100), fills the schema and runs every query.
func speedtestPass(tb testing.TB) *SQLiteTarget {
	tgt, err := NewSQLiteTarget(cubicle.ModeFull, nil, 100, UnikraftWorkScale)
	if err != nil {
		tb.Fatal(err)
	}
	if err := tgt.Setup(); err != nil {
		tb.Fatal(err)
	}
	for _, id := range speedtest.QueryIDs {
		if _, err := tgt.RunQuery(id); err != nil {
			tb.Fatalf("query %d: %v", id, err)
		}
	}
	return tgt
}

// TestSpeedtestImagePinned pins what a change to the engine's host side
// must not move: the database image a speedtest pass leaves behind, page
// for page, every pager counter (so the order of page fetches, and with
// it LRU, spills and journal traffic) and the virtual clock. The values
// were recorded with this test at the commit before B+tree pages were
// edited in place; a change that moves them on purpose is a model change
// and has to say so.
func TestSpeedtestImagePinned(t *testing.T) {
	tgt := speedtestPass(t)
	p := tgt.DB.Pager()
	stats, cycles := p.Stats, tgt.Sys.M.Clock.Cycles()
	image := crc32.NewIEEE()
	if err := tgt.Sys.RunAs("SQLITE", func(*cubicle.Env) {
		for pg := uint32(1); pg <= p.NPages(); pg++ {
			image.Write(p.Get(pg))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := p.NPages(), uint32(767); got != want {
		t.Errorf("%d pages, want %d", got, want)
	}
	if got, want := image.Sum32(), uint32(0xd22605f4); got != want {
		t.Errorf("CRC-32 of pages 1..N = %08x, want %08x", got, want)
	}
	want := sqldb.PagerStats{Hits: 322176, Misses: 7697, Reads: 7697, Writes: 2577, Spills: 996,
		JournalPages: 2429, Fsyncs: 1456, Commits: 231, Recoveries: 0}
	if stats != want {
		t.Errorf("pager counters\n got %+v\nwant %+v", stats, want)
	}
	if want := uint64(941575000); cycles != want {
		t.Errorf("%d virtual cycles, want %d", cycles, want)
	}
}

// BenchmarkSpeedtestPass is one sqlite_speedtest operation of the repo
// benchmark plus its set-up: boot, fill, 31 queries.
func BenchmarkSpeedtestPass(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		speedtestPass(b)
	}
}

// BenchmarkSpeedtestQueries is what the repo benchmark's sqlite_speedtest
// measures of an operation: the 31 queries on a freshly booted and filled
// deployment, the boot and the fill outside the timer and the counts.
func BenchmarkSpeedtestQueries(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tgt, err := NewSQLiteTarget(cubicle.ModeFull, nil, 100, UnikraftWorkScale)
		if err != nil {
			b.Fatal(err)
		}
		if err := tgt.Setup(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, id := range speedtest.QueryIDs {
			if _, err := tgt.RunQuery(id); err != nil {
				b.Fatalf("query %d: %v", id, err)
			}
		}
	}
}
