package experiments

import (
	"hash/crc32"
	"runtime"
	"runtime/debug"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/speedtest"
	"cubicleos/internal/sqldb"
)

// speedtestPass boots the benchmark's SQLite deployment (Figure 8 layout,
// full isolation, size 100), fills the schema and runs every query.
func speedtestPass(tb testing.TB) *SQLiteTarget {
	tgt := speedtestSetup(tb)
	speedtestQueries(tb, tgt)
	return tgt
}

// speedtestSetup boots the deployment and fills the schema.
func speedtestSetup(tb testing.TB) *SQLiteTarget {
	tgt, err := NewSQLiteTarget(cubicle.ModeFull, nil, 100, UnikraftWorkScale)
	if err != nil {
		tb.Fatal(err)
	}
	if err := tgt.Setup(); err != nil {
		tb.Fatal(err)
	}
	return tgt
}

// speedtestQueries runs the 31 queries: what the repo benchmark's
// sqlite_speedtest measures of an operation.
func speedtestQueries(tb testing.TB, tgt *SQLiteTarget) {
	for _, id := range speedtest.QueryIDs {
		if _, err := tgt.RunQuery(id); err != nil {
			tb.Fatalf("query %d: %v", id, err)
		}
	}
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

// raceBuild is set by race_test.go.
var raceBuild bool

// TestSpeedtestPassAllocations bounds what one pass allocates, and of it
// what the 31 queries allocate (the benchmark's alloc_bytes_per_op and
// allocs_per_op): 7 970 400 bytes at most a pass in a process that has
// booted nothing before, 2 008 912 bytes its queries, both bounded 10 %
// above, and exactly 647 objects its queries (8 031 while aggregate
// state, index bounds, splits and the journal's inode were made afresh).
// A page miss takes an evicted frame, a mapped page costs no frame until
// it is written, a row's text is read in place, a statement reuses the
// parser's nodes and the DB's buffers and arenas, a spilled pre-image's
// buffer goes back to the free list, and RAMFS recreates the journal from
// the inode it last unlinked (DESIGN.md §16). Counted on one P, as the
// checkpoint sweep's are, and with no collection inside the pass: with
// one there the count follows the collector's timing and what the
// earlier tests of the process left (644 to 649 objects), while two
// collections before and none during read 647 every time.
func TestSpeedtestPassAllocations(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tgt := speedtestSetup(t)
	runtime.ReadMemStats(&ms1)
	speedtestQueries(t, tgt)
	runtime.ReadMemStats(&ms2)
	pass, queries, objs := ms2.TotalAlloc-ms0.TotalAlloc, ms2.TotalAlloc-ms1.TotalAlloc, ms2.Mallocs-ms1.Mallocs
	if pass > 8_767_440 || queries > 2_209_804 || objs > 647 {
		t.Errorf("a pass allocates %d bytes, its queries %d in %d objects; want at most 8 767 440, 2 209 804 in 647", pass, queries, objs)
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

// BenchmarkSpeedtestQueries times the 31 queries on a freshly booted and
// filled deployment, the boot and the fill outside the timer and the
// counts.
func BenchmarkSpeedtestQueries(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tgt := speedtestSetup(b)
		b.StartTimer()
		speedtestQueries(b, tgt)
	}
}
