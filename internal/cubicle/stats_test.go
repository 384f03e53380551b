package cubicle

import (
	"maps"
	"reflect"
	"testing"
	"time"

	"cubicleos/internal/trace"
)

// TestEveryCounterIsEventDerived requires the Counters table to be total:
// every scalar counter of Stats is the field of exactly one row, so note,
// Merge and every report cover it, and every trace kind is either some
// row's defining event or a declared non-counter. A counter added without
// a row, or a kind added without either, fails here instead of silently
// reading 0. The three always-zero benchmark shims are the only exemption.
func TestEveryCounterIsEventDerived(t *testing.T) {
	var s Stats
	rowsAt := map[*uint64]int{}
	names := map[string]bool{}
	type event struct {
		kind     trace.Kind
		weighted bool
	}
	events := map[event]string{}
	counted := map[trace.Kind]bool{}
	for _, c := range Counters {
		rowsAt[c.Field(&s)]++
		if names[c.Name] || c.Name == "" || c.Help == "" {
			t.Errorf("row %q: name must be unique and name and help non-empty", c.Name)
		}
		names[c.Name] = true
		ev := event{c.Kind, c.Weighted}
		if other, dup := events[ev]; dup {
			t.Errorf("rows %q and %q are both defined by %v (weighted=%v)", other, c.Name, c.Kind, c.Weighted)
		}
		events[ev] = c.Name
		counted[c.Kind] = true
	}

	shim := map[string]bool{"TLBHits": true, "TLBMisses": true, "TLBInvalidations": true}
	sv := reflect.ValueOf(&s).Elem()
	fields := 0
	for i := 0; i < sv.NumField(); i++ {
		p, ok := sv.Field(i).Addr().Interface().(*uint64)
		if !ok {
			continue
		}
		name, want := sv.Type().Field(i).Name, 1
		if shim[name] {
			want = 0
		}
		if got := rowsAt[p]; got != want {
			t.Errorf("Stats.%s is the field of %d Counters rows, want %d", name, got, want)
		}
		fields += want
	}
	if fields != len(Counters) {
		t.Errorf("%d rows over %d counter fields: a row's accessor points outside Stats' uint64 fields", len(Counters), fields)
	}

	// Kinds that are spans, baselines or annotations rather than counters.
	notCounted := map[trace.Kind]bool{trace.EvCallExit: true, trace.EvIPC: true, trace.EvMark: true}
	for k := trace.Kind(0); k < trace.NumKinds; k++ {
		if counted[k] == notCounted[k] {
			t.Errorf("kind %v: counted by a row = %v, declared non-counter = %v", k, counted[k], notCounted[k])
		}
	}
}

// TestNoteIsTheCounterTable checks the rule note implements: for every
// event kind, one note on a fresh monitor moves exactly the Counters rows
// that kind defines — the count row by one, the Weighted row by the
// event's Arg — and the per-edge call count only for a crossing; with
// tracing on, the same note appends exactly that event to the ring.
func TestNoteIsTheCounterTable(t *testing.T) {
	for k := trace.Kind(0); k < trace.NumKinds; k++ {
		for _, traced := range []bool{false, true} {
			m := NewMonitor(ModeFull, testCosts())
			if traced {
				m.EnableTracing(16)
			}
			m.note(k, nil, 1, 2, 7, 0, "x")
			for _, c := range Counters {
				var want uint64
				if c.Kind == k {
					want = 1
					if c.Weighted {
						want = 7
					}
				}
				if got := *c.Field(&m.Stats); got != want {
					t.Errorf("note(%v) left %s at %d, want %d (traced %v)", k, c.Name, got, want, traced)
				}
			}
			wantCalls := map[Edge]uint64{}
			if k == trace.EvCallEnter {
				wantCalls[Edge{From: 1, To: 2}] = 1
			}
			if !maps.Equal(m.Stats.Calls, wantCalls) {
				t.Errorf("note(%v) left the edge counts at %v, want %v", k, m.Stats.Calls, wantCalls)
			}
			if !traced {
				continue
			}
			want := trace.Event{Kind: k, Thread: -1, Cubicle: 1, Other: 2, Arg: 7, Name: "x"}
			if evs := m.Tracer().Events(); len(evs) != 1 || evs[0] != want {
				t.Errorf("note(%v) recorded %+v, want [%+v]", k, evs, want)
			}
		}
	}
}

func TestSortedEdgesTieBreaking(t *testing.T) {
	s := newStats()
	// Two pairs tied on count plus one dominant edge; ties must order by
	// From, then To, so reports are stable run to run.
	s.Calls[Edge{From: 5, To: 1}] = 3
	s.Calls[Edge{From: 2, To: 7}] = 3
	s.Calls[Edge{From: 2, To: 4}] = 3
	s.Calls[Edge{From: 9, To: 9}] = 100
	got := s.SortedEdges()
	want := []EdgeCount{
		{From: 9, To: 9, Count: 100},
		{From: 2, To: 4, Count: 3},
		{From: 2, To: 7, Count: 3},
		{From: 5, To: 1, Count: 3},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("edge %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestStatsResetGivesFreshMap(t *testing.T) {
	s := newStats()
	s.Calls[Edge{From: 1, To: 2}] = 9
	s.CallsTotal = 9
	s.Faults = 4
	old := s.Calls

	s.Reset()
	if s.CallsTotal != 0 || s.Faults != 0 {
		t.Fatalf("scalar counters survived reset: %+v", s)
	}
	if len(s.Calls) != 0 {
		t.Fatalf("edge map survived reset: %v", s.Calls)
	}
	// The reset map must not alias the old one: writes through a stale
	// reference (e.g. a report held across a reset) must not reappear.
	old[Edge{From: 3, To: 4}] = 1
	if len(s.Calls) != 0 {
		t.Fatal("Reset left the stats aliasing the old Calls map")
	}
}

// TestCrossingWithWordsAddsNoAllocations is the exact gate on the crossing
// ABI: a call that carries three argument words and returns two allocates
// nothing — the words ride the thread's word stack, the results its
// scratch — in the three monitor shapes the benchmark's HTTP workloads
// run, all through the one crossing body: bare, supervised (the contain
// defer registered) and checkpointing (entered at depth 0 so the cadence
// gate runs). The "noop" row is a cubicle-to-cubicle crossing with no
// words and no tracer: the observability layer costs an untraced crossing
// nothing.
func TestCrossingWithWordsAddsNoAllocations(t *testing.T) {
	leaf3 := func(t *testing.T, w *abiWorld) {
		if r := w.monLeaf3.Call(w.env, 1, 2, 3); r[0] != 3 || r[1] != 3 {
			t.Fatalf("leaf3(1, 2, 3) returned %v, want [3 3]", r)
		}
	}
	for _, tc := range []struct {
		name string
		wire func(m *Monitor)
		call func(t *testing.T, w *abiWorld)
	}{
		{"bare", nil, leaf3},
		{"supervised", func(m *Monitor) { m.EnableContainment(DefaultRestartPolicy()) }, leaf3},
		{"checkpointing", func(m *Monitor) { m.EnableCheckpoints(5_000_000) }, leaf3},
		{"noop", nil, func(t *testing.T, w *abiWorld) {
			w.enter(t, "APP", func(e *Env) { w.noop.Call(e) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := bootABI(t, tc.wire)
			call := func() { tc.call(t, w) }
			for i := 0; i < 16; i++ {
				call() // the per-edge stats entry, LEAF's stack, the word stack
			}
			if allocs := testing.AllocsPerRun(1000, call); allocs != 0 {
				t.Fatalf("a crossing allocates %.0f objects, want 0", allocs)
			}
		})
	}
}

// BenchmarkCrossingArgsRets is the crossing real callers make — three
// argument words in, two result words out; TestCrossingWithWordsAddsNoAllocations
// gates its allocations.
func BenchmarkCrossingArgsRets(b *testing.B) {
	w := bootABI(b, nil)
	e := w.env
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := w.monLeaf3.Call(e, uint64(i), 2, 3); r[1] != 3 {
			b.Fatalf("leaf3 returned %v", r)
		}
	}
}

// tracingPair boots two ModeFull systems, the second traced, and returns a
// function that makes calls BAR→FOO noop crossings on each, in interleaved
// batches of about 100 µs, so host noise (CPU contention on a shared
// machine) hits both sides equally and cancels in the quotient it returns:
// the traced side's host time over the untraced side's.
func tracingPair(tb testing.TB) func(calls int) float64 {
	boot := func(traced bool) func(n int) {
		ts := bootPair(tb, ModeFull)
		if traced {
			ts.m.EnableTracing(1 << 12)
		}
		bar := ts.cubs["BAR"].ID
		h := ts.m.MustResolve(bar, "FOO", "foo_noop")
		e := ts.env
		e.T.pushFrame(bar, true)
		ts.m.wrpkru(e.T, ts.m.pkruFor(bar))
		return func(n int) {
			for i := 0; i < n; i++ {
				h.Call(e)
			}
		}
	}
	untraced, traced := boot(false), boot(true)
	return func(calls int) float64 {
		const batch = 512
		var tDis, tEn time.Duration
		for n := 0; n < calls; n += batch {
			k := min(batch, calls-n)
			t0 := time.Now()
			untraced(k)
			t1 := time.Now()
			traced(k)
			tDis += t1.Sub(t0)
			tEn += time.Since(t1)
		}
		return float64(tEn) / float64(tDis)
	}
}

// raceBuild is set by race_test.go.
var raceBuild bool

// TestTracingOverheadRatio is the always-on observability gate: a traced
// crossing costs at most 1.9 times an untraced one in host time
// (EXPERIMENTS.md, "Tracing overhead", has how the ratio moved). The call
// count is fixed, about a second of crossings on a 2-vCPU host.
func TestTracingOverheadRatio(t *testing.T) {
	if raceBuild {
		t.Skip("race instrumentation, not the tracer, sets the ratio")
	}
	const calls, limit = 5_000_000, 1.9
	if r := tracingPair(t)(calls); r > limit {
		t.Errorf("a traced crossing costs %.3f times an untraced one, want at most %.1f", r, limit)
	} else {
		t.Logf("tracing overhead ratio %.3f", r)
	}
}

// BenchmarkCallTracingPaired reports tracingPair's quotient over b.N
// crossings a side as its "ratio" metric.
func BenchmarkCallTracingPaired(b *testing.B) {
	ratio := tracingPair(b)
	b.ResetTimer()
	r := ratio(b.N)
	b.StopTimer()
	b.ReportMetric(r, "ratio")
}
