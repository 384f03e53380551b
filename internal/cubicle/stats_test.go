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

// TestTracingDisabledAddsNoAllocations is the benchmark guard in test
// form: with no tracer attached, the cross-cubicle call path must not
// allocate, so ModeFull measurements are unaffected by the existence of
// the observability layer.
func TestTracingDisabledAddsNoAllocations(t *testing.T) {
	ts := bootPair(t, ModeFull)
	h := ts.m.MustResolve(ts.cubs["BAR"].ID, "FOO", "foo_noop")
	ts.enter(t, "BAR", func(e *Env) {
		// Warm up: first calls populate the per-edge stats map and any
		// lazily-built thread state.
		for i := 0; i < 16; i++ {
			h.Call(e)
		}
		allocs := testing.AllocsPerRun(200, func() { h.Call(e) })
		// Generous margin: the call path itself is allocation-free; allow
		// a stray allocation for runtime noise but fail on a per-call
		// event or label allocation sneaking in.
		if allocs > 0.5 {
			t.Fatalf("tracing-disabled call allocates %.2f objects/op, want 0", allocs)
		}
	})
}

// TestCrossingWithWordsAddsNoAllocations is the exact gate on the crossing
// ABI: a call that carries three argument words and returns two allocates
// nothing — the words ride the thread's word stack, the results its
// scratch — in the three monitor shapes the benchmark's HTTP workloads
// run, all through the one crossing body: bare, supervised (the contain
// defer registered) and checkpointing (entered at depth 0 so the cadence
// gate runs).
func TestCrossingWithWordsAddsNoAllocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		wire func(m *Monitor)
	}{
		{"bare", nil},
		{"supervised", func(m *Monitor) { m.EnableContainment(DefaultRestartPolicy()) }},
		{"checkpointing", func(m *Monitor) { m.EnableCheckpoints(5_000_000) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := bootABI(t, tc.wire)
			e := w.env
			call := func() {
				if r := w.monLeaf3.Call(e, 1, 2, 3); r[0] != 3 || r[1] != 3 {
					t.Fatalf("leaf3(1, 2, 3) returned %v, want [3 3]", r)
				}
			}
			for i := 0; i < 16; i++ {
				call() // the per-edge stats entry, LEAF's stack, the word stack
			}
			if allocs := testing.AllocsPerRun(1000, call); allocs != 0 {
				t.Fatalf("a 3-words-in, 2-words-out crossing allocates %.0f objects, want 0", allocs)
			}
		})
	}
}

// BenchmarkCrossingArgsRets is the crossing real callers make — three
// argument words in, two result words out. scripts/bench.sh -assert gates
// its allocs/op at exactly 0.
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

// benchCall measures one FOO←BAR noop cross-cubicle call in ModeFull.
func benchCall(b *testing.B, traced bool) {
	var tt testing.T
	ts := bootPair(&tt, ModeFull)
	if tt.Failed() {
		b.Fatal("boot failed")
	}
	if traced {
		ts.m.EnableTracing(1 << 12)
	}
	h := ts.m.MustResolve(ts.cubs["BAR"].ID, "FOO", "foo_noop")
	cub := ts.cubs["BAR"]
	e := ts.env
	e.T.pushFrame(cub.ID, true)
	defer e.T.popFrame()
	ts.m.wrpkru(e.T, ts.m.pkruFor(cub.ID))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Call(e)
	}
}

func BenchmarkCallTracingDisabled(b *testing.B) { benchCall(b, false) }
func BenchmarkCallTracingEnabled(b *testing.B)  { benchCall(b, true) }

// BenchmarkCallTracingPaired measures the tracing-overhead ratio with
// traced and untraced batches interleaved at ~10 µs granularity, so host
// noise (CPU contention on a shared machine) hits both sides equally and
// cancels in the quotient. The "ratio" metric is what
// scripts/bench.sh -assert gates; the two plain benchmarks above report
// the absolute ns/op.
func BenchmarkCallTracingPaired(b *testing.B) {
	var tt testing.T
	boot := func(traced bool) (Handle, *Env) {
		ts := bootPair(&tt, ModeFull)
		if tt.Failed() {
			b.Fatal("boot failed")
		}
		if traced {
			ts.m.EnableTracing(1 << 12)
		}
		h := ts.m.MustResolve(ts.cubs["BAR"].ID, "FOO", "foo_noop")
		e := ts.env
		e.T.pushFrame(ts.cubs["BAR"].ID, true)
		ts.m.wrpkru(e.T, ts.m.pkruFor(ts.cubs["BAR"].ID))
		return h, e
	}
	hDis, eDis := boot(false)
	hEn, eEn := boot(true)

	const batch = 512
	var tDis, tEn time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		k := batch
		if rem := b.N - n; rem < k {
			k = rem
		}
		t0 := time.Now()
		for i := 0; i < k; i++ {
			hDis.Call(eDis)
		}
		t1 := time.Now()
		for i := 0; i < k; i++ {
			hEn.Call(eEn)
		}
		tDis += t1.Sub(t0)
		tEn += time.Since(t1)
	}
	b.StopTimer()
	if tDis > 0 {
		b.ReportMetric(float64(tEn)/float64(tDis), "ratio")
	}
}
