package cubicle

import (
	"reflect"
	"testing"

	"cubicleos/internal/trace"
)

// TestEveryCounterIsEventDerived requires the Counters table to be total:
// every scalar counter of Stats is the field of exactly one row, so Merge,
// StatsFromTrace and every report cover it, and every trace kind is either
// some row's defining event or a declared non-counter. A counter added
// without a row, or a kind added without either, fails here instead of
// silently reading 0 in a derived view. The three always-zero benchmark
// shims are the only exemption.
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
