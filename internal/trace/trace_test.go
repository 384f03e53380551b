package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"cubicleos/internal/cycles"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
		if c.v > BucketBound(c.bucket) {
			t.Errorf("value %d above its bucket bound %d", c.v, BucketBound(c.bucket))
		}
	}
	if h.Count() != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(cases))
	}
	if h.max != 1025 {
		t.Fatalf("max = %d, want 1025", h.max)
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty hist quantile should be 0")
	}
	// 90 cheap observations, 10 expensive ones.
	for i := 0; i < 90; i++ {
		h.Observe(10) // bucket le=16
	}
	for i := 0; i < 10; i++ {
		h.Observe(5000) // bucket le=8192
	}
	if q := h.Quantile(0.5); q != 16 {
		t.Errorf("p50 = %d, want bucket bound 16", q)
	}
	// p99 lands in the expensive bucket; the estimate is the bucket's
	// upper bound clamped to the observed max.
	if q := h.Quantile(0.99); q != 5000 {
		t.Errorf("p99 = %d, want max-clamped 5000", q)
	}
	s := h.Summary()
	if s.Count != 100 || s.Sum != 90*10+10*5000 || s.Max != 5000 {
		t.Errorf("summary = %+v", s)
	}
}

// TestRingWrapKeepsCounts: 100 events through a 16-event ring are all
// counted and the newest 16 kept in order, and the digest started on the
// empty ring folds them exactly as a ring that holds them all does;
// recording into it allocates nothing, and the wrapped ring refuses to
// start another.
func TestRingWrapKeepsCounts(t *testing.T) {
	clock := &cycles.Clock{}
	tr, whole := New(clock, 16), New(clock, 128)
	tr.StartDigest()
	for i := 0; i < 100; i++ {
		clock.Charge(10)
		for _, r := range []*Tracer{tr, whole} {
			r.Record(Kind(i%int(NumKinds)), i%3-1, i, -i, uint64(i)<<40, 0, kindNames[i%int(NumKinds)])
		}
	}
	if got := tr.Recorded(); got != 100 {
		t.Fatalf("recorded = %d, want 100 despite ring wrap", got)
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("ring holds %d events, want 16", len(evs))
	}
	if tr.Dropped() != 100-16 {
		t.Fatalf("dropped = %d, want %d", tr.Dropped(), 100-16)
	}
	// Chronological order, and the survivors are the newest events.
	for i, ev := range evs {
		if want := uint64(100 - 16 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	if whole.StartDigest(); whole.Digest() != tr.Digest() || tr.Digest() == 0 {
		t.Errorf("digest %#x folded as recorded, %#x from the ring", tr.Digest(), whole.Digest())
	}
	if n := testing.AllocsPerRun(100, func() { tr.Record(EvCopy, 0, 1, 2, 3, 0, "copy") }); n != 0 {
		t.Errorf("recording into a digest allocates %.1f objects", n)
	}
	if tr.StartDigest() {
		t.Error("a ring that dropped events started a digest")
	}
}

func TestCallPairingAndEdgeHist(t *testing.T) {
	clock := &cycles.Clock{}
	tr := New(clock, 64)
	tr.CallEnter(0, 1, 2, "a.f", 32)
	clock.Charge(500)
	// Nested call on the same thread.
	tr.CallEnter(0, 2, 3, "b.g", 16)
	clock.Charge(100)
	tr.CallExit(0, 2, 3, "b.g")
	clock.Charge(400)
	tr.CallExit(0, 1, 2, "a.f")

	hists := tr.edgeHistsByEdge()
	if h := hists[Edge{2, 3}]; h == nil || h.Count() != 1 || h.Sum() != 100 {
		t.Fatalf("inner edge hist = %+v", h)
	}
	if h := hists[Edge{1, 2}]; h == nil || h.Count() != 1 || h.Sum() != 1000 {
		t.Fatalf("outer edge hist = %+v", h)
	}
	// Enters carry their stack bytes, exits their inclusive elapsed cycles.
	var args []uint64
	for _, ev := range tr.Events() {
		args = append(args, ev.Arg)
	}
	if want := []uint64{32, 16, 100, 1000}; !slices.Equal(args, want) {
		t.Fatalf("event args = %v, want %v", args, want)
	}
}

// TestRingCapBounded: a capacity rounds up to a power of two without
// overflowing, and one past MaxRing is refused at once instead of looping
// or exhausting memory.
func TestRingCapBounded(t *testing.T) {
	for _, c := range []struct{ n, want int }{{-1, 16}, {0, 16}, {16, 16}, {17, 32}, {1 << 16, 1 << 16}, {1<<16 + 1, 1 << 17}, {MaxRing, MaxRing}} {
		if got := RingCap(c.n); got != c.want {
			t.Errorf("RingCap(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "exceeds MaxRing") {
			t.Fatalf("New(clock, math.MaxInt) recovered %v, want a MaxRing panic", r)
		}
	}()
	New(&cycles.Clock{}, math.MaxInt)
}

func TestProfileAttribution(t *testing.T) {
	clock := &cycles.Clock{}
	tr := New(clock, 64)
	tr.SetNamer(func(id int) string { return map[int]string{0: "A", 1: "B"}[id] })

	clock.Charge(100) // cubicle 0 (initial)
	tr.SwitchCubicle(1)
	clock.Charge(300) // cubicle 1
	tr.SwitchCubicle(0)
	clock.Charge(50) // cubicle 0 again

	p := tr.Profile()
	if p.TotalCycles != 450 {
		t.Fatalf("total = %d, want 450", p.TotalCycles)
	}
	if len(p.Entries) != 2 {
		t.Fatalf("entries = %+v", p.Entries)
	}
	// Sorted by descending cycles: B=300, A=150.
	if p.Entries[0].Name != "B" || p.Entries[0].Cycles != 300 {
		t.Fatalf("top entry = %+v", p.Entries[0])
	}
	if p.Entries[1].Name != "A" || p.Entries[1].Cycles != 150 {
		t.Fatalf("second entry = %+v", p.Entries[1])
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	clock := &cycles.Clock{}
	tr := New(clock, 64)
	tr.SetNamer(func(id int) string { return "CUB" + itoa(id) })
	tr.CallEnter(0, 1, 2, "b.read", 64)
	clock.Charge(2200)
	tr.Record(EvFault, 0, 2, 1, 0x4000, 1500, "")
	tr.Record(EvRetag, -1, 2, 3, 0x4000, 0, "")
	tr.CallExit(0, 1, 2, "b.read")
	tr.Record(EvMark, 0, 2, 0, 0, 0, "checkpoint")

	raw, err := tr.ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["B"] != 1 || phases["E"] != 1 {
		t.Fatalf("want one B/E span pair, got %v", phases)
	}
	if phases["X"] != 1 {
		t.Fatalf("fault should be a complete event, got %v", phases)
	}
	if phases["M"] == 0 {
		t.Fatalf("missing metadata events: %v", phases)
	}
}

// TestEventIsOneCacheLine pins the ring slot at 64 bytes: every emission
// rewrites one slot of a ring far larger than L1.
func TestEventIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 64", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	clock := &cycles.Clock{}
	tr := New(clock, 64)
	tr.CallEnter(0, 1, 2, "b.read", 64)
	clock.Charge(4000)
	tr.CallExit(0, 1, 2, "b.read")
	tr.Record(EvFault, 0, 2, 1, 0x4000, 1500, "") // a second event kind with a cost
	tr.SwitchCubicle(1)
	clock.Charge(100)

	var buf bytes.Buffer
	if err := tr.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`cubicleos_call_cycles_bucket{from="cubicle-1",to="cubicle-2",le="+Inf"} 1`,
		`cubicleos_call_cycles_sum{from="cubicle-1",to="cubicle-2"} 4000`,
		`cubicleos_call_cycles_count{from="cubicle-1",to="cubicle-2"} 1`,
		"# TYPE cubicleos_call_cycles histogram",
		"cubicleos_virtual_cycles 4100",
		`cubicleos_event_cycles_quantile{kind="call_exit",q="1"}`,
		`cubicleos_event_cycles_quantile{kind="fault",q="1"} 1500`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// The text format allows one TYPE line per metric family.
	typed := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if family, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, _, _ = strings.Cut(family, " ")
			if typed[family] {
				t.Errorf("family %s has two TYPE lines\n%s", family, out)
			}
			typed[family] = true
		}
	}
	// Cumulative histogram: every bucket count must be non-decreasing.
	last := -1.0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `cubicleos_call_cycles_bucket{from="cubicle-1"`) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative: %q after %v", line, last)
		}
		last = v
	}
}

func TestSnapshotJSON(t *testing.T) {
	clock := &cycles.Clock{}
	tr := New(clock, 64)
	tr.CallEnter(0, 1, 2, "b.read", 64)
	clock.Charge(4000)
	tr.CallExit(0, 1, 2, "b.read")

	raw, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if snap.VirtualCycles != 4000 || snap.Recorded != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Edges) != 1 || snap.Edges[0].Cycles.Count != 1 {
		t.Fatalf("edges = %+v", snap.Edges)
	}
}

func TestEdgeSummariesOrder(t *testing.T) {
	clock := &cycles.Clock{}
	tr := New(clock, 64)
	call := func(from, to int, n int) {
		for i := 0; i < n; i++ {
			tr.CallEnter(0, from, to, "x", 0)
			clock.Charge(10)
			tr.CallExit(0, from, to, "x")
		}
	}
	call(3, 4, 1)
	call(1, 2, 5)
	call(2, 3, 5) // ties with 1->2 on count; 1->2 must sort first
	s := tr.EdgeSummaries()
	if len(s) != 3 {
		t.Fatalf("summaries = %+v", s)
	}
	if s[0].Edge != (Edge{1, 2}) || s[1].Edge != (Edge{2, 3}) || s[2].Edge != (Edge{3, 4}) {
		t.Fatalf("order = %v %v %v", s[0].Edge, s[1].Edge, s[2].Edge)
	}
}
