package siege

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/httpd"
	"cubicleos/internal/lwip"
)

func TestParseResponse(t *testing.T) {
	for _, tc := range []struct {
		name, raw string
		status    int
		body      string
		errHas    string
	}{
		{"ok", "HTTP/1.0 200 OK\r\nServer: x\r\n\r\nhello", 200, "hello", ""},
		{"empty body", "HTTP/1.1 404 Not Found\r\n\r\n", 404, "", ""},
		{"status line only", "HTTP/1.0  503\r\n\r\nbusy", 503, "busy", ""},
		{"body holds a blank line", "HTTP/1.0 200 OK\r\n\r\na\r\n\r\nb", 200, "a\r\n\r\nb", ""},
		{"no header terminator", "HTTP/1.0 200 OK\r\nServer: x\r\n", 0, "", "malformed response"},
		{"one-field status line", "HTTP/1.0\r\n\r\nbody", 0, "", "malformed status line"},
		{"status is not a number", "HTTP/1.0 OK 200\r\n\r\nbody", 0, "", "bad status"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := []byte(tc.raw)
			status, body, err := parseResponse(raw)
			if tc.errHas != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("error %v, want one naming %q", err, tc.errHas)
				}
				return
			}
			if err != nil || status != tc.status || string(body) != tc.body {
				t.Fatalf("got %d %q %v, want %d %q", status, body, err, tc.status, tc.body)
			}
			if len(body) > 0 && &body[0] != &raw[len(raw)-len(body)] {
				t.Error("body is a copy, not a sub-slice of the response")
			}
		})
	}
}

// seededFiles provisions n files of size bytes of seeded noise and returns
// their paths and CRCs.
func seededFiles(t *testing.T, tgt *Target, n, size int) (paths []string, sums []uint32) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n*size + 1)))
	for i := 0; i < n; i++ {
		body := make([]byte, size)
		rng.Read(body)
		path := fmt.Sprintf("/f%d.bin", i)
		if err := tgt.PutFile(path, body); err != nil {
			t.Fatal(err)
		}
		paths, sums = append(paths, path), append(sums, crc32.ChecksumIEEE(body))
	}
	return paths, sums
}

// Every test of the package runs with recycled receive buffers poisoned: a
// body read after its owner gave the buffer back is 0xDD (or a later
// response), so it fails its CRC instead of passing on stale bytes.
func init() { poisonRecycled = true }

// TestRawConnBufferNeverRecycled: a connection driven by hand is nobody's
// to recycle, so what it received stays readable — after Release, and
// under later fetches that do recycle among themselves.
func TestRawConnBufferNeverRecycled(t *testing.T) {
	tgt := mustTarget(t, cubicle.ModeFull)
	paths, sums := seededFiles(t, tgt, 9, 6000)

	conn := tgt.Peer.Connect(80)
	for i := 0; i < 1000 && !conn.FinRcvd; i++ {
		tgt.Step()
		tgt.Peer.Pump()
		if conn.Established && conn.ReceivedLen() == 0 && i < 4 {
			conn.Send(getRequest(paths[0], "HTTP/1.0"))
		}
	}
	conn.Release()
	_, held, err := parseResponse(conn.Received())
	if err != nil || crc32.ChecksumIEEE(held) != sums[0] {
		t.Fatalf("first response: %v", err)
	}

	for i := 1; i < 9; i++ {
		res, err := tgt.Fetch(paths[i])
		if err != nil || res.Status != 200 || crc32.ChecksumIEEE(res.Body) != sums[i] {
			t.Fatalf("fetch %d: %+v, %v", i, res, err)
		}
	}
	if crc32.ChecksumIEEE(held) != sums[0] {
		t.Error("a raw connection's body changed under eight later fetches")
	}
	if _, body, err := parseResponse(conn.Received()); err != nil || !bytes.Equal(body, held) {
		t.Errorf("Received() after Release no longer reads the response: %v", err)
	}
}

// TestFetchBodyValidUntilNextFetch pins both ends of Result.Body's life:
// nothing but the next request on the target touches it — not stepping the
// server, pumping the peer or provisioning a file — and the next request
// does take the buffer back.
func TestFetchBodyValidUntilNextFetch(t *testing.T) {
	tgt := mustTarget(t, cubicle.ModeFull)
	paths, sums := seededFiles(t, tgt, 2, 6000)
	res, err := tgt.Fetch(paths[0])
	if err != nil || crc32.ChecksumIEEE(res.Body) != sums[0] {
		t.Fatalf("fetch: %+v, %v", res, err)
	}
	held := res.Body
	for i := 0; i < 100; i++ {
		tgt.Step()
		tgt.Peer.Pump()
	}
	if err := tgt.PutFile("/later.bin", bytes.Repeat([]byte("L"), 6000)); err != nil {
		t.Fatal(err)
	}
	if crc32.ChecksumIEEE(held) != sums[0] {
		t.Fatal("a fetched body changed before the next fetch on its target")
	}
	next, err := tgt.Fetch(paths[1])
	if err != nil || crc32.ChecksumIEEE(next.Body) != sums[1] {
		t.Fatalf("second fetch: %+v, %v", next, err)
	}
	if crc32.ChecksumIEEE(held) == sums[0] {
		t.Error("the next fetch left the previous body's buffer alone: nothing recycled it")
	}
}

// TestCountedFlightsRecycleBuffers: an open-loop run drops each counted
// response on the spot, so it allocates as many receive buffers as it has
// flights in the air at once, however many arrivals it schedules. Buffers
// are counted as the runtime counts them, by size class: nothing else in a
// run allocates objects of 16 to 18 KB.
func TestCountedFlightsRecycleBuffers(t *testing.T) {
	tgt, err := NewTargetOpts(Options{Mode: cubicle.ModeFull}.Governed())
	if err != nil {
		t.Fatal(err)
	}
	const size, arrivals = 16 << 10, 2000
	paths, _ := seededFiles(t, tgt, 1, size)
	if err := tgt.PutFile("/small.bin", make([]byte, 1<<10)); err != nil {
		t.Fatal(err)
	}
	// The system's own tables reach their size on a run whose buffers are
	// too small to serve the measured one.
	if st, err := tgt.OpenLoop(OpenLoopOptions{Path: "/small.bin", Rate: 1000, Requests: 300}); err != nil || st.OK != 300 {
		t.Fatalf("warm-up: %+v, %v", st, err)
	}
	r, err := tgt.StartOpenLoop(OpenLoopOptions{Path: paths[0], Rate: 2500, Requests: arrivals})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inFlight := 0
	for more := true; more; {
		was, launched := len(r.live), r.st.Arrivals
		more = r.step()
		inFlight = max(inFlight, was+r.st.Arrivals-launched)
	}
	runtime.ReadMemStats(&after)
	// Past saturation on purpose: many flights at once, refusals among them.
	if st := r.Finish(); st.OK < arrivals/2 || st.OK+st.Shed != arrivals {
		t.Fatalf("run: %+v", st)
	}
	class := 0
	for before.BySize[class].Size <= size { // the class of a body plus its header
		class++
	}
	got := after.BySize[class].Mallocs - before.BySize[class].Mallocs
	if got == 0 || got > uint64(inFlight) {
		t.Errorf("%d arrivals allocated %d receive buffers (%d-byte objects) with at most %d flights in the air",
			arrivals, got, before.BySize[class].Size, inFlight)
	}
	t.Logf("%d receive buffers allocated, %d flights in the air at most", got, inFlight)
}

// TestBulkFetchGarbage: a 1 MiB download allocates 64 KiB at most — the
// connection, the request and what the server side allocates per segment —
// and not the body: the buffer the previous fetch's body lived in carries
// this one's. (The body once plus a quarter while every connection
// allocated its own; six times the body before frames were pooled and the
// buffer presized.)
func TestBulkFetchGarbage(t *testing.T) {
	tgt, err := NewTargetOpts(Options{Mode: cubicle.ModeFull, ReapClosed: true})
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	paths, sums := seededFiles(t, tgt, 1, size)
	fetch := func() {
		res, err := tgt.Fetch(paths[0])
		if err != nil || res.Status != 200 || crc32.ChecksumIEEE(res.Body) != sums[0] {
			t.Fatalf("fetch: %+v, %v", res, err)
		}
	}
	for i := 0; i < 3; i++ {
		fetch() // the wire's free list grows to its high-water mark
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fetch()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Errorf("one 1 MiB fetch allocated %d bytes, more than 64 KiB", got)
	} else {
		t.Logf("one 1 MiB fetch allocated %d bytes", got)
	}
}

// raceBuild is set by race_test.go: the exact allocation gates skip under
// the race detector, whose instrumentation moves the counts.
var raceBuild bool

// mallocsPer runs fn, which performs n operations, and returns the heap
// objects it allocated per operation.
func mallocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestFetchAllocationCounts pins the objects one Fetch allocates, counts
// not nanoseconds, at the measured value plus at most one: 2 for a 4 KiB
// file and for a 1 MiB one — the request and the Result. The response
// buffer is the one the previous fetch gave back, and the host objects a
// request creates and retires (peer connection, window descriptors,
// socket, HTTP connection with its buffers, open file) are the previous
// request's, off their components' free lists; ALLOC holds its shares by
// value and RAMFS and VFSCORE read paths into scratch buffers. (23 and 23
// while those were allocated afresh; 30 and 92 while each VFS call went
// through the Caller interface, whose argument words escape: two objects
// a pread, and httpd reads the 1 MiB file in 32 of them; 39 and 101 while
// httpd parsed the head through strings and formatted through Sprintf;
// 131 and 2 625 while every crossing heap-allocated its argument and
// result words.) Every HTTP workload of the benchmark bounds allocs_per_op at
// 2 %, less than one object a request: this is that bound as a tier-1
// test. The run state of a Fetch lives on its stack and its flight list
// is the target's, so the one request loop costs a Fetch nothing here.
func TestFetchAllocationCounts(t *testing.T) {
	if raceBuild {
		t.Skip("exact allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		size, max int
	}{
		{4 << 10, 3},
		{1 << 20, 3},
	} {
		t.Run(fmt.Sprint(tc.size), func(t *testing.T) {
			tgt, err := NewTargetOpts(Options{Mode: cubicle.ModeFull, ReapClosed: true})
			if err != nil {
				t.Fatal(err)
			}
			paths, sums := seededFiles(t, tgt, 1, tc.size)
			fetch := func() {
				res, err := tgt.Fetch(paths[0])
				if err != nil || res.Status != 200 || crc32.ChecksumIEEE(res.Body) != sums[0] {
					t.Fatalf("fetch: %+v, %v", res, err)
				}
			}
			for i := 0; i < 3; i++ {
				fetch() // free lists, stacks and the word stack reach their high-water mark
			}
			if got := testing.AllocsPerRun(20, fetch); got > float64(tc.max) {
				t.Errorf("one %d-byte fetch allocates %.0f objects, more than %d", tc.size, got, tc.max)
			} else {
				t.Logf("%d-byte fetch: %.0f allocations", tc.size, got)
			}
		})
	}
}

// TestOpenLoopAllocationCounts is the same gate for an open-loop arrival
// on the governed deployment, checkpointing every 5 M cycles as
// prod_openloop does (a sweep meets LWIP's and NGINX's vetoes while
// connections are in flight): 0.06 objects measured (the run's own state
// amortised over 256 arrivals; 22.68 while a request's and a capture's
// host objects were allocated afresh, 21.1 of them without checkpoints,
// 28.1 before VFS calls stopped boxing their arguments), 1 allowed. An arrival is a Fetch less its Result and its request, which
// the run builds once.
func TestOpenLoopAllocationCounts(t *testing.T) {
	if raceBuild {
		t.Skip("exact allocation counts are not meaningful under the race detector")
	}
	o := Options{Mode: cubicle.ModeFull}.Governed()
	o.CheckpointInterval = 5_000_000
	tgt, err := NewTargetOpts(o)
	if err != nil {
		t.Fatal(err)
	}
	paths, _ := seededFiles(t, tgt, 1, 4<<10)
	const arrivals = 256
	run := func() {
		st, err := tgt.OpenLoop(OpenLoopOptions{Path: paths[0], Rate: 3500, Requests: arrivals})
		if err != nil || st.OK != arrivals {
			t.Fatalf("run: %+v, %v", st, err)
		}
	}
	run() // free lists and stacks reach their high-water mark
	if got := mallocsPer(arrivals, run); got > 1 {
		t.Errorf("an open-loop arrival allocates %.2f objects, more than 1", got)
	} else {
		t.Logf("open-loop arrival: %.2f allocations", got)
	}
}

// TestCheckpointSweepAllocatesNothing: once two sweeps have grown the
// monitor's image, the hooks' blobs and both encode buffers of every
// record, a checkpoint sweep of an idle governed target allocates no
// object and no byte (280 064 bytes in 18 objects while every capture
// built its image, blobs and encoding afresh). Counts are whole objects
// and bytes a sweep, as testing.AllocsPerRun takes them, on one P: what
// the runtime allocates for itself now and then (a thread it starts on a
// loaded host) is not the sweep's.
func TestCheckpointSweepAllocatesNothing(t *testing.T) {
	if raceBuild {
		t.Skip("exact allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const interval = 5_000_000
	o := Options{Mode: cubicle.ModeFull}.Governed()
	o.CheckpointInterval = interval
	tgt, err := NewTargetOpts(o)
	if err != nil {
		t.Fatal(err)
	}
	seededFiles(t, tgt, 4, 4<<10)
	m := tgt.Sys.M
	sweep := func() {
		m.Clock.Charge(interval)
		tgt.Step()
	}
	sweep()
	sweep()
	const sweeps = 100
	before := m.Stats.Checkpoints
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < sweeps; i++ {
		sweep()
	}
	runtime.ReadMemStats(&ms1)
	if got := m.Stats.Checkpoints - before; got < sweeps {
		t.Fatalf("%d sweeps took %d checkpoints, want at least one each", sweeps, got)
	}
	if objs, b := ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc; objs/sweeps != 0 || b/sweeps != 0 {
		t.Errorf("%d steady-state sweeps allocated %d objects, %d bytes; want none", sweeps, objs, b)
	}
}

// TestOpenLoopHoldsOnlyLiveFlights: the driver's working set is the
// flights in the air, not the flights ever launched — a completed flight
// is classified and its connection dropped the step its FIN arrives, so
// by the time the run is over there is no PeerConn left for Finish to
// look at.
func TestOpenLoopHoldsOnlyLiveFlights(t *testing.T) {
	gov := httpd.Governance{MaxConns: 16, RetryAfter: 1, Retry: cubicle.DefaultRetryPolicy()}
	tgt, err := NewTargetOpts(Options{Mode: cubicle.ModeFull, Governance: &gov, WireCap: 256, ReapClosed: true})
	if err != nil {
		t.Fatal(err)
	}
	paths, _ := seededFiles(t, tgt, 1, 4<<10)
	const arrivals = 4000
	r, err := tgt.StartOpenLoop(OpenLoopOptions{Path: paths[0], Rate: 3500, Requests: arrivals})
	if err != nil {
		t.Fatal(err)
	}
	maxLive := 0
	for r.step() {
		maxLive = max(maxLive, len(r.live))
	}
	if limit := 4 * gov.MaxConns; maxLive > limit || cap(r.live) > limit {
		t.Errorf("%d live flights at once (list capacity %d), want at most %d", maxLive, cap(r.live), limit)
	}
	for i, f := range r.live[:cap(r.live)] {
		if f.conn != nil {
			t.Fatalf("slot %d of the live list still holds a connection after the run", i)
		}
	}
	if st := r.Finish(); st.OK != arrivals || st.Dropped != 0 {
		t.Errorf("run: %+v", st)
	}
}

// TestEndedRunLeavesNoConnection: a run that ends with a flight still in
// the air — halted at a stop cycle, or out of steps — detaches it, so the
// peer holds no connection of that run: driven further, the server's
// remaining segments fall on the floor instead of completing a response
// nobody will read. Fetch got this from a deferred Release; the one
// request loop does it where a run ends.
func TestEndedRunLeavesNoConnection(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(r *OpenLoopDriver)
		err  error
	}{
		{"halted", func(r *OpenLoopDriver) { r.stop = r.clock.Cycles() + 300_000 }, ErrHalted},
		{"step bound", func(r *OpenLoopDriver) { r.maxSteps = 3 }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tgt := mustTarget(t, cubicle.ModeFull)
			paths, _ := seededFiles(t, tgt, 1, 256<<10)
			r, err := tgt.StartOpenLoop(OpenLoopOptions{Path: paths[0], Rate: 1000, Requests: 1})
			if err != nil {
				t.Fatal(err)
			}
			tc.arm(r)
			var conn *lwip.PeerConn
			for r.step() {
				conn = r.live[0].conn
			}
			if conn == nil || conn.FinRcvd || r.err != tc.err {
				t.Fatalf("run did not end mid-flight after %d steps: err %v", r.steps, r.err)
			}
			if st := r.Finish(); st.Dropped != 1 || st.OK != 0 {
				t.Fatalf("ended run: %+v", st)
			}
			got := conn.ReceivedLen()
			for i := 0; i < 2000; i++ {
				tgt.Step()
				tgt.Peer.Pump()
			}
			if conn.ReceivedLen() != got || conn.FinRcvd {
				t.Errorf("the peer still serves the ended run's connection: %d -> %d bytes, FIN %v",
					got, conn.ReceivedLen(), conn.FinRcvd)
			}
		})
	}

	// The same through Fetch: the flight list it lends the run comes back
	// empty, and the target is good for the next request.
	tgt := mustTarget(t, cubicle.ModeFull)
	paths, sums := seededFiles(t, tgt, 1, 256<<10)
	if _, err := tgt.FetchUntil(paths[0], tgt.Sys.M.Clock.Cycles()+300_000); err != ErrHalted {
		t.Fatalf("FetchUntil: %v, want ErrHalted", err)
	}
	for i, f := range tgt.flights[:cap(tgt.flights)] {
		if f.conn != nil {
			t.Errorf("slot %d of the target's flight list holds a connection after ErrHalted", i)
		}
	}
	if res, err := tgt.Fetch(paths[0]); err != nil || res.Status != 200 || crc32.ChecksumIEEE(res.Body) != sums[0] {
		t.Errorf("fetch after a halted one: %+v, %v", res, err)
	}
}
