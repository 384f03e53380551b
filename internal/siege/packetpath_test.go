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

// TestResultBodyOutlivesLaterFetches guards the aliasing the zero-copy
// body introduces: Result.Body points into the connection's receive
// buffer, so that buffer must never be reused by a later request, and
// must stay readable after Release.
func TestResultBodyOutlivesLaterFetches(t *testing.T) {
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
		t.Error("a held Result.Body changed under eight later fetches")
	}
	if _, body, err := parseResponse(conn.Received()); err != nil || !bytes.Equal(body, held) {
		t.Errorf("Received() after Release no longer reads the response: %v", err)
	}
}

// TestBulkFetchGarbage: a 1 MiB download may allocate the body once plus
// a quarter for everything else (the crossings' argument vectors, the
// connection). Before frames were pooled and the receive buffer presized
// it allocated six times the body.
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
	if got := after.TotalAlloc - before.TotalAlloc; got > size*5/4 {
		t.Errorf("one 1 MiB fetch allocated %d bytes, more than 1.25x the body", got)
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
// not nanoseconds, at the measured value plus at most one: 40 for a 4 KiB
// file and 102 for a 1 MiB one — the connection, the request, the response
// buffer, the Result and what the server side allocates per segment. (131
// and 2 625 while every crossing heap-allocated its argument and result
// words.) Every HTTP workload of the benchmark bounds allocs_per_op at
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
		{4 << 10, 41},
		{1 << 20, 103},
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
// on the governed deployment: 38.1 objects measured (the run's own state
// amortised over 256 arrivals), 39 allowed. An arrival is a Fetch less
// its Result and its request, which the run builds once.
func TestOpenLoopAllocationCounts(t *testing.T) {
	if raceBuild {
		t.Skip("exact allocation counts are not meaningful under the race detector")
	}
	tgt, err := NewTargetOpts(Options{Mode: cubicle.ModeFull}.Governed())
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
	if got := mallocsPer(arrivals, run); got > 39 {
		t.Errorf("an open-loop arrival allocates %.2f objects, more than 39", got)
	} else {
		t.Logf("open-loop arrival: %.2f allocations", got)
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
