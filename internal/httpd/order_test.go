package httpd_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/faultinject"
	"cubicleos/internal/httpd"
	"cubicleos/internal/lwip"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/siege"
	"cubicleos/internal/vfscore"
)

// checkOrder fails unless the server's connection list is what step relies
// on: descriptors strictly ascending, nothing closed still listed.
func checkOrder(t *testing.T, srv *httpd.Server, when string) []uint64 {
	t.Helper()
	fds, closedListed := srv.ConnFDs()
	if closedListed {
		t.Fatalf("%s: a closed connection is still listed: %v", when, fds)
	}
	if !slices.IsSorted(fds) || len(slices.Compact(slices.Clone(fds))) != len(fds) {
		t.Fatalf("%s: connections not in strictly ascending fd order: %v", when, fds)
	}
	if len(fds) != srv.Conns() {
		t.Fatalf("%s: %d connections listed, Conns() = %d", when, len(fds), srv.Conns())
	}
	return fds
}

// TestStepOrderIsSortedFDs churns a governed, supervised server through
// every way a connection enters and leaves — accept, close after an
// HTTP/1.0 response, shed at the admission limit, fail503 while RAMFS
// faults, keep-alive reset, client close, close at the requests-per-
// connection cap — checking the list after every step, then through a
// restore, and shows that a connection closed from inside an earlier
// one's advance is skipped in the same step.
func TestStepOrderIsSortedFDs(t *testing.T) {
	policy := cubicle.DefaultRestartPolicy()
	policy.MaxRestarts = 1000
	tgt, err := siege.NewTargetOpts(siege.Options{
		Mode:        cubicle.ModeFull,
		Supervision: &policy,
		Governance:  &httpd.Governance{MaxConns: 6, RetryAfter: 1},
		ReapClosed:  true,
		Chaos:       &faultinject.Config{Seed: 5, Target: ramfs.Name, ProtAtCrossing: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/f", body(3000)); err != nil {
		t.Fatal(err)
	}
	srv := tgt.Srv

	// The helpers themselves: insertion is by search, not by arrival, and a
	// second drop of the same connection changes nothing.
	for _, fd := range []uint64{1 << 40, 1<<40 - 7, 1<<40 + 9, 1<<40 - 3} {
		srv.AddConnFD(fd)
		checkOrder(t, srv, "bare insert")
	}
	for _, fd := range []uint64{1<<40 - 7, 1<<40 + 9, 1 << 40, 1<<40 - 3, 12345} {
		srv.DropConnFD(fd)
		checkOrder(t, srv, "bare drop")
	}
	if srv.Conns() != 0 {
		t.Fatalf("%d connections left after dropping every one", srv.Conns())
	}

	rng := rand.New(rand.NewSource(23))
	type client struct {
		c    *lwip.PeerConn
		sent bool
		req  string
	}
	requests := []string{
		"GET /f HTTP/1.0\r\n\r\n",                            // served, closed
		"GET /f HTTP/1.1\r\nHost: x\r\n\r\n",                 // served, reset for the next
		"GET /missing HTTP/1.1\r\nConnection: close\r\n\r\n", // 404, closed
		"POST /f HTTP/1.1\r\n\r\n",                           // 400, closed
		"",                                                   // never sends: closed by the client
	}
	var clients []*client
	tgt.Sys.Chaos.Arm()
	for step := 0; step < 3000; step++ {
		if step == 2000 {
			tgt.Sys.Chaos.Disarm()
		}
		if rng.Intn(4) == 0 && len(clients) < 12 {
			clients = append(clients, &client{c: tgt.Peer.Connect(80), req: requests[rng.Intn(len(requests))]})
		}
		tgt.Step()
		tgt.Peer.Pump()
		checkOrder(t, srv, fmt.Sprintf("step %d", step))
		live := clients[:0]
		for _, cl := range clients {
			switch {
			case cl.c.FinRcvd:
				cl.c.Close()
				continue
			case cl.c.Established && !cl.sent:
				cl.sent = true
				if cl.req == "" {
					cl.c.Close()
					continue
				}
				cl.c.Send([]byte(cl.req))
			case cl.sent && strings.Contains(cl.req, "Host: x") && rng.Intn(8) == 0 &&
				bytes.Count(cl.c.Received(), []byte("HTTP/1.1 200")) > 0:
				cl.c.DropReceived()
				cl.c.Send([]byte(cl.req)) // the keep-alive connection's next request
			}
			live = append(live, cl)
		}
		clients = live
	}
	if srv.Shed429 == 0 || srv.Errors503 == 0 || srv.Requests < 50 {
		t.Errorf("the churn missed a path: %d shed at admission, %d degraded, %d served",
			srv.Shed429, srv.Errors503, srv.Requests)
	}
	// Drain: every connection the clients gave up on goes, and the list ends empty.
	for _, cl := range clients {
		cl.c.Close()
	}
	for i := 0; i < 2000 && srv.Conns() > 0; i++ {
		tgt.Step()
		tgt.Peer.Pump()
		checkOrder(t, srv, "drain")
	}
	if srv.Conns() != 0 {
		t.Fatalf("%d connections listed after every client closed", srv.Conns())
	}

	// The cap: a keep-alive client that sends its next request as each
	// response completes is answered Connection: close on the 100th. A
	// cold restart of RAMFS under the chaos may have lost the file.
	if err := tgt.PutFile("/f", body(3000)); err != nil {
		t.Fatal(err)
	}
	ka := tgt.Peer.Connect(80)
	sent, responses := false, 0
	for i := 0; i < 20_000 && !ka.FinRcvd; i++ {
		tgt.Step()
		tgt.Peer.Pump()
		checkOrder(t, srv, "keep-alive to the cap")
		r := ka.Received()
		switch head := bytes.Index(r, []byte("\r\n\r\n")); {
		case ka.Established && !sent:
			sent = true
			ka.Send([]byte(requests[1]))
		case head >= 0 && len(r) >= head+4+3000:
			responses++
			if closing := bytes.Contains(r[:head], []byte("Connection: close")); closing != (responses == 100) {
				t.Fatalf("response %d: Connection: close is %v", responses, closing)
			}
			ka.DropReceived()
			if responses < 100 {
				ka.Send([]byte(requests[1]))
			}
		}
	}
	ka.Close()
	for i := 0; i < 2000 && srv.Conns() > 0; i++ {
		tgt.Step()
		tgt.Peer.Pump()
		checkOrder(t, srv, "after the cap")
	}
	if responses != 100 || srv.Conns() != 0 {
		t.Fatalf("keep-alive client got %d responses, %d connections listed after its close", responses, srv.Conns())
	}

	// A restore starts from no connection at all.
	blob, err := srv.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.AddConnFD(77)
	if err := srv.Restore(nil, blob); err != nil {
		t.Fatal(err)
	}
	if fds := checkOrder(t, srv, "restore"); len(fds) != 0 {
		t.Fatalf("restore kept connections %v", fds)
	}
}

// TestStepSkipsConnectionClosedEarlierInTheStep: connection k's advance
// closes connection k+1, which has a complete request waiting; the same
// step must pass k+1 by, not advance a connection whose buffers are freed.
func TestStepSkipsConnectionClosedEarlierInTheStep(t *testing.T) {
	tgt, err := siege.NewTargetOpts(siege.Options{Mode: cubicle.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/f", body(100)); err != nil {
		t.Fatal(err)
	}
	srv := tgt.Srv
	a, b := tgt.Peer.Connect(80), tgt.Peer.Connect(80)
	for i := 0; i < 1000 && srv.Conns() < 2; i++ {
		tgt.Step()
		tgt.Peer.Pump()
	}
	fds := checkOrder(t, srv, "both accepted")
	if len(fds) != 2 {
		t.Fatalf("accepted %v, want two connections", fds)
	}
	// k's vfs_open, the first of the step, runs inside k's advance.
	closed := false
	srv.VFS().Wrap(func(name string, inner vfscore.Caller) vfscore.Caller {
		if name != "vfs_open" {
			return inner
		}
		return callerFunc(func(e *cubicle.Env, args ...uint64) []uint64 {
			if !closed {
				srv.CloseConnFD(e, fds[1])
				closed = true
			}
			return inner.Call(e, args...)
		})
	})
	a.Send([]byte("GET /f HTTP/1.0\r\n\r\n"))
	b.Send([]byte("GET /f HTTP/1.0\r\n\r\n"))
	served := srv.Requests
	for i := 0; i < 1000 && !(a.FinRcvd && b.FinRcvd); i++ {
		tgt.Step()
		tgt.Peer.Pump()
		checkOrder(t, srv, "after the close")
	}
	if !closed || !a.FinRcvd || !b.FinRcvd {
		t.Fatalf("closed=%v, FIN received: k %v, k+1 %v", closed, a.FinRcvd, b.FinRcvd)
	}
	if !bytes.HasSuffix(a.Received(), body(100)) {
		t.Errorf("k's response: %q", a.Received())
	}
	if len(b.Received()) != 0 || srv.Requests != served+1 || srv.Errors503 != 0 {
		t.Errorf("k+1 was advanced after its close: %d bytes answered, %d requests served, %d degraded",
			len(b.Received()), srv.Requests-served, srv.Errors503)
	}
}

// callerFunc is a vfscore.Caller made of a function.
type callerFunc func(e *cubicle.Env, args ...uint64) []uint64

func (f callerFunc) Call(e *cubicle.Env, args ...uint64) []uint64 { return f(e, args...) }
