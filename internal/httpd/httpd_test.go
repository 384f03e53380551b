package httpd_test

import (
	"bytes"
	"strings"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/httpd"
	"cubicleos/internal/lwip"
	"cubicleos/internal/netdev"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/siege"
	"cubicleos/internal/ualloc"
	"cubicleos/internal/uktime"
	"cubicleos/internal/vfscore"
)

func body(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}

func mustTarget(t *testing.T, mode cubicle.Mode) *siege.Target {
	t.Helper()
	tgt, err := siege.NewTarget(mode)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func TestServeSmallFile(t *testing.T) {
	for _, mode := range []cubicle.Mode{cubicle.ModeUnikraft, cubicle.ModeFull} {
		t.Run(mode.String(), func(t *testing.T) {
			tgt := mustTarget(t, mode)
			want := body(1000)
			if err := tgt.PutFile("/index.html", want); err != nil {
				t.Fatal(err)
			}
			res, err := tgt.Fetch("/index.html")
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != 200 {
				t.Fatalf("status %d", res.Status)
			}
			if !bytes.Equal(res.Body, want) {
				t.Fatalf("body mismatch: got %d bytes, want %d", len(res.Body), len(want))
			}
			if res.Cycles == 0 && mode != cubicle.ModeUnikraft {
				t.Error("request consumed no cycles")
			}
			if tgt.Srv.Requests != 1 {
				t.Errorf("requests = %d", tgt.Srv.Requests)
			}
		})
	}
}

func TestServeLargeFileAcrossSendBuffer(t *testing.T) {
	tgt := mustTarget(t, cubicle.ModeFull)
	want := body(2 << 20) // 2 MiB > 1 MiB LWIP send buffer
	if err := tgt.PutFile("/big.bin", want); err != nil {
		t.Fatal(err)
	}
	res, err := tgt.Fetch("/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || !bytes.Equal(res.Body, want) {
		t.Fatalf("large transfer corrupt: status=%d len=%d", res.Status, len(res.Body))
	}
}

func TestNotFound(t *testing.T) {
	tgt := mustTarget(t, cubicle.ModeFull)
	if err := tgt.PutFile("/exists", []byte("x")); err != nil {
		t.Fatal(err)
	}
	res, err := tgt.Fetch("/missing")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 404 {
		t.Fatalf("status %d, want 404", res.Status)
	}
}

func TestBadRequest(t *testing.T) {
	tgt := mustTarget(t, cubicle.ModeFull)
	conn := tgt.Peer.Connect(80)
	step := tgt.Sys.M.MustResolve(cubicle.MonitorID, httpd.Name, "nginx_step")
	sent := false
	for i := 0; i < 100000 && !conn.FinRcvd; i++ {
		step.Call(tgt.Sys.Env)
		tgt.Peer.Pump()
		if conn.Established && !sent {
			conn.Send([]byte("POST /x HTTP/1.0\r\n\r\n"))
			sent = true
		}
	}
	if !strings.Contains(string(conn.Received()), "400 Bad Request") {
		t.Fatalf("response %q", string(conn.Received()))
	}
}

func TestSequentialRequests(t *testing.T) {
	tgt := mustTarget(t, cubicle.ModeFull)
	for i, name := range []string{"/a", "/b", "/c"} {
		if err := tgt.PutFile(name, body(100*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range []string{"/a", "/b", "/c", "/a"} {
		res, err := tgt.Fetch(name)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if res.Status != 200 {
			t.Fatalf("request %d: status %d", i, res.Status)
		}
	}
	if tgt.Srv.Requests != 4 {
		t.Errorf("requests = %d", tgt.Srv.Requests)
	}
	// Access log went through PLAT.
	if !strings.Contains(tgt.Sys.Plat.ConsoleOutput(), "GET /a 200") {
		t.Errorf("access log missing: %q", tgt.Sys.Plat.ConsoleOutput())
	}
}

// TestFigure5Edges checks the deployment produces the call graph of
// Figure 5: NGINX talks to LWIP, VFSCORE, TIME and PLAT; LWIP to NETDEV;
// VFSCORE to RAMFS; and ALLOC is called by many cubicles.
func TestFigure5Edges(t *testing.T) {
	tgt := mustTarget(t, cubicle.ModeFull)
	if err := tgt.PutFile("/f", body(64<<10)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := tgt.Fetch("/f"); err != nil {
			t.Fatal(err)
		}
	}
	sys := tgt.Sys
	id := func(name string) cubicle.ID { return sys.Cubs[name].ID }
	calls := sys.M.Stats.Calls
	for _, edge := range []struct {
		from, to string
	}{
		{httpd.Name, lwip.Name},
		{httpd.Name, vfscore.Name},
		{httpd.Name, uktime.Name},
		{httpd.Name, "PLAT"},
		{lwip.Name, netdev.Name},
		{vfscore.Name, ramfs.Name},
		{httpd.Name, "ALLOC"},
		{lwip.Name, "ALLOC"},
		{ramfs.Name, "ALLOC"},
	} {
		if calls[cubicle.Edge{From: id(edge.from), To: id(edge.to)}] == 0 {
			t.Errorf("missing Figure 5 edge %s -> %s", edge.from, edge.to)
		}
	}
	// ALLOC must be among the hottest callees, as in Figure 5.
	allocIn := uint64(0)
	for e, n := range calls {
		if e.To == id("ALLOC") {
			allocIn += n
		}
	}
	if allocIn < 10 {
		t.Errorf("ALLOC only received %d calls", allocIn)
	}
}

// TestModeOverheadNginx: CubicleOS must cost more cycles than baseline
// Unikraft for the same request — the Figure 7 overhead.
func TestModeOverheadNginx(t *testing.T) {
	cyclesFor := func(mode cubicle.Mode) uint64 {
		tgt := mustTarget(t, mode)
		if err := tgt.PutFile("/f", body(256<<10)); err != nil {
			t.Fatal(err)
		}
		res, err := tgt.Fetch("/f")
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	base := cyclesFor(cubicle.ModeUnikraft)
	full := cyclesFor(cubicle.ModeFull)
	if full <= base {
		t.Fatalf("CubicleOS (%d cycles) not slower than Unikraft (%d)", full, base)
	}
	ratio := float64(full) / float64(base)
	if ratio < 1.1 || ratio > 20 {
		t.Errorf("overhead ratio %.2f out of plausible range", ratio)
	}
	_ = ualloc.Name
}

// TestConcurrentConnections interleaves several connections through the
// server's per-connection state machines.
func TestConcurrentConnections(t *testing.T) {
	tgt := mustTarget(t, cubicle.ModeFull)
	sizes := map[string]int{"/a": 2 << 10, "/b": 100 << 10, "/c": 700}
	var paths []string
	for name, n := range sizes {
		if err := tgt.PutFile(name, body(n)); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, name, name) // two connections per file
	}
	// All requests at once over separate connections (siege's -c), the
	// server stepped until every response has closed.
	conns := make([]*lwip.PeerConn, len(paths))
	for i := range paths {
		conns[i] = tgt.Peer.Connect(80)
	}
	sent := make([]bool, len(paths))
	for iter, open := 0, len(paths); open > 0; iter++ {
		if iter == 100000 {
			t.Fatalf("%d of %d concurrent requests did not complete", open, len(paths))
		}
		tgt.Step()
		tgt.Peer.Pump()
		open = 0
		for i, c := range conns {
			if c.Established && !sent[i] {
				c.Send([]byte("GET " + paths[i] + " HTTP/1.0\r\nHost: cubicle\r\n\r\n"))
				sent[i] = true
			}
			if !c.FinRcvd {
				open++
			}
		}
	}
	for i, c := range conns {
		head, got, _ := bytes.Cut(c.Received(), []byte("\r\n\r\n"))
		want := sizes[paths[i]]
		if !bytes.HasPrefix(head, []byte("HTTP/1.0 200 ")) || len(got) != want {
			t.Errorf("request %d (%s): head %q, %d bytes (want %d)", i, paths[i], head, len(got), want)
		}
		if !bytes.Equal(got, body(want)) {
			t.Errorf("request %d (%s): body corrupted under concurrency", i, paths[i])
		}
	}
	if tgt.Srv.Requests != uint64(len(paths)) {
		t.Errorf("served %d requests, want %d", tgt.Srv.Requests, len(paths))
	}
}

func TestHeadRequest(t *testing.T) {
	tgt := mustTarget(t, cubicle.ModeFull)
	if err := tgt.PutFile("/doc", body(5000)); err != nil {
		t.Fatal(err)
	}
	conn := tgt.Peer.Connect(80)
	step := tgt.Sys.M.MustResolve(cubicle.MonitorID, httpd.Name, "nginx_step")
	sent := false
	for i := 0; i < 100000 && !conn.FinRcvd; i++ {
		step.Call(tgt.Sys.Env)
		tgt.Peer.Pump()
		if conn.Established && !sent {
			conn.Send([]byte("HEAD /doc HTTP/1.0\r\n\r\n"))
			sent = true
		}
	}
	raw := string(conn.Received())
	head, rest, _ := strings.Cut(raw, "\r\n\r\n")
	if !strings.Contains(head, "200 OK") || !strings.Contains(head, "Content-Length: 5000") {
		t.Fatalf("HEAD response head: %q", head)
	}
	if rest != "" {
		t.Fatalf("HEAD response carried a %d-byte body", len(rest))
	}
}

// TestHalfCloseAfterPartialRequest: a client that sends part of a request
// head and then closes its side will never finish the request. The server
// closes the connection, as it does for a client that closes before
// sending anything, instead of holding it open.
func TestHalfCloseAfterPartialRequest(t *testing.T) {
	tgt := mustTarget(t, cubicle.ModeFull)
	conn := tgt.Peer.Connect(80)
	for i := 0; i < 200 && !conn.Established; i++ {
		tgt.Step()
		tgt.Peer.Pump()
	}
	if !conn.Established {
		t.Fatal("the connection never established")
	}
	conn.Send([]byte("GET /index.html HT"))
	conn.Close()
	for i := 0; i < 200 && !conn.FinRcvd; i++ {
		tgt.Step()
		tgt.Peer.Pump()
	}
	if !conn.FinRcvd {
		t.Error("the server sent no FIN after the client half-closed mid-request")
	}
	if n := tgt.Srv.Conns(); n != 0 {
		t.Errorf("server holds %d connections after the client half-closed mid-request, want 0", n)
	}
}
