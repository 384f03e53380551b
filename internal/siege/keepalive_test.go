package siege

import (
	"bytes"
	"hash/crc32"
	"strings"
	"testing"

	"cubicleos/internal/cubicle"
)

// mustTarget boots a default deployment in the given mode.
func mustTarget(t *testing.T, mode cubicle.Mode) *Target {
	t.Helper()
	tg, err := NewTarget(mode)
	if err != nil {
		t.Fatal(err)
	}
	return tg
}

// drive steps the server and pumps the peer — what benchmark/ itself
// does — until done reports true, failing the test at the step bound.
func drive(t *testing.T, tg *Target, what string, done func() bool) {
	t.Helper()
	for i := 0; i < 2_000_000; i++ {
		if done() {
			return
		}
		tg.Step()
		tg.Peer.Pump()
	}
	t.Fatalf("%s: not within the step bound", what)
}

// fetchKA issues GET path over the keep-alive connection (waiting out the
// handshake on a fresh one) and drives the system to the response.
func fetchKA(t *testing.T, tg *Target, k *KAConn, path string) *KAResponse {
	t.Helper()
	drive(t, tg, "handshake", func() bool { return k.Conn.Established })
	k.Request(path)
	var r *KAResponse
	drive(t, tg, "GET "+path, func() bool {
		var err error
		if r, err = k.Next(); err != nil {
			t.Fatal(err)
		}
		return r != nil
	})
	return r
}

// requestClose sends GET path as HTTP/1.1 with Connection: close — the
// polite way to retire the connection after this response.
func requestClose(k *KAConn, path string) {
	k.Conn.Send([]byte("GET " + path + " HTTP/1.1\r\nHost: cubicle\r\nConnection: close\r\n\r\n"))
}

// TestKeepAliveReusesConnection drives several requests over one
// connection and checks each response is framed and answered correctly.
func TestKeepAliveReusesConnection(t *testing.T) {
	tg := mustTarget(t, cubicle.ModeFull)
	body := bytes.Repeat([]byte("ka"), 2048)
	if err := tg.PutFile("/ka.html", body); err != nil {
		t.Fatal(err)
	}
	k := tg.OpenKA()
	served := 0
	for i := 0; i < 5; i++ {
		r := fetchKA(t, tg, k, "/ka.html")
		if r.Status != 200 || !bytes.Equal(r.Body, body) {
			t.Fatalf("request %d: status %d, body %d bytes", i, r.Status, len(r.Body))
		}
		if r.Close {
			t.Fatalf("request %d: server closed a keep-alive exchange early", i)
		}
		served++
	}
	if served != 5 {
		t.Fatalf("served %d responses on one connection, want 5", served)
	}
	if k.Conn.FinRcvd {
		t.Fatal("server closed the connection despite keep-alive")
	}
	// Missing files keep the connection too: errors are per-request.
	r := fetchKA(t, tg, k, "/nope.html")
	if r.Status != 404 || r.Close {
		t.Fatalf("missing file: status %d close %v, want 404 keep-alive", r.Status, r.Close)
	}
	// Connection: close retires it.
	requestClose(k, "/ka.html")
	var last *KAResponse
	drive(t, tg, "Connection: close answer", func() bool {
		var err error
		if last, err = k.Next(); err != nil {
			t.Fatal(err)
		}
		return last != nil
	})
	if last.Status != 200 || !last.Close {
		t.Fatalf("Connection: close answer = %+v, want 200 with close", last)
	}
	drive(t, tg, "close after Connection: close", func() bool { return k.Conn.FinRcvd })
}

// TestKeepAliveHostileContentLength: the server is the system under test
// and under chaos its bytes are not trusted, so a Content-Length that the
// receive buffer cannot hold must read as "need more" or a typed error —
// never reach a slice bound. (hdrEnd + 4 + clen used to wrap negative near
// MaxInt64, pass the length guard and panic in make.) Each hostile header
// is served as a file body, then read again as if it were the server's
// own framing.
func TestKeepAliveHostileContentLength(t *testing.T) {
	tg := mustTarget(t, cubicle.ModeFull)
	k := tg.OpenKA()
	for _, clen := range []string{"9223372036854775807", "9223372036854775000", "99999999999999999999", "-1", "12x"} {
		head := "HTTP/1.1 200 OK\r\nContent-Length: " + clen + "\r\n\r\n"
		if err := tg.PutFile("/hostile", []byte(head)); err != nil {
			t.Fatal(err)
		}
		if r := fetchKA(t, tg, k, "/hostile"); string(r.Body) != head {
			t.Fatalf("Content-Length %s: served %q", clen, r.Body)
		}
		hostile := &KAConn{Conn: k.Conn, off: k.off - len(head)}
		r, err := hostile.Next()
		if r != nil {
			t.Errorf("Content-Length %s: framed a %d-byte body out of a bare header", clen, len(r.Body))
		}
		t.Logf("Content-Length %s: %v", clen, err)
	}
}

// TestKeepAlivePipelining sends two requests back to back in one write;
// both responses must come back in order on the same connection, the
// second parsed straight from buffered bytes without another Recv.
func TestKeepAlivePipelining(t *testing.T) {
	tg := mustTarget(t, cubicle.ModeFull)
	if err := tg.PutFile("/a.html", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := tg.PutFile("/b.html", []byte("bravo")); err != nil {
		t.Fatal(err)
	}
	k := tg.OpenKA()
	drive(t, tg, "handshake", func() bool { return k.Conn.Established })
	k.Request("/a.html")
	k.Request("/b.html")
	var got []string // copies: a body dies at the next Next on its connection
	drive(t, tg, "two pipelined responses", func() bool {
		for {
			r, err := k.Next()
			if err != nil {
				t.Fatal(err)
			}
			if r == nil {
				return len(got) == 2
			}
			got = append(got, string(r.Body))
		}
	})
	if got[0] != "alpha" || got[1] != "bravo" {
		t.Fatalf("pipelined bodies out of order: %q, %q", got[0], got[1])
	}
}

// TestKeepAliveBufferStaysOneResponse: a pooled connection restarts its
// receive buffer once a response has been parsed, so after the server's
// cap of 100 requests it holds room for one or two responses, not for all
// hundred (≈ 440 KiB a connection, before).
func TestKeepAliveBufferStaysOneResponse(t *testing.T) {
	tg := mustTarget(t, cubicle.ModeFull)
	paths, sums := seededFiles(t, tg, 1, 4<<10)
	k := tg.OpenKA()
	one := 0 // a response's length, header included
	for i := 0; i < 100; i++ {
		r := fetchKA(t, tg, k, paths[0])
		if r.Status != 200 || crc32.ChecksumIEEE(r.Body) != sums[0] {
			t.Fatalf("request %d: status %d, %d-byte body", i, r.Status, len(r.Body))
		}
		if i == 0 {
			one = k.Conn.ReceivedLen()
		}
	}
	if got := cap(k.Conn.Received()); got > 2*one {
		t.Errorf("after 100 responses of %d bytes the connection's buffer holds %d", one, got)
	}
}

// TestKeepAliveRequestCap: the server forces Connection: close once a
// connection has served its cap of 100 responses (nginx's
// keepalive_requests default).
func TestKeepAliveRequestCap(t *testing.T) {
	tg := mustTarget(t, cubicle.ModeFull)
	if err := tg.PutFile("/c.html", []byte("cap")); err != nil {
		t.Fatal(err)
	}
	k := tg.OpenKA()
	for i := 0; i < 100; i++ {
		r := fetchKA(t, tg, k, "/c.html")
		wantClose := i == 99
		if r.Status != 200 || r.Close != wantClose {
			t.Fatalf("request %d: status %d close %v, want 200 close=%v", i, r.Status, r.Close, wantClose)
		}
	}
	drive(t, tg, "close at the requests-per-conn cap", func() bool { return k.Conn.FinRcvd })
}

// TestHTTP10StaysByteIdentical: a plain HTTP/1.0 request must get the
// pre-keep-alive response bytes — no Connection header — and a close.
// The golden-figure determinism gates depend on this.
func TestHTTP10StaysByteIdentical(t *testing.T) {
	tg := mustTarget(t, cubicle.ModeFull)
	if err := tg.PutFile("/ten.html", []byte("ten")); err != nil {
		t.Fatal(err)
	}
	r, err := tg.Fetch("/ten.html")
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != 200 {
		t.Fatalf("status %d", r.Status)
	}
	// Re-fetch raw to inspect the header bytes.
	conn := tg.Peer.Connect(80)
	drive(t, tg, "handshake", func() bool { return conn.Established })
	conn.Send([]byte("GET /ten.html HTTP/1.0\r\nHost: cubicle\r\n\r\n"))
	drive(t, tg, "HTTP/1.0 close", func() bool { return conn.FinRcvd })
	raw := string(conn.Received())
	want := "HTTP/1.0 200 OK\r\nServer: cubicle-nginx\r\nContent-Length: 3\r\n\r\nten"
	if raw != want {
		t.Fatalf("HTTP/1.0 response changed:\n got %q\nwant %q", raw, want)
	}
	// An HTTP/1.0 client may still opt in to keep-alive explicitly.
	conn2 := tg.Peer.Connect(80)
	drive(t, tg, "handshake", func() bool { return conn2.Established })
	conn2.Send([]byte("GET /ten.html HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"))
	drive(t, tg, "HTTP/1.0 keep-alive answer", func() bool { return bytes.Contains(conn2.Received(), []byte("ten")) })
	raw2 := string(conn2.Received())
	if !strings.Contains(raw2, "Connection: keep-alive\r\n") {
		t.Fatalf("HTTP/1.0 keep-alive opt-in not honoured: %.120q", raw2)
	}
	if conn2.FinRcvd {
		t.Fatal("server closed an HTTP/1.0 keep-alive connection")
	}
}

// TestKeepAliveChurnStaysBounded is the leak regression riding on the
// keep-alive path: thousands of requests over a churn of short keep-alive
// connections must not grow ALLOC's arena, because LwipReapClosed still
// reclaims each retired socket's ~1.1 MiB of buffers.
func TestKeepAliveChurnStaysBounded(t *testing.T) {
	tg, err := NewTargetOpts(Options{Mode: cubicle.ModeFull, ReapClosed: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.PutFile("/churn.html", []byte("churn")); err != nil {
		t.Fatal(err)
	}
	var after10 uint64
	for i := 0; i < 40; i++ {
		k := tg.OpenKA()
		for j := 0; j < 5; j++ {
			fetchKA(t, tg, k, "/churn.html")
		}
		requestClose(k, "/churn.html")
		drive(t, tg, "retire", func() bool { return k.Conn.FinRcvd })
		if i == 9 {
			after10 = tg.Sys.Alloc.TotalArenaBytes()
		}
	}
	after40 := tg.Sys.Alloc.TotalArenaBytes()
	if after40 > after10 {
		t.Fatalf("arena grew under keep-alive churn: %d B after 10 conns, %d B after 40", after10, after40)
	}
	if tg.Sys.Lwip.Reaped < 30 {
		t.Fatalf("only %d sockets reaped, want >= 30", tg.Sys.Lwip.Reaped)
	}
}
