package httpd_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/httpd"
	"cubicleos/internal/siege"
)

// refScanHead is the request-head parse as it was written with package
// strings: the reference scanHead is held to, field for field.
func refScanHead(head string) (method, path string, http11, keepAlive bool) {
	line, _, _ := strings.Cut(head, "\r\n")
	fields := strings.Fields(line)
	http11 = len(fields) >= 3 && fields[2] == "HTTP/1.1"
	directive := ""
	for _, l := range strings.Split(head, "\r\n")[1:] {
		k, v, ok := strings.Cut(l, ":")
		if ok && strings.EqualFold(strings.TrimSpace(k), "Connection") {
			directive = strings.ToLower(strings.TrimSpace(v))
			break
		}
	}
	switch directive {
	case "close":
		keepAlive = false
	case "keep-alive":
		keepAlive = true
	default:
		keepAlive = http11
	}
	if len(fields) > 0 {
		method = fields[0]
	}
	if len(fields) > 1 {
		path = fields[1]
	}
	return method, path, http11, keepAlive
}

func TestScanHeadMatchesStringsReference(t *testing.T) {
	heads := []string{
		"GET / HTTP/1.0",
		"GET /f HTTP/1.1\r\nHost: x",
		"GET /f HTTP/1.1\r\nHost: x\r\nConnection: close",
		"GET /f HTTP/1.0\r\nconnection :  Keep-Alive  ",
		"HEAD /f HTTP/1.1\r\nCONNECTION:CLOSE\r\nConnection: keep-alive",
		"GET /f HTTP/1.1\r\nConnection: clo\u017fe",      // long s folds to s, does not lower to it
		"GET /f HTTP/1.0\r\nConnection: \u212aeep-alive", // the Kelvin sign lowers to k
		"GET /f HTTP/1.1\r\nConnection close\r\nX: Connection: close",
		"GET\t/f\vHTTP/1.1 extra",
		"GET /fHTTP/1.1",
		"  GET   /f  ",
		"GET",
		"",
		"\r\nConnection: close",
		"GET /\xff\xfe HTTP/1.1\r\nConnection: \xffclose",
	}
	// Every head again under two thousand seeded splices of the bytes the
	// parse is sensitive to.
	rng := rand.New(rand.NewSource(23))
	bits := []string{" ", "\t", "\r\n", ":", "Connection", "close", "keep-alive", "HTTP/1.1", "\u017f", "\xff", "\r", "\n", "\u00a0", "\u0085"}
	for i := 0; i < 2000; i++ {
		h := heads[rng.Intn(len(heads))]
		at := rng.Intn(len(h) + 1)
		heads = append(heads, h[:at]+bits[rng.Intn(len(bits))]+h[at:])
	}
	for _, h := range heads {
		m, p, v, k := httpd.ScanHead([]byte(h))
		rm, rp, rv, rk := refScanHead(h)
		if string(m) != rm || string(p) != rp || v != rv || k != rk {
			t.Errorf("head %q: got %q %q http11=%v keepAlive=%v, the reference %q %q %v %v", h, m, p, v, k, rm, rp, rv, rk)
		}
	}
}

func TestLogLineMatchesFmtReference(t *testing.T) {
	for _, c := range []struct {
		sec    uint64
		path   string
		status int
		size   uint64
	}{
		{0, "/index.html", 200, 4096},
		{1 << 40, "", 400, 0},
		{7, "/a b%20c", 404, 10},
		{^uint64(0), "/big", 503, ^uint64(0)},
	} {
		want := fmt.Sprintf("%d GET %s %d %d\n", c.sec, c.path, c.status, c.size)
		if got := httpd.LogLine(c.sec, c.path, c.status, c.size); string(got) != want {
			t.Errorf("log line %q, want %q", got, want)
		}
	}
}

// TestResponseHeadsMatchFmtReference sends one request of every kind and
// compares the head on the wire, and the access-log line it leaves, with
// what the fmt-built formats give: the head's length feeds lwip.Send and so
// the virtual clock, so it may not move by a byte.
func TestResponseHeadsMatchFmtReference(t *testing.T) {
	tgt, err := siege.NewTargetOpts(siege.Options{Mode: cubicle.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/f", body(4321)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, request string
		proto, status string
		extra         string // the Connection line
		length        int
		logPath       string
		logSize       int
	}{
		{"1.0", "GET /f HTTP/1.0\r\n\r\n", "HTTP/1.0", "200 OK", "", 4321, "/f", 4321},
		{"1.0 keep-alive", "GET /f HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", "HTTP/1.0", "200 OK", "Connection: keep-alive\r\n", 4321, "/f", 4321},
		{"1.1", "GET /f HTTP/1.1\r\nHost: x\r\n\r\n", "HTTP/1.1", "200 OK", "Connection: keep-alive\r\n", 4321, "/f", 4321},
		{"1.1 close", "GET /f HTTP/1.1\r\nConnection: close\r\n\r\n", "HTTP/1.1", "200 OK", "Connection: close\r\n", 4321, "/f", 4321},
		{"HEAD", "HEAD /f HTTP/1.1\r\nConnection: close\r\n\r\n", "HTTP/1.1", "200 OK", "Connection: close\r\n", 4321, "/f", 0},
		{"404", "GET /none HTTP/1.1\r\nConnection: close\r\n\r\n", "HTTP/1.1", "404 Not Found", "Connection: close\r\n", len("not found\n"), "/none", 0},
		{"400", "PUT /f HTTP/1.1\r\n\r\n", "HTTP/1.1", "400 Bad Request", "Connection: close\r\n", len("bad request\n"), "", 0},
	} {
		logged := len(tgt.Sys.Plat.ConsoleOutput())
		conn := tgt.Peer.Connect(80)
		sent := false
		var head []byte
		for i := 0; i < 100000 && head == nil; i++ {
			tgt.Step()
			tgt.Peer.Pump()
			if conn.Established && !sent {
				conn.Send([]byte(c.request))
				sent = true
			}
			if h, _, ok := bytes.Cut(conn.Received(), []byte("\r\n\r\n")); ok {
				head = conn.Received()[:len(h)+4]
			}
		}
		want := fmt.Sprintf("%s %s\r\nServer: cubicle-nginx\r\n%sContent-Length: %d\r\n\r\n", c.proto, c.status, c.extra, c.length)
		if string(head) != want {
			t.Errorf("%s: head %q, want %q", c.name, head, want)
		}
		var status int
		fmt.Sscanf(c.status, "%d", &status)
		var line string
		for i := 0; i < 1000 && line == ""; i++ {
			tgt.Step()
			tgt.Peer.Pump()
			line = tgt.Sys.Plat.ConsoleOutput()[logged:]
		}
		var sec uint64
		fmt.Sscanf(line, "%d", &sec)
		if wantLine := fmt.Sprintf("%d GET %s %d %d\n", sec, c.logPath, status, c.logSize); line != wantLine {
			t.Errorf("%s: access log %q, want %q", c.name, line, wantLine)
		}
		conn.Close()
		for i := 0; i < 1000 && tgt.Srv.Conns() > 0; i++ {
			tgt.Step()
			tgt.Peer.Pump()
		}
	}
}
