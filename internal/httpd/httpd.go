// Package httpd is the NGINX stand-in of the paper's I/O-intensive
// evaluation (§6.3): an event-driven HTTP/1.0 static-file server running
// entirely on the library OS stack. Its deployment reproduces the eight
// isolated cubicles of Figure 5 — NGINX, LWIP, NETDEV, VFSCORE, RAMFS,
// PLAT, ALLOC and TIME — with newlibc and the random device shared.
//
// Per request the server crosses into LWIP for socket I/O, VFSCORE/RAMFS
// for the file, TIME for the log timestamp and PLAT for the access log;
// in the NGINX deployment every buffer comes from ALLOC, which is what
// makes ALLOC the hottest cubicle in Figure 5.
package httpd

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/lwip"
	"cubicleos/internal/plat"
	"cubicleos/internal/spare"
	"cubicleos/internal/ualloc"
	"cubicleos/internal/uktime"
	"cubicleos/internal/vfscore"
	"cubicleos/internal/vm"
)

// Name of the component in deployments.
const Name = "NGINX"

// Buffer sizes.
const (
	reqBufSize  = 4096
	ioBufSize   = 32 << 10
	logBufSize  = 512
	shedBufSize = 256
)

// parseWork models request-line parsing and header handling.
const parseWork = 900

// maxConnRequests caps responses served over one keep-alive connection
// before the server answers Connection: close and recycles it (nginx's
// keepalive_requests default): long-lived connections must still cycle so
// per-connection state cannot accrete forever. HTTP/1.0 connections
// without keep-alive close after one response anyway.
const maxConnRequests = 100

// connState is the per-connection state machine.
type connState int

const (
	stReadRequest connState = iota
	stServe
	stDone
)

// conn is one HTTP connection.
type conn struct {
	fd       uint64
	state    connState
	req      []byte // request bytes accumulated so far (bookkeeping copy)
	reqBuf   vm.Addr
	ioBuf    vm.Addr
	fileFD   uint64
	size     uint64
	sent     uint64 // body bytes handed to LWIP
	pending  uint64 // bytes in ioBuf not yet accepted by LWIP
	pendOff  uint64
	hdrDone  bool
	headOnly bool   // HEAD request: headers only
	path     []byte // the request's path, copied out of req
	status   int
	wrote    uint64 // response bytes accepted by LWIP (headers included)
	// http11 records the request's protocol version; keepAlive whether
	// the connection persists after the current response (HTTP/1.1
	// default, overridable per request via the Connection header);
	// served counts responses completed on this connection so the
	// requests-per-conn cap can force a close.
	http11    bool
	keepAlive bool
	served    int
	// closed is set when the connection leaves Server.conns, so the step
	// that is walking a snapshot of the list skips it.
	closed bool
}

// proto is the response protocol version, echoing the request's.
func (c *conn) proto() string {
	if c.http11 {
		return "HTTP/1.1"
	}
	return "HTTP/1.0"
}

// connHeader is the Connection response header for the current request —
// empty on the legacy HTTP/1.0 close path so pre-keep-alive responses
// stay byte-identical (the golden figures depend on it).
func (c *conn) connHeader() string {
	if c.keepAlive {
		return "Connection: keep-alive\r\n"
	}
	if c.http11 {
		return "Connection: close\r\n"
	}
	return ""
}

// Governance configures the server's overload protection. The zero value
// disables every mechanism, which is the ungoverned seed behaviour.
type Governance struct {
	// MaxConns is the admission limit on concurrent connections; beyond
	// it new connections are shed with 429 (0 = unbounded).
	MaxConns int
	// RetryAfter is the whole-second hint advertised in the Retry-After
	// header of shed responses.
	RetryAfter uint64
	// Retry bounds re-attempts of a connection's set-up while ALLOC is
	// quarantined (zero value = single attempt, no backoff).
	Retry cubicle.RetryPolicy
}

// Server is the NGINX component state.
type Server struct {
	lwip  *lwip.Client
	vfs   *vfscore.Client
	time  *uktime.Client
	plat  *plat.Client
	alloc *ualloc.Client

	lwipID, vfsID, ramfsID, platID cubicle.ID

	port uint16
	lfd  uint64
	// conns holds the live connections in ascending fd order, which is the
	// order step advances them in: the order decides which connection's
	// crossing pays a trap or finds a buffer free, so it has to be the same
	// on every run. addConn and dropConn are its only writers. order is
	// step's scratch copy of it.
	conns []*conn
	order []*conn
	// spareConns holds dropped connections for newConn to reuse.
	spareConns spare.List[conn]
	logBuf     vm.Addr
	shedBuf    vm.Addr
	gov        Governance
	// scratch is where response heads and access-log lines are formatted
	// before e.Write copies them into simulated memory.
	scratch []byte

	// Requests counts completed requests.
	Requests uint64
	// Errors503 counts connections degraded with 503 (or truncated)
	// because a handler crossing hit a contained fault.
	Errors503 uint64
	// Shed429 counts connections refused at admission (MaxConns).
	Shed429 uint64
	inited  bool
}

// New creates the server; deployment wiring must call SetDeps.
func New(port uint16) *Server {
	return &Server{port: port}
}

// SetGovernance installs overload-protection limits. Call before the
// first step; the zero value switches everything off.
func (s *Server) SetGovernance(g Governance) { s.gov = g }

// Conns returns the number of live connections (admission-control gauge).
func (s *Server) Conns() int { return len(s.conns) }

// SetDeps wires the server's clients, ALLOC's included, plus the
// cubicle IDs it opens windows for.
func (s *Server) SetDeps(lw *lwip.Client, vfs *vfscore.Client, tm *uktime.Client,
	pl *plat.Client, alloc *ualloc.Client, lwipID, vfsID, ramfsID, platID cubicle.ID) {
	s.lwip, s.vfs, s.time, s.plat, s.alloc = lw, vfs, tm, pl, alloc
	s.lwipID, s.vfsID, s.ramfsID, s.platID = lwipID, vfsID, ramfsID, platID
}

// initServer opens the listening socket and the shared log buffer.
func (s *Server) initServer(e *cubicle.Env) uint64 {
	if s.inited {
		return 0
	}
	s.vfs.InitBuffers(e, s.ramfsID)
	s.logBuf = s.alloc.Malloc(e, logBufSize)
	s.alloc.Share(e, s.logBuf, s.platID)
	s.lfd = s.lwip.Socket(e)
	if errno := s.lwip.Bind(e, s.lfd, s.port); errno != lwip.EOK {
		return errno
	}
	if errno := s.lwip.Listen(e, s.lfd, 64); errno != lwip.EOK {
		return errno
	}
	s.inited = true
	return 0
}

// newConn sets up per-connection buffers and their windows. If a later
// allocation faults, the earlier ones are released before the fault
// re-raises, so a shed connection leaves no arena residue behind (the
// connection itself is never listed, and is left to the collector).
func (s *Server) newConn(e *cubicle.Env, fd uint64) *conn {
	c := s.takeConn(fd)
	c.reqBuf = s.alloc.Malloc(e, reqBufSize)
	if cf := cubicle.CatchContained(func() {
		s.alloc.Share(e, c.reqBuf, s.lwipID)
		c.ioBuf = s.alloc.Malloc(e, ioBufSize)
		s.alloc.Share(e, c.ioBuf, s.lwipID)
		s.alloc.Share(e, c.ioBuf, s.vfsID)
		s.alloc.Share(e, c.ioBuf, s.ramfsID)
	}); cf != nil {
		cubicle.CatchContained(func() {
			s.alloc.Free(e, c.reqBuf)
			if c.ioBuf != 0 {
				s.alloc.Free(e, c.ioBuf)
			}
		})
		panic(cf)
	}
	return c
}

// takeConn returns connection fd without buffers: the most recently
// dropped one, reset to what a new one holds but for the capacity of its
// request and path buffers, or a new one.
func (s *Server) takeConn(fd uint64) *conn {
	c := s.spareConns.Take()
	*c = conn{fd: fd, status: 200, req: c.req[:0], path: c.path[:0]}
	return c
}

// closeConn tears down a connection and releases its buffers.
func (s *Server) closeConn(e *cubicle.Env, c *conn) {
	if c.fileFD != 0 {
		s.vfs.Close(e, c.fileFD)
		c.fileFD = 0
	}
	s.lwip.Close(e, c.fd)
	s.alloc.Free(e, c.reqBuf)
	s.alloc.Free(e, c.ioBuf)
	s.dropConn(c)
}

// connIndex returns where fd sorts in conns and whether it is there.
func (s *Server) connIndex(fd uint64) (int, bool) {
	return slices.BinarySearchFunc(s.conns, fd, func(c *conn, fd uint64) int {
		return cmp.Compare(c.fd, fd)
	})
}

// addConn lists an accepted connection. lwip's descriptors only grow, so
// the insert lands at the end; it is placed by search all the same.
func (s *Server) addConn(c *conn) {
	i, _ := s.connIndex(c.fd)
	s.conns = slices.Insert(s.conns, i, c)
}

// dropConn takes a connection off the list; it is the only place one
// leaves, and it retires the connection for newConn, which only the
// accept loop calls, before any connection is advanced: a step that
// drops a connection walks on past it (closed stays set until newConn
// resets it). Dropping twice is harmless: a close that faulted half way
// is followed by a bare drop.
func (s *Server) dropConn(c *conn) {
	if c.closed {
		return
	}
	c.closed = true
	if i, ok := s.connIndex(c.fd); ok {
		s.conns = slices.Delete(s.conns, i, i+1)
	}
	s.spareConns.Put(c)
}

// step drives the server: polls the stack, accepts connections, advances
// every connection's state machine. Returns an activity count.
//
// Every crossing out of NGINX is wrapped in CatchContained: a fault in a
// dependency cubicle degrades the affected connection (503 or truncation)
// instead of crashing the server — the paper's isolation claim turned
// into availability.
func (s *Server) step(e *cubicle.Env) uint64 {
	var activity uint64
	if cf := cubicle.CatchContained(func() {
		activity = s.lwip.Poll(e)
		for {
			fd, errno := s.lwip.Accept(e, s.lfd)
			if errno != lwip.EOK {
				break
			}
			if s.gov.MaxConns > 0 && len(s.conns) >= s.gov.MaxConns {
				// Admission control: refuse at the door while the
				// house is full instead of queueing unbounded work.
				s.shed(e, fd)
				activity++
				continue
			}
			var c *conn
			if cf := cubicle.RetryContained(e, s.gov.Retry, func() {
				c = s.newConn(e, fd)
			}); cf != nil {
				panic(cf) // the outer catch backs off
			}
			s.addConn(c)
			activity++
		}
	}); cf != nil {
		// The network stack itself is unavailable this tick; existing
		// connections cannot make progress either, so try again later.
		return activity
	}
	// Walk a copy: advancing a connection can drop it (or a later one) from
	// the list.
	s.order = append(s.order[:0], s.conns...)
	for _, c := range s.order {
		if c.closed {
			continue
		}
		if cf := cubicle.CatchContained(func() {
			activity += s.advance(e, c)
		}); cf != nil {
			s.fail503(e, c)
			activity++
		}
	}
	clear(s.order) // keep no closed connection alive
	return activity
}

// shed answers a connection the server refuses at the admission limit
// with 429 and a Retry-After hint, then closes it. The response goes
// through a persistent single shed buffer so refusing load never
// allocates per-connection memory.
func (s *Server) shed(e *cubicle.Env, fd uint64) {
	if s.shedBuf == 0 {
		s.shedBuf = s.alloc.Malloc(e, shedBufSize)
		s.alloc.Share(e, s.shedBuf, s.lwipID)
	}
	s.Shed429++
	body := "overloaded\n"
	resp := fmt.Sprintf("HTTP/1.0 429 Too Many Requests\r\nServer: cubicle-nginx\r\nRetry-After: %d\r\nContent-Length: %d\r\n\r\n%s",
		s.gov.RetryAfter, len(body), body)
	e.Write(s.shedBuf, []byte(resp))
	e.NoteShed("conns", 429)
	// Best effort: under wire backpressure the refusal itself may drop,
	// and the close still frees the socket.
	s.lwip.Send(e, fd, s.shedBuf, uint64(len(resp)))
	s.lwip.Close(e, fd)
}

// fail503 degrades a connection whose handler crossed into a faulted
// cubicle. If no response bytes reached the wire yet, a 503 is staged so
// the client gets an answer; once part of a 200 is out, all the server
// can do is close early (HTTP/1.0 signals truncation by the close).
func (s *Server) fail503(e *cubicle.Env, c *conn) {
	s.Errors503++
	// A degraded connection never persists: whatever request framing the
	// fault interrupted is lost.
	c.keepAlive = false
	if c.fileFD != 0 {
		fd := c.fileFD
		c.fileFD = 0
		// Best effort: VFSCORE may itself be the faulted cubicle.
		cubicle.CatchContained(func() { s.vfs.Close(e, fd) })
	}
	if c.wrote > 0 {
		if cf := cubicle.CatchContained(func() { s.closeConn(e, c) }); cf != nil {
			s.dropConn(c)
		}
		return
	}
	c.status = 503
	if cf := cubicle.CatchContained(func() {
		s.startResponse(e, c, "503 Service Unavailable", []byte("service unavailable\n"))
	}); cf != nil {
		if cf := cubicle.CatchContained(func() { s.closeConn(e, c) }); cf != nil {
			s.dropConn(c)
		}
	}
}

// advance progresses one connection.
func (s *Server) advance(e *cubicle.Env, c *conn) uint64 {
	switch c.state {
	case stReadRequest:
		// A pipelined request may already sit complete in the bookkeeping
		// buffer from the previous keep-alive exchange; serve it before
		// asking the stack for more bytes.
		if bytes.Contains(c.req, headEnd) {
			s.parseRequest(e, c)
			return 1
		}
		n, errno := s.lwip.Recv(e, c.fd, c.reqBuf, reqBufSize)
		if errno == lwip.EAGAIN {
			return 0
		}
		if errno != lwip.EOK {
			s.closeConn(e, c)
			return 1
		}
		if n == 0 { // client closed before a full request: none will come
			s.closeConn(e, c)
			return 1
		}
		// Append straight from the zero-copy view of the receive buffer —
		// no intermediate []byte per read, no string copy for the scan.
		e.View(c.reqBuf, n, func(_ uint64, chunk []byte) {
			c.req = append(c.req, chunk...)
		})
		if bytes.Contains(c.req, headEnd) {
			s.parseRequest(e, c)
			return 1
		}
		return 1
	case stServe:
		return s.serve(e, c)
	}
	return 0
}

var (
	crlf    = []byte("\r\n")
	headEnd = []byte("\r\n\r\n")
)

// connDirective returns the value of the first Connection header among
// the header lines hdrs, trimmed, or nil when there is none.
func connDirective(hdrs []byte) []byte {
	for len(hdrs) > 0 {
		var line []byte
		line, hdrs, _ = bytes.Cut(hdrs, crlf)
		k, v, ok := bytes.Cut(line, []byte(":"))
		if ok && bytes.EqualFold(bytes.TrimSpace(k), []byte("Connection")) {
			return bytes.TrimSpace(v)
		}
	}
	return nil
}

// lowerIs reports whether b, lower-cased, spells the lower-case ASCII word
// want — strings.ToLower(string(b)) == want without building the string.
func lowerIs(b []byte, want string) bool {
	for i := 0; i < len(want); i++ {
		r, n := utf8.DecodeRune(b)
		if n == 0 || unicode.ToLower(r) != rune(want[i]) {
			return false
		}
		b = b[n:]
	}
	return len(b) == 0
}

// nextField splits off b's first whitespace-separated field, the way
// strings.Fields delimits one.
func nextField(b []byte) (field, rest []byte) {
	b = bytes.TrimLeftFunc(b, unicode.IsSpace)
	if i := bytes.IndexFunc(b, unicode.IsSpace); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// scanHead reads one request head (without its blank line): the method
// and path of the request line, whether it asks for HTTP/1.1, and whether
// the connection persists — the protocol's default unless a Connection
// header says close or keep-alive. A request line of fewer than two fields
// has an empty path.
func scanHead(head []byte) (method, path []byte, http11, keepAlive bool) {
	line, hdrs, _ := bytes.Cut(head, crlf)
	method, line = nextField(line)
	path, line = nextField(line)
	proto, _ := nextField(line)
	http11 = string(proto) == "HTTP/1.1"
	dir := connDirective(hdrs)
	keepAlive = lowerIs(dir, "keep-alive") || (http11 && !lowerIs(dir, "close"))
	return method, path, http11, keepAlive
}

// appendHead appends a response head: status line, Server, the connection
// header and Content-Length. Its length feeds lwip.Send and so the virtual
// clock.
func appendHead(b []byte, c *conn, status string, length uint64) []byte {
	b = append(b, c.proto()...)
	b = append(b, ' ')
	b = append(b, status...)
	b = append(b, "\r\nServer: cubicle-nginx\r\n"...)
	b = append(b, c.connHeader()...)
	b = append(b, "Content-Length: "...)
	b = strconv.AppendUint(b, length, 10)
	return append(b, headEnd...)
}

// appendLogLine appends the access-log line of a finished request.
func appendLogLine(b []byte, sec uint64, c *conn) []byte {
	b = strconv.AppendUint(b, sec, 10)
	b = append(b, " GET "...)
	b = append(b, c.path...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(c.status), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, c.size, 10)
	return append(b, '\n')
}

// parseRequest handles the request line and opens the file. It consumes
// exactly one request head from the bookkeeping buffer; pipelined bytes
// beyond the terminator stay queued for the next keep-alive round.
func (s *Server) parseRequest(e *cubicle.Env, c *conn) {
	e.TraceMark("http.request.parsed")
	e.Work(parseWork)
	// The head is scanned where it lies; only the path outlives the call.
	// Pipelined bytes past it then move to the front of the buffer.
	idx := bytes.Index(c.req, headEnd)
	method, path, http11, keepAlive := scanHead(c.req[:idx])
	c.http11, c.keepAlive = http11, keepAlive
	badRequest := len(path) == 0 || (string(method) != "GET" && string(method) != "HEAD")
	if !badRequest {
		c.headOnly = string(method) == "HEAD"
		c.path = append(c.path[:0], path...)
	}
	c.req = c.req[:copy(c.req, c.req[idx+4:])]
	if c.served+1 >= maxConnRequests {
		c.keepAlive = false
	}
	if badRequest {
		// Framing past a malformed request is unknowable: answer and close.
		c.status = 400
		c.keepAlive = false
		s.startResponse(e, c, "400 Bad Request", []byte("bad request\n"))
		return
	}
	fd, errno := s.vfs.Open(e, string(c.path), vfscore.ORdonly)
	if errno != vfscore.EOK {
		c.status = 404
		s.startResponse(e, c, "404 Not Found", []byte("not found\n"))
		return
	}
	size, errno := s.vfs.FStat(e, fd)
	if errno != vfscore.EOK {
		s.vfs.Close(e, fd)
		c.status = 500
		s.startResponse(e, c, "500 Internal Server Error", []byte("error\n"))
		return
	}
	c.fileFD = fd
	c.size = size
	s.scratch = appendHead(s.scratch[:0], c, "200 OK", size)
	e.Write(c.ioBuf, s.scratch)
	c.pending = uint64(len(s.scratch))
	c.pendOff = 0
	c.hdrDone = false
	if c.headOnly {
		// HEAD: announce the size but send no body.
		s.vfs.Close(e, fd)
		c.fileFD = 0
		c.size = 0
	}
	c.state = stServe
}

// startResponse stages a small error response.
func (s *Server) startResponse(e *cubicle.Env, c *conn, status string, body []byte) {
	s.scratch = append(appendHead(s.scratch[:0], c, status, uint64(len(body))), body...)
	e.Write(c.ioBuf, s.scratch)
	c.pending = uint64(len(s.scratch))
	c.pendOff = 0
	c.size = 0
	c.sent = 0
	c.state = stServe
}

// serve pushes pending bytes and file chunks into LWIP until the response
// is complete or the stack applies backpressure.
func (s *Server) serve(e *cubicle.Env, c *conn) uint64 {
	activity := uint64(0)
	for {
		if c.pending > 0 {
			n, errno := s.lwip.Send(e, c.fd, c.ioBuf.Add(c.pendOff), c.pending)
			if errno == lwip.EAGAIN {
				return activity
			}
			if errno != lwip.EOK {
				s.closeConn(e, c)
				return activity + 1
			}
			c.pending -= n
			c.pendOff += n
			c.wrote += n
			activity++
			if c.pending > 0 {
				return activity // backpressure: partial accept
			}
			continue
		}
		if c.fileFD == 0 || c.sent >= c.size {
			s.finish(e, c)
			return activity + 1
		}
		chunk := uint64(ioBufSize)
		if chunk > c.size-c.sent {
			chunk = c.size - c.sent
		}
		n, errno := s.vfs.PRead(e, c.fileFD, c.ioBuf, chunk, c.sent)
		if errno != vfscore.EOK || n == 0 {
			s.closeConn(e, c)
			return activity + 1
		}
		c.sent += n
		c.pending = n
		c.pendOff = 0
		activity++
	}
}

// finish logs the request, then closes the connection or — on a
// keep-alive exchange — recycles it for the next request.
func (s *Server) finish(e *cubicle.Env, c *conn) {
	ts := s.time.WallNs(e)
	s.scratch = appendLogLine(s.scratch[:0], ts/1_000_000_000, c)
	line := s.scratch[:min(len(s.scratch), logBufSize)]
	e.Write(s.logBuf, line)
	s.plat.ConsoleWrite(e, s.logBuf, uint64(len(line)))
	s.Requests++
	e.TraceMark("http.request.done")
	if c.keepAlive {
		s.resetConn(e, c)
	} else {
		s.closeConn(e, c)
	}
}

// resetConn recycles a keep-alive connection for its next request:
// per-request state clears, the connection-scoped buffers and their
// windows stay mapped. Pipelined bytes already received remain queued in
// c.req and are parsed on the next step without another Recv.
func (s *Server) resetConn(e *cubicle.Env, c *conn) {
	if c.fileFD != 0 {
		s.vfs.Close(e, c.fileFD)
		c.fileFD = 0
	}
	c.served++
	c.state = stReadRequest
	c.size, c.sent, c.pending, c.pendOff = 0, 0, 0, 0
	c.hdrDone = false
	c.headOnly = false
	c.path = c.path[:0]
	c.status = 200
	c.wrote = 0
}

// Provision writes a static file into the file system through the normal
// VFS path — the harness equivalent of populating the server's RAMFS root
// before a benchmark run. Must run with the NGINX cubicle's privileges.
func (s *Server) Provision(e *cubicle.Env, path string, data []byte) uint64 {
	if !s.inited {
		if errno := s.initServer(e); errno != 0 {
			return errno
		}
	}
	fd, errno := s.vfs.Open(e, path, vfscore.OCreat|vfscore.OWronly|vfscore.OTrunc)
	if errno != vfscore.EOK {
		return errno
	}
	defer s.vfs.Close(e, fd)
	buf := s.alloc.Malloc(e, ioBufSize)
	s.alloc.Share(e, buf, s.vfsID)
	s.alloc.Share(e, buf, s.ramfsID)
	defer s.alloc.Free(e, buf)
	for off := 0; off < len(data); off += ioBufSize {
		end := off + ioBufSize
		if end > len(data) {
			end = len(data)
		}
		e.Write(buf, data[off:end])
		if n, errno := s.vfs.PWrite(e, fd, buf, uint64(end-off), uint64(off)); errno != vfscore.EOK || n != uint64(end-off) {
			return errno
		}
	}
	return 0
}

// errConnsInFlight is Snapshot's veto, a sentinel like LWIP's: a busy
// server meets it at most sweeps.
var errConnsInFlight = errors.New("httpd: connections in flight")

// Snapshot serializes the server's idle-point state: the listening
// socket, persistent buffer addresses and the request counters. A server
// with connections in flight vetoes the round — per-connection buffers,
// file descriptors and shared windows cannot be re-established from a
// byte image, and HTTP/1.0 connections drain quickly anyway.
func (s *Server) Snapshot(sc *cubicle.SnapCtx) ([]byte, error) {
	if len(s.conns) > 0 {
		return nil, errConnsInFlight
	}
	b := sc.Buf()
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	if s.inited {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	u64(s.lfd)
	u64(uint64(s.logBuf))
	u64(uint64(s.shedBuf))
	u64(s.Requests)
	u64(s.Errors503)
	u64(s.Shed429)
	return b, nil
}

// Restore rebuilds the server from a Snapshot blob. The buffer addresses
// stay valid because they live in ALLOC's arena, which survives this
// cubicle's restart; the listening socket likewise persists in LWIP's
// table across an NGINX-only restart.
func (s *Server) Restore(sc *cubicle.SnapCtx, blob []byte) error {
	if len(blob) != 1+6*8 {
		return fmt.Errorf("httpd: snapshot blob is %d bytes, want %d", len(blob), 1+6*8)
	}
	u64 := func(off int) uint64 { return binary.LittleEndian.Uint64(blob[off:]) }
	s.inited = blob[0] == 1
	s.lfd = u64(1)
	s.logBuf = vm.Addr(u64(9))
	s.shedBuf = vm.Addr(u64(17))
	s.Requests = u64(25)
	s.Errors503 = u64(33)
	s.Shed429 = u64(41)
	s.conns = nil
	return nil
}

// Component returns the NGINX component for the builder.
func (s *Server) Component() *cubicle.Component {
	return &cubicle.Component{
		Name: Name,
		Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{
			{Name: "nginx_init", Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				return e.Ret(s.initServer(e))
			}},
			{Name: "nginx_step", Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				return e.Ret(s.step(e))
			}},
		},
		Snapshot: s.Snapshot,
		Restore:  s.Restore,
	}
}
