package lwip

import (
	"bytes"

	"cubicleos/internal/netdev"
)

// maxPresize caps the receive buffer a response header can make the peer
// reserve up front; a larger (or lying) Content-Length falls back to
// ordinary growth.
const maxPresize = 64 << 20

// Peer is the host-side TCP endpoint: the network client that load
// generators (siege, test harnesses) use to talk to the library OS over
// the NETDEV wire. It lives entirely outside the simulated machine —
// exactly like the external clients of the paper's evaluation — so its
// processing costs nothing on the virtual clock.
type Peer struct {
	w        *netdev.Wire
	conns    map[uint16]*PeerConn // keyed by the peer-side port
	nextPort uint16
	// Window is the receive window the peer advertises to the server.
	Window uint32
	// ackq lists connections owing a deferred window-update ACK, in the
	// order the data arrived. Draining this instead of scanning conns keeps
	// Pump O(live traffic) regardless of how many connections the load
	// generator has opened, and emits the deferred ACKs in a deterministic
	// order (map iteration order is not).
	ackq []*PeerConn
	// free lists the receive buffers connections handed back with Recycle,
	// last in first out. It only grows when no listed buffer is large
	// enough, so a load generator whose callers recycle settles at the
	// high-water mark of responses in flight. (Like netdev.Wire's frame
	// list it is not a sync.Pool: what a pool keeps depends on when the
	// collector runs, and allocation counts must repeat.)
	free [][]byte
	// BadFrames counts server frames dropped because their header claims
	// more payload than the frame carries.
	BadFrames uint64
}

// NewPeer attaches a host peer to the wire.
func NewPeer(w *netdev.Wire) *Peer {
	return &Peer{w: w, conns: make(map[uint16]*PeerConn), nextPort: 40000, Window: 1 << 20}
}

// PeerConn is one host-side TCP connection.
type PeerConn struct {
	p                    *Peer
	localPort            uint16 // peer side
	remotePort           uint16 // server side
	sndNxt               uint32
	rcvNxt               uint32
	lastAcked            uint32
	srvWnd               uint32
	recv                 []byte
	Established, FinRcvd bool
	// pending holds outbound application data not yet sent to the wire
	// (respecting the server's advertised receive window).
	pending []byte
	unacked uint32
	// ackQueued marks the connection as already on the peer's deferred-ACK
	// queue; released marks it detached by Release.
	ackQueued, released bool
}

// Connect sends a SYN to the given server port and returns the connection
// (not yet established until Pump processes the SYN-ACK).
func (p *Peer) Connect(serverPort uint16) *PeerConn {
	c := &PeerConn{p: p, localPort: p.nextPort, remotePort: serverPort, srvWnd: 64 << 10}
	p.nextPort++
	p.conns[c.localPort] = c
	p.send(c, FlagSYN, nil)
	c.sndNxt++
	return c
}

// send emits one frame from the peer to the server, encoded straight into
// a frame the wire lends out and takes back with HostSend.
func (p *Peer) send(c *PeerConn, flags uint8, payload []byte) {
	frame := p.w.Frame(HdrSize + len(payload))
	EncodeHeader(frame, Header{
		SrcPort: c.localPort, DstPort: c.remotePort,
		Seq: c.sndNxt, Ack: c.rcvNxt, Flags: flags,
		Wnd: p.Window, Len: uint16(len(payload)),
	})
	copy(frame[HdrSize:], payload)
	p.w.HostSend(frame)
}

// Pump processes every frame the server has put on the wire; returns the
// number of frames handled. Each frame goes back to the wire once handled,
// so nothing below may keep a reference into it.
func (p *Peer) Pump() int {
	n := 0
	for f := p.w.HostRecv(); f != nil; f = p.w.HostRecv() {
		n++
		p.handle(f)
		p.w.Recycle(f)
	}
	// Drained: send any deferred window-update acknowledgements, in
	// data-arrival order.
	for i, c := range p.ackq {
		p.ackq[i] = nil // the queue must not keep a finished connection's buffer alive
		c.ackQueued = false
		if !c.released && c.rcvNxt != c.lastAcked {
			p.send(c, FlagACK, nil)
			c.lastAcked = c.rcvNxt
		}
	}
	p.ackq = p.ackq[:0]
	return n
}

// deferAck queues c for a window-update ACK once the pump drains.
func (p *Peer) deferAck(c *PeerConn) {
	if !c.ackQueued {
		c.ackQueued = true
		p.ackq = append(p.ackq, c)
	}
}

// handle processes one frame from the server.
func (p *Peer) handle(f []byte) {
	if len(f) < HdrSize {
		return
	}
	h := DecodeHeader(f)
	if HdrSize+int(h.Len) > len(f) {
		// The header overstates the payload. Frames are recycled buffers:
		// slicing to the claimed length would read a previous frame's bytes.
		p.BadFrames++
		return
	}
	c, ok := p.conns[h.DstPort]
	if !ok {
		return
	}
	c.srvWnd = h.Wnd
	if h.Flags&FlagACK != 0 {
		if int32(h.Ack-(c.sndNxt-c.unacked)) > 0 {
			acked := h.Ack - (c.sndNxt - c.unacked)
			if acked > c.unacked {
				acked = c.unacked
			}
			c.unacked -= acked
		}
	}
	if h.Flags&FlagSYN != 0 {
		c.rcvNxt = h.Seq + 1
		c.Established = true
		p.send(c, FlagACK, nil)
		// The handshake ACK intentionally leaves lastAcked behind, so
		// the drain re-acknowledges once more: the peer has always
		// confirmed its receive window right after establishment, and
		// the figure goldens pin that frame sequence.
		p.deferAck(c)
		return
	}
	if h.Len > 0 && h.Seq == c.rcvNxt {
		c.receive(f[HdrSize : HdrSize+int(h.Len)])
		c.rcvNxt += uint32(h.Len)
	}
	if h.Flags&FlagFIN != 0 && h.Seq == c.rcvNxt {
		c.rcvNxt++
		c.FinRcvd = true
	}
	// Delayed acknowledgements: ack immediately on FIN or after four
	// full segments; otherwise acknowledge once the pump drains, as real
	// TCP receivers do.
	if c.FinRcvd || c.rcvNxt-c.lastAcked >= 4*MSS {
		p.send(c, FlagACK, nil)
		c.lastAcked = c.rcvNxt
	} else if c.rcvNxt != c.lastAcked {
		p.deferAck(c)
	}
	// Window may have opened: push pending data.
	c.flush()
}

// receive appends one in-order segment to the connection's receive
// buffer. The first segment sizes the buffer: when it holds a whole HTTP
// response header with a Content-Length, the buffer is allocated once at
// header + body size, so a bulk download is one allocation and one copy
// per byte instead of a dozen regrowths. Anything else — no usable header,
// or further responses on a keep-alive connection — doubles. The buffer
// comes off the peer's free list when one there covers the size, and is
// allocated otherwise. Either way it is this connection's alone until the
// connection's owner calls Recycle: Received stays valid for as long as
// the caller keeps it, Release or not, and an outgrown buffer is left to
// the collector because a caller may still hold it.
func (c *PeerConn) receive(seg []byte) {
	if need := len(c.recv) + len(seg); need > cap(c.recv) {
		size := max(need, 2*cap(c.recv))
		if c.recv == nil {
			if total := responseSize(seg); total <= maxPresize {
				size = max(size, total)
			}
		}
		c.recv = append(c.p.buffer(size), c.recv...)
	}
	c.recv = append(c.recv, seg...)
}

// buffer returns an empty receive buffer of at least size bytes of
// capacity: the most recently recycled one that is large enough, or a new
// one of exactly that capacity.
func (p *Peer) buffer(size int) []byte {
	for i := len(p.free) - 1; i >= 0; i-- {
		if b := p.free[i]; cap(b) >= size {
			last := len(p.free) - 1
			p.free[i], p.free[last] = p.free[last], nil
			p.free = p.free[:last]
			return b
		}
	}
	return make([]byte, 0, size)
}

// responseSize returns the full length of the HTTP response that starts
// in seg — header, blank line and Content-Length bytes of body — or 0 when
// seg does not hold a complete header that states one.
func responseSize(seg []byte) int {
	end := bytes.Index(seg, []byte("\r\n\r\n"))
	if end < 0 {
		return 0
	}
	for head := seg[:end]; len(head) > 0; {
		var line []byte
		line, head, _ = bytes.Cut(head, []byte("\r\n"))
		key, val, ok := bytes.Cut(line, []byte(":"))
		if !ok || !bytes.EqualFold(key, []byte("Content-Length")) {
			continue
		}
		val = bytes.TrimSpace(val)
		n := 0
		for _, d := range val {
			if d < '0' || d > '9' || n > maxPresize {
				return 0
			}
			n = n*10 + int(d-'0')
		}
		if len(val) == 0 {
			return 0
		}
		return end + 4 + n
	}
	return 0
}

// Send queues application data toward the server; data beyond the
// server's advertised window is held back until ACKs open it.
func (c *PeerConn) Send(data []byte) {
	c.pending = append(c.pending, data...)
	c.flush()
}

func (c *PeerConn) flush() {
	for len(c.pending) > 0 {
		wnd := int(c.srvWnd) - int(c.unacked)
		if wnd <= 0 {
			return
		}
		n := len(c.pending)
		if n > MSS {
			n = MSS
		}
		if n > wnd {
			n = wnd
		}
		c.p.send(c, FlagACK, c.pending[:n])
		c.sndNxt += uint32(n)
		c.unacked += uint32(n)
		c.pending = c.pending[n:]
	}
}

// Close sends a FIN.
func (c *PeerConn) Close() {
	c.p.send(c, FlagFIN|FlagACK, nil)
	c.sndNxt++
}

// Release detaches a finished connection from the peer so its state can
// be collected: frames still in flight for the port are dropped, exactly
// like a closed socket. Received data stays readable, for ever: the buffer
// goes with the connection, not back to the peer. Without this a
// long-running load generator accretes one dead PeerConn per request and
// every Pump drain walks them all.
func (c *PeerConn) Release() {
	if c.released {
		return
	}
	c.released = true
	delete(c.p.conns, c.localPort)
}

// Recycle is Release plus handing the receive buffer back to the peer for
// a later connection to fill: Received, and every slice of it, is invalid
// from here on. Only the code that knows nobody else holds those bytes may
// call it — the load generator for a response it has already classified
// and dropped, or for a body whose validity it documented as ended. A
// connection nobody recycles keeps its buffer.
func (c *PeerConn) Recycle() {
	c.Release()
	if cap(c.recv) > 0 {
		c.p.free = append(c.p.free, c.recv[:0])
	}
	c.recv = nil
}

// Received returns everything received so far.
func (c *PeerConn) Received() []byte { return c.recv }

// DropReceived forgets everything received so far and keeps the buffer:
// what arrives next overwrites the bytes Received returned before. For an
// owner that has consumed them all (a keep-alive client between
// responses).
func (c *PeerConn) DropReceived() { c.recv = c.recv[:0] }

// ReceivedLen returns the number of bytes received so far.
func (c *PeerConn) ReceivedLen() int { return len(c.recv) }
