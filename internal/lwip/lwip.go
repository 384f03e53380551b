// Package lwip is the LWIP component: the TCP/IP stack of the NGINX
// deployment (Figure 5). It implements a compact but real TCP over the
// NETDEV virtual device — handshake, segmentation at the MSS, cumulative
// acknowledgements, flow control against the peer's advertised window,
// and a bounded send buffer whose size produces the latency slope change
// for large transfers that the paper observes in Figure 7 ("the change in
// slope for files larger than 1 MB is due to the buffer size inside
// LWIP").
package lwip

import (
	"encoding/binary"
	"errors"
	"slices"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/netdev"
	"cubicleos/internal/snapshot"
	"cubicleos/internal/spare"
	"cubicleos/internal/ualloc"
	"cubicleos/internal/vm"
)

// Name of the component in deployments.
const Name = "LWIP"

// Frame header layout (simplified TCP/IP: ports, seq/ack, flags, window,
// length). The real stack's 54-byte Ethernet+IP+TCP header cost is
// modelled in stackWork.
const (
	HdrSize = 19
	MSS     = 1448
)

// TCP flags.
const (
	FlagSYN = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// Errnos returned by the socket API.
const (
	EOK    = 0
	EAGAIN = 11
	EBADF  = 9
	EINVAL = 22
)

// Default buffer sizes. SendBufCap bounds unsent+unacknowledged data per
// socket; transfers larger than it require the application to interleave
// sends with stack polls, which is the Figure 7 slope change.
const (
	DefaultSendBuf = 1 << 20 // 1 MiB
	DefaultRecvBuf = 64 << 10
)

// stackWork models per-frame TCP/IP processing: header parse/build,
// checksum over the segment, demux, timers.
const stackWork = 3400

// Socket states.
const (
	stClosed = iota
	stListen
	stEstab
	stCloseWait
	stFinSent
)

// Header is a parsed frame header.
type Header struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Wnd              uint32
	Len              uint16
}

// EncodeHeader writes h into b (at least HdrSize bytes).
func EncodeHeader(b []byte, h Header) {
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint32(b[4:], h.Seq)
	binary.BigEndian.PutUint32(b[8:], h.Ack)
	b[12] = h.Flags
	binary.BigEndian.PutUint32(b[13:], h.Wnd)
	binary.BigEndian.PutUint16(b[17:], h.Len)
}

// DecodeHeader parses a frame header.
func DecodeHeader(b []byte) Header {
	return Header{
		SrcPort: binary.BigEndian.Uint16(b[0:]),
		DstPort: binary.BigEndian.Uint16(b[2:]),
		Seq:     binary.BigEndian.Uint32(b[4:]),
		Ack:     binary.BigEndian.Uint32(b[8:]),
		Flags:   b[12],
		Wnd:     binary.BigEndian.Uint32(b[13:]),
		Len:     binary.BigEndian.Uint16(b[17:]),
	}
}

// ring is a byte ring buffer in simulated memory.
type ring struct {
	buf   vm.Addr
	cap   uint64
	start uint64
	len   uint64
}

// write copies up to n bytes from src (simulated memory) into the ring,
// clamped to the free space; returns bytes written. A zero-capacity ring
// accepts nothing (and must not divide by its capacity).
func (r *ring) write(e *cubicle.Env, src vm.Addr, n uint64) uint64 {
	if r.cap == 0 {
		return 0
	}
	if sp := r.space(); n > sp {
		n = sp
	}
	if n == 0 {
		return 0
	}
	off := (r.start + r.len) % r.cap
	first := r.cap - off
	if first > n {
		first = n
	}
	e.Memcpy(r.buf.Add(off), src, first)
	if n > first {
		e.Memcpy(r.buf, src.Add(first), n-first)
	}
	r.len += n
	return n
}

// read copies up to n bytes from the ring into dst and consumes them;
// returns bytes moved.
func (r *ring) read(e *cubicle.Env, dst vm.Addr, n uint64) uint64 {
	n = r.peek(e, dst, n)
	r.consume(n)
	return n
}

// peek copies up to n bytes from the ring head without consuming.
func (r *ring) peek(e *cubicle.Env, dst vm.Addr, n uint64) uint64 {
	if n > r.len {
		n = r.len
	}
	if n == 0 {
		return 0
	}
	first := r.cap - r.start
	if first > n {
		first = n
	}
	e.Memcpy(dst, r.buf.Add(r.start), first)
	if n > first {
		e.Memcpy(dst.Add(first), r.buf, n-first)
	}
	return n
}

// consume drops up to n bytes from the ring head (clamped to the fill, so
// an over-consume cannot underflow the accounting).
func (r *ring) consume(n uint64) {
	if n > r.len {
		n = r.len
	}
	if n == 0 {
		return
	}
	r.start = (r.start + n) % r.cap
	r.len -= n
}

func (r *ring) space() uint64 { return r.cap - r.len }

// sock is one TCP socket.
type sock struct {
	fd         uint64
	state      int
	localPort  uint16
	remotePort uint16
	rx, tx     ring
	sndNxt     uint32 // next sequence number to send
	sndUna     uint32 // oldest unacknowledged
	rcvNxt     uint32
	peerWnd    uint32
	needAck    bool
	acceptQ    []uint64
	backlog    int
	finRcvd    bool
	finQueued  bool
	// synAckPending marks a SYN-ACK refused by a full device queue, to be
	// retried by pump once the backpressure clears.
	synAckPending bool
}

func (s *sock) inflight() uint32 { return s.sndNxt - s.sndUna }

type connKey struct {
	local, remote uint16
}

// Module is the LWIP component state.
type Module struct {
	socks     map[uint64]*sock
	nextFD    uint64
	listeners map[uint16]*sock
	conns     map[connKey]*sock
	// order lists sockets in creation order so poll pumps them
	// deterministically (map iteration order would make frame ordering —
	// and therefore the virtual clock — vary run to run).
	order []*sock
	// spareSocks holds reaped sockets for newSock to reuse.
	spareSocks spare.List[sock]

	nd    *netdev.Client
	alloc *ualloc.Client

	netdevID cubicle.ID
	stage    vm.Addr // frame staging buffer, shared with NETDEV

	// SendBufCap / RecvBufCap size new sockets' rings.
	SendBufCap uint64
	RecvBufCap uint64

	// ReapClosed, when set, frees a socket's buffers and forgets it once
	// its FIN is acknowledged with nothing in flight. Off by default: the
	// seed behaviour keeps sockets forever, which is exactly the unbounded
	// memory growth the overload experiment demonstrates.
	ReapClosed bool

	// SegmentsTx / SegmentsRx count TCP segments for the reports.
	SegmentsTx, SegmentsRx uint64
	// TxBackpressure counts segment transmits refused by the device queue;
	// Reaped counts sockets reclaimed by ReapClosed.
	TxBackpressure uint64
	Reaped         uint64
}

// New creates the stack; deployment wiring must call SetDeps.
func New() *Module {
	return &Module{
		socks:      make(map[uint64]*sock),
		nextFD:     1,
		listeners:  make(map[uint16]*sock),
		conns:      make(map[connKey]*sock),
		SendBufCap: DefaultSendBuf,
		RecvBufCap: DefaultRecvBuf,
	}
}

// SetDeps wires the NETDEV and ALLOC clients, plus the NETDEV
// cubicle ID for frame-buffer window sharing.
func (l *Module) SetDeps(nd *netdev.Client, alloc *ualloc.Client, netdevID cubicle.ID) {
	l.nd = nd
	l.alloc = alloc
	l.netdevID = netdevID
}

// ensureInit sets up the staging frame buffer on first use: allocated
// from the configured allocator and shared with NETDEV so the device's
// DMA can reach it.
func (l *Module) ensureInit(e *cubicle.Env) {
	if l.stage != 0 {
		return
	}
	l.stage = l.alloc.Malloc(e, 2*vm.PageSize)
	l.alloc.Share(e, l.stage, l.netdevID)
}

func (l *Module) newSock(e *cubicle.Env) *sock {
	s := l.takeSock(l.nextFD)
	l.nextFD++
	s.rx = ring{buf: l.alloc.Malloc(e, l.RecvBufCap), cap: l.RecvBufCap}
	s.tx = ring{buf: l.alloc.Malloc(e, l.SendBufCap), cap: l.SendBufCap}
	l.socks[s.fd] = s
	l.order = append(l.order, s)
	return s
}

// takeSock returns a closed socket fd without rings: the most recently
// reaped one, reset to what a new one holds but for its accept queue's
// capacity, or a new one.
func (l *Module) takeSock(fd uint64) *sock {
	s := l.spareSocks.Take()
	*s = sock{fd: fd, state: stClosed, peerWnd: 64 << 10, acceptQ: s.acceptQ[:0]}
	return s
}

// reap frees a socket's buffers and forgets it. Only fully closed
// connections (FIN sent and acknowledged, nothing in flight) are reaped.
func (l *Module) reap(e *cubicle.Env, s *sock) {
	l.alloc.Free(e, s.rx.buf)
	l.alloc.Free(e, s.tx.buf)
	delete(l.socks, s.fd)
	delete(l.conns, connKey{local: s.localPort, remote: s.remotePort})
	if i := slices.Index(l.order, s); i >= 0 {
		l.order = slices.Delete(l.order, i, i+1)
	}
	l.Reaped++
	l.spareSocks.Put(s)
}

// sendFrame builds a frame in the staging buffer and hands it to NETDEV.
// The payload bytes come from the socket's send ring without consuming
// them — the caller consumes after the frame is out, modelling the DMA
// completing before buffer reuse. Returns false when the device refused
// the frame (bounded transmit queue full); the caller must leave its
// state unchanged so the segment is retried on a later pump.
func (l *Module) sendFrame(e *cubicle.Env, s *sock, flags uint8, payload uint64) bool {
	e.Work(stackWork)
	h := Header{
		SrcPort: s.localPort, DstPort: s.remotePort,
		Seq: s.sndNxt, Ack: s.rcvNxt, Flags: flags,
		Wnd: uint32(s.rx.space()), Len: uint16(payload),
	}
	var hdr [HdrSize]byte
	EncodeHeader(hdr[:], h)
	e.Write(l.stage, hdr[:])
	if payload > 0 {
		s.tx.peek(e, l.stage.Add(HdrSize), payload)
	}
	if _, errno := l.nd.Tx(e, l.stage, HdrSize+payload); errno != EOK {
		l.TxBackpressure++
		return false
	}
	l.SegmentsTx++
	return true
}

// poll drives the stack: drains received frames, delivers data, sends
// pending segments and acknowledgements. Returns the number of frames
// processed plus segments sent (activity indicator).
func (l *Module) poll(e *cubicle.Env) uint64 {
	l.ensureInit(e)
	activity := uint64(0)
	// Receive path.
	for {
		n, _ := l.nd.Rx(e, l.stage, 2*vm.PageSize)
		if n == 0 {
			break
		}
		activity++
		l.SegmentsRx++
		e.Work(stackWork)
		// Decode the staged frame header through a stack buffer: one
		// checked read, no heap allocation.
		var hb [HdrSize]byte
		e.Read(l.stage, hb[:])
		l.handleFrame(e, DecodeHeader(hb[:]))
	}
	// Transmit path, in deterministic creation order.
	for _, s := range l.order {
		activity += l.pump(e, s)
	}
	if l.ReapClosed {
		// Reclaim fully closed connections: FIN sent and acknowledged,
		// nothing left to deliver or retransmit.
		for i := 0; i < len(l.order); {
			s := l.order[i]
			if s.state == stFinSent && s.inflight() == 0 && s.tx.len == 0 && !s.needAck {
				l.reap(e, s)
				continue // reap spliced l.order; same index is the next sock
			}
			i++
		}
	}
	return activity
}

// handleFrame dispatches one received frame.
func (l *Module) handleFrame(e *cubicle.Env, h Header) {
	key := connKey{local: h.DstPort, remote: h.SrcPort}
	s, ok := l.conns[key]
	if !ok {
		// New connection? Must be a SYN to a listener.
		ls, lok := l.listeners[h.DstPort]
		if !lok || h.Flags&FlagSYN == 0 {
			return // drop (no RST generation needed on the lossless wire)
		}
		if len(ls.acceptQ) >= ls.backlog {
			return
		}
		c := l.newSock(e)
		c.state = stEstab
		c.localPort = h.DstPort
		c.remotePort = h.SrcPort
		c.rcvNxt = h.Seq + 1
		c.peerWnd = h.Wnd
		l.conns[key] = c
		ls.acceptQ = append(ls.acceptQ, c.fd)
		// SYN-ACK consumes one sequence number. If the device queue is
		// full it is retried from pump; the connection is already
		// established on our side either way.
		if l.sendFrame(e, c, FlagSYN|FlagACK, 0) {
			c.sndNxt++
			c.sndUna = c.sndNxt - 1
		} else {
			c.synAckPending = true
		}
		return
	}
	if h.Flags&FlagACK != 0 {
		// Cumulative ACK: free acknowledged send-buffer space.
		if int32(h.Ack-s.sndUna) > 0 {
			s.sndUna = h.Ack
		}
		s.peerWnd = h.Wnd
	}
	if h.Len > 0 {
		if h.Seq == s.rcvNxt && uint64(h.Len) <= s.rx.space() {
			s.rx.write(e, l.stage.Add(HdrSize), uint64(h.Len))
			s.rcvNxt += uint32(h.Len)
			s.needAck = true
		} else {
			// Out-of-window data is dropped; the peer retransmits.
			s.needAck = true
		}
	}
	if h.Flags&FlagFIN != 0 && h.Seq == s.rcvNxt {
		s.rcvNxt++
		s.finRcvd = true
		s.needAck = true
		if s.state == stEstab {
			s.state = stCloseWait
		}
	}
	if h.Flags&FlagRST != 0 {
		s.state = stClosed
	}
}

// pump sends as much pending data as the peer window allows, plus any FIN
// or pure ACK due. Returns segments sent.
func (l *Module) pump(e *cubicle.Env, s *sock) uint64 {
	if s.state != stEstab && s.state != stCloseWait && s.state != stFinSent {
		return 0
	}
	sent := uint64(0)
	if s.synAckPending {
		// Retry the handshake reply the device queue refused earlier.
		if !l.sendFrame(e, s, FlagSYN|FlagACK, 0) {
			return sent
		}
		s.synAckPending = false
		s.sndNxt++
		s.sndUna = s.sndNxt - 1
		sent++
	}
	for s.tx.len > 0 {
		wnd := uint64(0)
		if uint64(s.inflight()) < uint64(s.peerWnd) {
			wnd = uint64(s.peerWnd) - uint64(s.inflight())
		}
		seg := s.tx.len
		if seg > MSS {
			seg = MSS
		}
		if seg > wnd {
			seg = wnd
		}
		if seg == 0 {
			break
		}
		if !l.sendFrame(e, s, FlagACK, seg) {
			// Device backpressure: leave the segment in the ring and the
			// sequence space untouched; a later pump retries it.
			return sent
		}
		s.tx.consume(seg)
		s.sndNxt += uint32(seg)
		s.needAck = false
		sent++
	}
	if s.finQueued && s.tx.len == 0 && s.state != stFinSent {
		if !l.sendFrame(e, s, FlagFIN|FlagACK, 0) {
			return sent
		}
		s.sndNxt++
		s.state = stFinSent
		s.needAck = false
		sent++
	}
	if s.needAck {
		if !l.sendFrame(e, s, FlagACK, 0) {
			return sent
		}
		s.needAck = false
		sent++
	}
	return sent
}

func (l *Module) get(fd uint64) (*sock, uint64) {
	s, ok := l.socks[fd]
	if !ok {
		return nil, EBADF
	}
	return s, EOK
}

// snapIdle reports whether a socket is in a checkpointable state: a
// listener with an empty accept queue, a closed socket, or a fully
// drained post-FIN socket. Anything mid-connection vetoes the round.
func snapIdle(s *sock) bool {
	if s.rx.len != 0 || s.tx.len != 0 || s.needAck || s.synAckPending || len(s.acceptQ) != 0 {
		return false
	}
	switch s.state {
	case stListen, stClosed:
		return true
	case stFinSent:
		return s.inflight() == 0 && !s.finQueued
	}
	return false
}

// errNotIdle is Snapshot's veto. It names no socket: a veto is what
// most sweeps of a busy stack meet, and the capture only tests it for nil.
var errNotIdle = errors.New("lwip: a socket is mid-connection")

// Snapshot serialises the stack for warm recovery, or returns errNotIdle
// when any socket is mid-connection — an in-flight TCP exchange cannot be
// resumed from a checkpoint, so the round is vetoed and the previous
// checkpoint stays good. Ring buffer ADDRESSES are recorded (their pages
// are part of the cubicle's page image, or survive in the foreign
// allocator); ring contents are empty by the idleness rule.
func (l *Module) Snapshot(sc *cubicle.SnapCtx) ([]byte, error) {
	for _, s := range l.order {
		if !snapIdle(s) {
			return nil, errNotIdle
		}
	}
	b := sc.Buf()
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64(l.nextFD)
	u64(uint64(l.stage))
	u64(l.SegmentsTx)
	u64(l.SegmentsRx)
	u64(l.TxBackpressure)
	u64(l.Reaped)
	u32(uint32(len(l.order)))
	for _, s := range l.order {
		u64(s.fd)
		u32(uint32(s.state))
		u32(uint32(s.localPort))
		u32(uint32(s.remotePort))
		u64(uint64(s.rx.buf))
		u64(s.rx.cap)
		u64(uint64(s.tx.buf))
		u64(s.tx.cap)
		u32(s.sndNxt)
		u32(s.sndUna)
		u32(s.rcvNxt)
		u32(s.peerWnd)
		u32(uint32(s.backlog))
		var flags uint32
		if s.finRcvd {
			flags |= 1
		}
		u32(flags)
	}
	return b, nil
}

// Restore rebuilds the stack's socket table from a Snapshot blob. The
// listener and connection maps are reconstructed from the per-socket
// port state, so only the socket list travels in the image. A malformed
// blob fails with a *snapshot.DecodeError and changes nothing.
func (l *Module) Restore(sc *cubicle.SnapCtx, blob []byte) error {
	r := snapshot.NewReader(blob)
	nextFD := r.U64()
	stage := vm.Addr(r.U64())
	segTx, segRx, backp, reaped := r.U64(), r.U64(), r.U64(), r.U64()
	count := r.Count(1<<20, "socket")
	socks := make(map[uint64]*sock, min(count, 1024))
	listeners := make(map[uint16]*sock)
	conns := make(map[connKey]*sock)
	var order []*sock
	for i := uint32(0); i < count && r.Err() == nil; i++ {
		s := &sock{fd: r.U64(), state: int(r.U32()),
			localPort: uint16(r.U32()), remotePort: uint16(r.U32())}
		s.rx = ring{buf: vm.Addr(r.U64()), cap: r.U64()}
		s.tx = ring{buf: vm.Addr(r.U64()), cap: r.U64()}
		s.sndNxt, s.sndUna, s.rcvNxt, s.peerWnd = r.U32(), r.U32(), r.U32(), r.U32()
		s.backlog = int(r.U32())
		s.finRcvd = r.U32()&1 != 0
		socks[s.fd] = s
		order = append(order, s)
		if s.state == stListen {
			listeners[s.localPort] = s
		}
		if s.remotePort != 0 {
			conns[connKey{local: s.localPort, remote: s.remotePort}] = s
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	l.socks, l.listeners, l.conns, l.order = socks, listeners, conns, order
	l.nextFD = nextFD
	l.stage = stage
	l.SegmentsTx, l.SegmentsRx = segTx, segRx
	l.TxBackpressure, l.Reaped = backp, reaped
	return nil
}

// Component returns the LWIP component for the builder.
func (l *Module) Component() *cubicle.Component {
	return &cubicle.Component{
		Name:     Name,
		Kind:     cubicle.KindIsolated,
		Snapshot: l.Snapshot,
		Restore:  l.Restore,
		Exports: []cubicle.ExportDecl{
			{Name: "lwip_socket", Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				l.ensureInit(e)
				e.Work(stackWork)
				return e.Ret(l.newSock(e).fd, EOK)
			}},
			{Name: "lwip_bind", RegArgs: 2, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				cubicle.GuardArgs(e, "lwip_bind", a, 2)
				e.Work(100)
				s, errno := l.get(a[0])
				if errno != EOK {
					return e.Ret(0, errno)
				}
				if _, taken := l.listeners[uint16(a[1])]; taken {
					return e.Ret(0, EINVAL)
				}
				s.localPort = uint16(a[1])
				return e.Ret(0, EOK)
			}},
			{Name: "lwip_listen", RegArgs: 2, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				cubicle.GuardArgs(e, "lwip_listen", a, 2)
				e.Work(100)
				s, errno := l.get(a[0])
				if errno != EOK {
					return e.Ret(0, errno)
				}
				if s.localPort == 0 {
					return e.Ret(0, EINVAL)
				}
				s.state = stListen
				s.backlog = int(a[1])
				if s.backlog <= 0 {
					s.backlog = 8
				}
				l.listeners[s.localPort] = s
				return e.Ret(0, EOK)
			}},
			{Name: "lwip_accept", RegArgs: 1, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				cubicle.GuardArgs(e, "lwip_accept", a, 1)
				e.Work(150)
				s, errno := l.get(a[0])
				if errno != EOK {
					return e.Ret(0, errno)
				}
				if s.state != stListen {
					return e.Ret(0, EINVAL)
				}
				if len(s.acceptQ) == 0 {
					return e.Ret(0, EAGAIN)
				}
				fd := s.acceptQ[0]
				s.acceptQ = slices.Delete(s.acceptQ, 0, 1) // keeps the backing array
				return e.Ret(fd, EOK)
			}},
			{Name: "lwip_recv", RegArgs: 3, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				cubicle.GuardArgs(e, "lwip_recv", a, 3)
				e.Work(200)
				s, errno := l.get(a[0])
				if errno != EOK {
					return e.Ret(0, errno)
				}
				if s.rx.len == 0 {
					if s.finRcvd {
						return e.Ret(0, EOK) // EOF
					}
					return e.Ret(0, EAGAIN)
				}
				n := s.rx.read(e, vm.Addr(a[1]), a[2])
				s.needAck = true // window update
				return e.Ret(n, EOK)
			}},
			{Name: "lwip_send", RegArgs: 3, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				cubicle.GuardArgs(e, "lwip_send", a, 3)
				e.Work(200)
				s, errno := l.get(a[0])
				if errno != EOK {
					return e.Ret(0, errno)
				}
				if s.state != stEstab && s.state != stCloseWait {
					return e.Ret(0, EINVAL)
				}
				// The send buffer bounds unsent + unacknowledged bytes.
				used := s.tx.len + uint64(s.inflight())
				if used >= l.SendBufCap {
					return e.Ret(0, EAGAIN)
				}
				n := a[2]
				if n > l.SendBufCap-used {
					n = l.SendBufCap - used
				}
				if n > s.tx.space() {
					n = s.tx.space()
				}
				if n == 0 {
					return e.Ret(0, EAGAIN)
				}
				s.tx.write(e, vm.Addr(a[1]), n)
				return e.Ret(n, EOK)
			}},
			{Name: "lwip_close", RegArgs: 1, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				cubicle.GuardArgs(e, "lwip_close", a, 1)
				e.Work(150)
				s, errno := l.get(a[0])
				if errno != EOK {
					return e.Ret(0, errno)
				}
				if s.state == stListen {
					delete(l.listeners, s.localPort)
					s.state = stClosed
					return e.Ret(0, EOK)
				}
				s.finQueued = true
				return e.Ret(0, EOK)
			}},
			{Name: "lwip_poll", Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				return e.Ret(l.poll(e), EOK)
			}},
		},
	}
}

// Client is typed access to LWIP from another cubicle.
type Client struct {
	socket, bind, listen, accept cubicle.Handle
	recv, send, close_, poll     cubicle.Handle
}

// NewClient resolves LWIP for a caller cubicle.
func NewClient(m *cubicle.Monitor, caller cubicle.ID) *Client {
	return &Client{
		socket: m.MustResolve(caller, Name, "lwip_socket"),
		bind:   m.MustResolve(caller, Name, "lwip_bind"),
		listen: m.MustResolve(caller, Name, "lwip_listen"),
		accept: m.MustResolve(caller, Name, "lwip_accept"),
		recv:   m.MustResolve(caller, Name, "lwip_recv"),
		send:   m.MustResolve(caller, Name, "lwip_send"),
		close_: m.MustResolve(caller, Name, "lwip_close"),
		poll:   m.MustResolve(caller, Name, "lwip_poll"),
	}
}

// Socket creates a socket.
func (c *Client) Socket(e *cubicle.Env) uint64 { return c.socket.Call(e)[0] }

// Bind binds fd to a local port.
func (c *Client) Bind(e *cubicle.Env, fd uint64, port uint16) uint64 {
	return c.bind.Call(e, fd, uint64(port))[1]
}

// Listen marks fd as a listener.
func (c *Client) Listen(e *cubicle.Env, fd uint64, backlog int) uint64 {
	return c.listen.Call(e, fd, uint64(backlog))[1]
}

// Accept pops a pending connection; errno EAGAIN when none.
func (c *Client) Accept(e *cubicle.Env, fd uint64) (uint64, uint64) {
	r := c.accept.Call(e, fd)
	return r[0], r[1]
}

// Recv reads up to n bytes into buf.
func (c *Client) Recv(e *cubicle.Env, fd uint64, buf vm.Addr, n uint64) (uint64, uint64) {
	r := c.recv.Call(e, fd, uint64(buf), n)
	return r[0], r[1]
}

// Send queues up to n bytes from buf; returns bytes accepted.
func (c *Client) Send(e *cubicle.Env, fd uint64, buf vm.Addr, n uint64) (uint64, uint64) {
	r := c.send.Call(e, fd, uint64(buf), n)
	return r[0], r[1]
}

// Close closes fd (queues FIN for connections).
func (c *Client) Close(e *cubicle.Env, fd uint64) uint64 { return c.close_.Call(e, fd)[1] }

// Poll drives the stack; returns the activity count.
func (c *Client) Poll(e *cubicle.Env) uint64 { return c.poll.Call(e)[0] }
