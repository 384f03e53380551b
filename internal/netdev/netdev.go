// Package netdev is the NETDEV component: the virtual network device
// driver of the NGINX deployment (Figure 5). The device moves Ethernet
// frames between component-visible simulated memory and the "wire" — a
// host-side frame queue representing the physical medium, which the load
// generator (siege) attaches to from outside the library OS, exactly like
// the external attacker-controlled input of the threat model.
package netdev

import (
	"cubicleos/internal/cubicle"
	"cubicleos/internal/vm"
)

// Name of the component in deployments.
const Name = "NETDEV"

// MTU is the maximum frame size on the wire (Ethernet payload).
const MTU = 1514

// driverWork models the per-frame driver path (descriptor ring handling,
// doorbell, interrupt coalescing share).
const driverWork = 1400

// frameQueue is a FIFO of frames that pops by advancing a head index, so
// the backing array is reused instead of being walked away from (q = q[1:])
// and reallocated by the next append.
type frameQueue struct {
	q    [][]byte
	head int
}

func (fq *frameQueue) len() int { return len(fq.q) - fq.head }

func (fq *frameQueue) push(f []byte) {
	if len(fq.q) == cap(fq.q) && fq.head >= fq.len() {
		// Full, and at least half of it already popped: slide the live
		// frames down instead of growing.
		n := copy(fq.q, fq.q[fq.head:])
		clear(fq.q[n:])
		fq.q, fq.head = fq.q[:n], 0
	}
	fq.q = append(fq.q, f)
}

// peek returns the oldest frame of a non-empty queue.
func (fq *frameQueue) peek() []byte { return fq.q[fq.head] }

// pop removes and returns the oldest frame of a non-empty queue.
func (fq *frameQueue) pop() []byte {
	f := fq.q[fq.head]
	fq.q[fq.head] = nil
	if fq.head++; fq.head == len(fq.q) {
		fq.q, fq.head = fq.q[:0], 0
	}
	return f
}

// Wire is the physical medium: frame queues between the device and the
// host-side peer. It is trusted-harness state (hardware), not cubicle
// memory.
//
// Frames are MTU-capacity buffers owned by the wire and lent out: a frame
// is on the free list, in one of the two queues, or held by the host
// between Frame and HostSend or between HostRecv and Recycle. The
// list only grows when every frame is in flight, so it is bounded by the
// high-water mark of frames in flight and a steady-state packet path
// allocates nothing. (Not a sync.Pool: what a pool keeps depends on when
// the collector runs, and the benchmark's allocation counts must repeat.)
type Wire struct {
	toHost   frameQueue
	toDevice frameQueue
	free     [][]byte
	// Cap bounds each direction's queue in frames (0 = unbounded, the
	// seed behaviour). A full receive queue drops host frames like a NIC
	// ring overflow; a full transmit queue pushes EAGAIN back into the
	// stack.
	Cap int
	// FramesOut / FramesIn count frames for the experiment reports.
	FramesOut, FramesIn uint64
	// BytesOut / BytesIn count payload bytes.
	BytesOut, BytesIn uint64
	// DropsIn counts host frames dropped at a full receive queue;
	// DropsOut counts device transmits refused at a full send queue.
	DropsIn, DropsOut uint64
	// InjectedDropsIn / InjectedDropsOut count frames the dropper lost in
	// flight (seeded chaos, not queue pressure) per direction.
	InjectedDropsIn, InjectedDropsOut uint64

	// dropper, when set, is consulted once per frame in each direction;
	// true loses the frame in flight (see SetDropper).
	dropper func() bool
	// tap, when set, sees every frame as it is queued (tests only).
	tap func(toHost bool, frame []byte)
}

// SetDropper installs fn as the wire's in-flight loss decision: it is
// consulted once per frame in each direction (host→device before the
// frame reaches the receive queue, device→host after the device believes
// the transmit succeeded — real wire loss is invisible to the sender).
// Implementations are seeded injector streams (faultinject.AtWire) so the
// drop schedule is a deterministic function of the frame sequence. nil
// detaches.
func (w *Wire) SetDropper(fn func() bool) { w.dropper = fn }

// Frame lends out an n-byte frame from the free list: to the host side
// to fill and pass to HostSend, to the device to fill and queue. Its
// contents are undefined: the borrower writes all n bytes.
func (w *Wire) Frame(n int) []byte {
	if k := len(w.free); k > 0 && n <= MTU {
		f := w.free[k-1]
		w.free = w.free[:k-1]
		return f[:n]
	}
	return make([]byte, n, max(n, MTU))
}

// Recycle takes back a frame the host is done with: one HostRecv handed
// out, or one from Frame that was never sent. The caller must not
// touch it afterwards. Foreign slices too small to carry an MTU frame are
// left to the collector.
func (w *Wire) Recycle(frame []byte) {
	if cap(frame) >= MTU {
		w.free = append(w.free, frame)
	}
}

// HostSend injects a frame from the host side (load generator) and takes
// ownership of it. When the bounded receive queue is full the frame is
// dropped — the silicon has no flow control to the wire, exactly like a
// NIC ring overflow.
func (w *Wire) HostSend(frame []byte) {
	if w.dropper != nil && w.dropper() {
		// Lost in flight before reaching the NIC: the host-side sender has
		// no way to know (no wire-level flow control), the device never
		// sees an arrival.
		w.InjectedDropsIn++
		w.Recycle(frame)
		return
	}
	if w.Cap > 0 && w.toDevice.len() >= w.Cap {
		w.DropsIn++
		w.Recycle(frame)
		return
	}
	if w.tap != nil {
		w.tap(false, frame)
	}
	w.toDevice.push(frame)
	w.FramesIn++
	w.BytesIn += uint64(len(frame))
}

// HostRecv pops a frame destined for the host side, or nil. The frame is
// the host's until it hands it back with Recycle.
func (w *Wire) HostRecv() []byte {
	if w.toHost.len() == 0 {
		return nil
	}
	return w.toHost.pop()
}

// Module is the NETDEV component state.
type Module struct {
	wire    *Wire
	staging vm.Addr // device-owned DMA bounce buffer (one MTU frame)
}

// New creates the device attached to a fresh wire.
func New() *Module { return &Module{wire: &Wire{}} }

// Wire returns the device's wire for host-side attachment.
func (d *Module) Wire() *Wire { return d.wire }

// ensureStaging allocates the device's DMA bounce buffer on first use
// (device-owned pages).
func (d *Module) ensureStaging(e *cubicle.Env) {
	if d.staging == 0 {
		d.staging = e.HeapAlloc(2 * vm.PageSize)
	}
}

// tx transmits a frame from caller memory: DMA-copies it through the
// device bounce buffer onto the wire. The caller must have opened a
// window over the frame buffer for NETDEV.
func (d *Module) tx(e *cubicle.Env, ptr, n uint64) []uint64 {
	e.Work(driverWork)
	if n == 0 || n > MTU {
		return e.Ret(0, 22) // EINVAL
	}
	if d.wire.Cap > 0 && d.wire.toHost.len() >= d.wire.Cap {
		// Bounded transmit queue: explicit backpressure to the stack
		// instead of unbounded growth.
		d.wire.DropsOut++
		return e.Ret(0, 11) // EAGAIN
	}
	d.ensureStaging(e)
	e.Memcpy(d.staging, vm.Addr(ptr), n)
	frame := d.wire.Frame(int(n))
	e.Read(d.staging, frame)
	d.wire.FramesOut++
	d.wire.BytesOut += n
	if d.wire.dropper != nil && d.wire.dropper() {
		// Lost in flight after leaving the device: the transmit succeeded
		// as far as the stack can tell, the peer never sees the frame.
		d.wire.InjectedDropsOut++
		d.wire.Recycle(frame)
		return e.Ret(n, 0)
	}
	if d.wire.tap != nil {
		d.wire.tap(true, frame)
	}
	d.wire.toHost.push(frame)
	return e.Ret(n, 0)
}

// rx receives the next pending frame into caller memory; returns 0 bytes
// when no frame is pending.
func (d *Module) rx(e *cubicle.Env, ptr, maxLen uint64) []uint64 {
	e.Work(driverWork)
	if d.wire.toDevice.len() == 0 {
		return e.Ret(0, 0)
	}
	frame := d.wire.toDevice.peek()
	if uint64(len(frame)) > maxLen {
		return e.Ret(0, 22)
	}
	d.wire.toDevice.pop()
	d.ensureStaging(e)
	e.Write(d.staging, frame)
	n := uint64(len(frame))
	e.Memcpy(vm.Addr(ptr), d.staging, n)
	d.wire.Recycle(frame)
	return e.Ret(n, 0)
}

// Component returns the NETDEV component for the builder.
func (d *Module) Component() *cubicle.Component {
	return &cubicle.Component{
		Name: Name,
		Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{
			{Name: "netdev_tx", RegArgs: 2, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				return d.tx(e, a[0], a[1])
			}},
			{Name: "netdev_rx", RegArgs: 2, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				return d.rx(e, a[0], a[1])
			}},
			{Name: "netdev_rx_ready", Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				e.Work(60)
				return e.Ret(uint64(d.wire.toDevice.len()), 0)
			}},
		},
	}
}

// Client is typed access to NETDEV from another cubicle.
type Client struct {
	tx, rx, ready cubicle.Handle
}

// NewClient resolves NETDEV for a caller cubicle.
func NewClient(m *cubicle.Monitor, caller cubicle.ID) *Client {
	return &Client{
		tx:    m.MustResolve(caller, Name, "netdev_tx"),
		rx:    m.MustResolve(caller, Name, "netdev_rx"),
		ready: m.MustResolve(caller, Name, "netdev_rx_ready"),
	}
}

// Tx transmits n bytes at ptr; returns bytes sent and errno.
func (c *Client) Tx(e *cubicle.Env, ptr vm.Addr, n uint64) (uint64, uint64) {
	r := c.tx.Call(e, uint64(ptr), n)
	return r[0], r[1]
}

// Rx receives a frame into ptr; returns frame length (0 = none) and errno.
func (c *Client) Rx(e *cubicle.Env, ptr vm.Addr, maxLen uint64) (uint64, uint64) {
	r := c.rx.Call(e, uint64(ptr), maxLen)
	return r[0], r[1]
}

// RxReady returns the number of pending receive frames. No run calls it; it
// stays with the handle NewClient resolves at boot, part of the component
// ABI (ROADMAP item 15).
func (c *Client) RxReady(e *cubicle.Env) uint64 { return c.ready.Call(e)[0] }
