// Package siege is the load generator of the paper's NGINX evaluation
// (§6.3): it attaches a host-side TCP peer to the NETDEV wire, issues
// GET requests for static files, and measures per-request download
// latency on the virtual clock. Like the real siege utility it runs
// outside the system under test.
package siege

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/faultinject"
	"cubicleos/internal/httpd"
	"cubicleos/internal/lwip"
	"cubicleos/internal/plat"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/ualloc"
	"cubicleos/internal/uktime"
	"cubicleos/internal/vfscore"
)

// DefaultRequestFloor is the fixed client+network+connection cost per
// request in cycles (~5 ms at 2.2 GHz): the share of the paper's 5–6 ms
// small-file latency that belongs to siege, the kernel network path and
// the physical link rather than to the library OS under test. It is
// identical for the baseline and CubicleOS runs.
const DefaultRequestFloor = 11_000_000

// Target is a booted NGINX deployment plus an attached load generator.
type Target struct {
	Sys  *boot.System
	Srv  *httpd.Server
	Peer *lwip.Peer

	stepH cubicle.Handle
	// RequestFloor is added to every request's measured cycles.
	RequestFloor uint64
	// flights is the one-slot flight list a Fetch lends its run, kept so
	// that a closed-loop request allocates no list of its own.
	flights []olFlight
	// kept is the connection whose receive buffer the last Fetch's
	// Result.Body points into. The next request on the target recycles it.
	kept *lwip.PeerConn
}

// Options configures a target boot beyond the isolation mode.
type Options struct {
	Mode cubicle.Mode
	// TraceEvents/TraceSamplePeriod enable the observability layer from
	// cycle 0: a trace ring of that many events plus, when the period is
	// non-zero, the virtual-clock sampling profiler. Inspect the run
	// through Target.Sys.M.Tracer().
	TraceEvents       int
	TraceSamplePeriod uint64
	// MetricsInterval/MetricsRing enable the virtual-time metrics pipeline
	// (see boot.Config). When enabled, the server also answers
	// GET /metrics with the monitor's OpenMetrics exposition.
	MetricsInterval uint64
	MetricsRing     int
	// Supervision enables fault containment with the given restart policy.
	Supervision *cubicle.RestartPolicy
	// Chaos attaches a deterministic fault injector (disarmed; arm it via
	// Target.Sys.Chaos once provisioning is done).
	Chaos *faultinject.Config
	// Governance, when non-nil, arms the server's overload protection
	// (admission control, request deadlines, shed responses).
	Governance *httpd.Governance
	// MemQuotas / WireCap / ReapClosed pass through to boot.Config — the
	// resource-governance side of overload protection.
	MemQuotas  map[string]uint64
	WireCap    int
	ReapClosed bool
	// SMPCores passes through to boot.Config: > 1 adds the retag
	// shootdown surcharge for the remote cores.
	SMPCores int
	// CheckpointInterval passes through to boot.Config: > 0 makes the
	// monitor checkpoint quiescent cubicles on that virtual-clock cadence,
	// so supervised restarts can restore warm state instead of rebuilding
	// from empty.
	CheckpointInterval uint64
	// Cluster passes through to boot.Config: this target's backend index
	// when it boots as one member of a virtual cluster, keying the
	// per-backend chaos decision streams. 0 for standalone targets.
	Cluster int
}

// Governed returns o with overload protection on — the one declaration of
// the governed deployment that httpbench -openloop sweeps and cubicle-top
// watches: supervision with the crossing watchdog off (overload exercises
// deadlines and quotas, not runaway crossings), admission control at 16
// connections answering Retry-After: 1, a 256-frame wire and closed
// sockets reaped.
func (o Options) Governed() Options {
	pol := cubicle.DefaultRestartPolicy()
	pol.CrossingBudget = 0
	o.Supervision = &pol
	o.Governance = &httpd.Governance{MaxConns: 16, RetryAfter: 1, Retry: cubicle.DefaultRetryPolicy()}
	o.WireCap = 256
	o.ReapClosed = true
	return o
}

// Chaotic returns o under supervision with deterministic faults aimed at
// RAMFS from seed — the one declaration of the chaos run that
// cubicle-trace -chaos-seed, the recovery tests and the pinned replay
// digests drive. The policy allows 1000 restarts (these runs assert
// recovery, not death) and a 200 M-cycle crossing watchdog.
func (o Options) Chaotic(seed uint64) Options {
	pol := cubicle.DefaultRestartPolicy()
	pol.MaxRestarts = 1000
	pol.CrossingBudget = 200_000_000
	o.Supervision = &pol
	o.Chaos = &faultinject.Config{
		Seed:             seed,
		Target:           ramfs.Name,
		ProtAtCrossing:   0.010,
		CFIAtCrossing:    0.003,
		BudgetAtCrossing: 0.002,
		LeakAtCrossing:   0.005,
		ProtAtWindowOp:   0.003,
		ProtAtRetag:      0.002,
	}
	return o
}

// NewTarget boots the Figure 5 deployment: eight isolated cubicles
// (NGINX, LWIP, NETDEV, VFSCORE, RAMFS, PLAT, ALLOC, TIME) with LIBC and
// RANDOM shared, every buffer allocated through ALLOC, in the given
// isolation mode.
func NewTarget(mode cubicle.Mode) (*Target, error) {
	return NewTargetOpts(Options{Mode: mode})
}

// NewTargetOpts boots the deployment with the full option set, including
// supervision and chaos injection for robustness runs.
func NewTargetOpts(o Options) (*Target, error) {
	srv := httpd.New(80)
	sys, err := boot.NewFS(boot.Config{
		Mode:               o.Mode,
		Net:                true,
		RamfsViaAlloc:      true,
		LwipViaAlloc:       true,
		Extra:              []*cubicle.Component{srv.Component()},
		TraceEvents:        o.TraceEvents,
		TraceSamplePeriod:  o.TraceSamplePeriod,
		MetricsInterval:    o.MetricsInterval,
		MetricsRing:        o.MetricsRing,
		Supervision:        o.Supervision,
		Chaos:              o.Chaos,
		MemQuotas:          o.MemQuotas,
		WireCap:            o.WireCap,
		LwipReapClosed:     o.ReapClosed,
		SMPCores:           o.SMPCores,
		CheckpointInterval: o.CheckpointInterval,
		Cluster:            o.Cluster,
	})
	if err != nil {
		return nil, err
	}
	// Both the baseline and CubicleOS runs execute Unikraft-based
	// component code (boot.UnikraftWorkScale models its efficiency gap
	// versus native kernels).
	sys.M.Clock.SetWorkScale(boot.UnikraftWorkScale)
	m := sys.M
	ngx := sys.Cubs[httpd.Name].ID
	srv.SetDeps(
		lwip.NewClient(m, ngx),
		vfscore.NewClient(m, ngx),
		uktime.NewClient(m, ngx),
		plat.NewClient(m, ngx),
		&ualloc.Remote{C: ualloc.NewClient(m, ngx)},
		sys.Cubs[lwip.Name].ID,
		sys.Cubs[vfscore.Name].ID,
		sys.Cubs[ramfs.Name].ID,
		sys.Cubs[plat.Name].ID,
	)
	t := &Target{
		Sys:          sys,
		Srv:          srv,
		Peer:         lwip.NewPeer(sys.Netdev.Wire()),
		stepH:        m.MustResolve(cubicle.MonitorID, httpd.Name, "nginx_step"),
		RequestFloor: DefaultRequestFloor,
	}
	if o.Governance != nil {
		srv.SetGovernance(*o.Governance)
	}
	if o.MetricsInterval > 0 {
		srv.SetMetricsSource(sys.M.OpenMetricsBody)
	}
	if errno := m.MustResolve(cubicle.MonitorID, httpd.Name, "nginx_init").Call(sys.Env)[0]; errno != 0 {
		return nil, fmt.Errorf("siege: nginx_init failed with errno %d", errno)
	}
	return t, nil
}

// PutFile provisions a static file on the server. Chaos injection, if
// attached and armed, is suspended for the duration: provisioning is the
// operator's recovery action, not part of the workload under test.
func (t *Target) PutFile(path string, data []byte) error {
	if inj := t.Sys.Chaos; inj != nil && inj.Armed() {
		inj.Disarm()
		defer inj.Arm()
	}
	var errno uint64
	err := t.Sys.RunAs(httpd.Name, func(e *cubicle.Env) {
		errno = t.Srv.Provision(e, path, data)
	})
	if err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("siege: provision %s: errno %d", path, errno)
	}
	return nil
}

// Result is one completed request.
type Result struct {
	Status int
	// Body is a view of the connection's receive buffer, not a copy. It is
	// valid until the next Fetch, FetchUntil or StartOpenLoop on the same
	// Target (the bufio.Scanner.Bytes rule): that call hands the buffer
	// back to the peer and a later response overwrites it. Copy what must
	// outlive it.
	Body []byte
	// Cycles is the virtual cycles the system spent on the request
	// (excluding the client/network floor).
	Cycles uint64
	// Latency is the modelled end-to-end download latency: system cycles
	// plus the request floor, at 2.20 GHz.
	Latency time.Duration
}

// Fetch issues GET path and drives the system until the response is
// complete (server closes after each response, HTTP/1.0 style).
func (t *Target) Fetch(path string) (*Result, error) {
	return t.FetchUntil(path, math.MaxUint64)
}

// ErrHalted is returned by FetchUntil when the virtual clock reached the
// stop cycle before the response completed.
var ErrHalted = errors.New("siege: virtual clock reached the stop cycle")

// FetchUntil is Fetch with a replay halt: it stops driving the system as
// soon as the virtual clock reaches stop, returning ErrHalted with every
// event of Cycle <= stop emitted, which is what makes the record/replay
// prefix comparison exact. The request is a run of the one request loop
// (OpenLoopDriver) with a single arrival due now and the response kept;
// the run lives on this stack frame. Being a closed loop it waits for its
// response up to the step bound, with no idle give-up.
func (t *Target) FetchUntil(path string, stop uint64) (*Result, error) {
	t.recycleKept()
	clk := t.Sys.M.Clock
	now := clk.Cycles()
	if now >= stop {
		return nil, ErrHalted
	}
	res := new(Result)
	r := OpenLoopDriver{
		t:         t,
		clock:     clk,
		req:       getRequest(path, "HTTP/1.0"),
		requests:  1,
		start:     now,
		next:      now,
		stop:      stop,
		live:      t.flights[:0],
		maxSteps:  5_000_000,
		idleLimit: 5_000_000,
		kept:      res,
	}
	for r.step() {
	}
	t.flights = r.live
	switch {
	case r.err != nil:
		return nil, r.err
	case r.st.Dropped > 0:
		return nil, fmt.Errorf("siege: request for %s did not complete", path)
	}
	return res, nil
}

// recycleKept ends the life of the body the previous Fetch returned: its
// caller has made the next request, so by Result.Body's rule nobody reads
// it any more and the buffer can carry a later response.
func (t *Target) recycleKept() {
	if t.kept != nil {
		recycle(t.kept)
		t.kept = nil
	}
}

// poisonRecycled makes recycle fill a buffer with 0xDD on its way to the
// peer's free list, so that a reader of a dead body fails its checksum
// instead of passing on bytes nobody has overwritten yet. The package's
// tests set it, for all of them.
var poisonRecycled bool

// recycle detaches a finished connection and hands its receive buffer
// back to the peer. The caller vouches that nothing reads it any more.
func recycle(c *lwip.PeerConn) {
	if poisonRecycled {
		b := c.Received()
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xDD
		}
	}
	c.Recycle()
}

// getRequest builds the GET the load generator sends for path, in the
// given protocol version ("HTTP/1.0": the server's close delimits the
// response; "HTTP/1.1": keep-alive, Content-Length delimits it).
func getRequest(path, proto string) []byte {
	const get, headers = "GET ", "\r\nHost: cubicle\r\nUser-Agent: siege-sim\r\n\r\n"
	req := make([]byte, 0, len(get)+len(path)+1+len(proto)+len(headers))
	req = append(req, get...)
	req = append(req, path...)
	req = append(req, ' ')
	req = append(req, proto...)
	return append(req, headers...)
}

// respHead is a response's status line and header block.
type respHead struct {
	proto  []byte // "HTTP/1.1"
	status int
	fields []byte // the header lines after the status line, CRLF-separated
	bodyAt int    // offset of the first body byte
}

// parseHead is the one status-line scan behind both response framings
// (close-delimited parseResponse, length-delimited KAConn.Next). ok is
// false while raw holds no complete header block yet.
func parseHead(raw []byte) (h respHead, ok bool, err error) {
	end := bytes.Index(raw, []byte("\r\n\r\n"))
	if end < 0 {
		return h, false, nil
	}
	line, fields, _ := bytes.Cut(raw[:end], []byte("\r\n"))
	proto, rest := field(line)
	code, _ := field(rest)
	if len(code) == 0 {
		return h, true, fmt.Errorf("siege: malformed status line %.80q", line)
	}
	status, err := strconv.Atoi(string(code))
	if err != nil {
		return h, true, fmt.Errorf("siege: bad status %q", code)
	}
	return respHead{proto: proto, status: status, fields: fields, bodyAt: end + 4}, true, nil
}

// parseResponse splits a complete HTTP/1.0 response into its status code
// and body. The body is a sub-slice of raw, not a copy: raw is a
// PeerConn's receive buffer, so the body lives until whoever owns the
// connection calls Recycle on it (complete, recycleKept), and for ever on a
// connection nobody recycles.
func parseResponse(raw []byte) (status int, body []byte, err error) {
	h, ok, err := parseHead(raw)
	if !ok {
		return 0, nil, fmt.Errorf("siege: malformed response %.80q", raw)
	}
	if err != nil {
		return 0, nil, err
	}
	return h.status, raw[h.bodyAt:], nil
}

// field returns the first blank-delimited token of b and what follows it.
func field(b []byte) (tok, rest []byte) {
	b = bytes.TrimLeft(b, " \t")
	if i := bytes.IndexAny(b, " \t"); i >= 0 {
		return b[:i], b[i:]
	}
	return b, nil
}

// Step drives one server iteration (nginx_step) without pumping the
// peer: the only crossing into the server after boot. The request loop
// calls it, and so does the cluster driver to advance each backend in
// lockstep with the cluster clock; callers own the CatchContained
// wrapping, since a quarantined NGINX refuses the crossing with a
// ContainedFault.
func (t *Target) Step() uint64 { return t.stepH.Call(t.Sys.Env)[0] }

// Edges returns the cross-cubicle call-count table of the run so far —
// the data behind Figure 5.
func (t *Target) Edges() []cubicle.EdgeCount { return t.Sys.M.Stats.SortedEdges() }
