// Package ukernel implements the paper's component-based baselines
// (§6.5): the same library OS components deployed behind message-based
// interfaces, as Genode arranges them on seL4, Fiasco.OC, NOVA, or the
// Linux kernel. Every cross-component call becomes a synchronous IPC: the
// arguments are marshalled into a message (payload buffers are copied —
// message interfaces cannot pass pointers), the kernel switches to the
// callee, the dispatcher unpacks and runs the operation, and the reply
// (with any out-payload) is copied back. This is exactly the
// data-marshalling + context-switch overhead of Figure 1b that CubicleOS'
// windows avoid.
package ukernel

import (
	"fmt"

	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cycles"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/vfscore"
)

// KernelModel parameterises the per-IPC costs of one kernel as deployed
// under the Genode framework (version 20.05 in the paper). Two boundaries
// have very different prices: the application reaches the Core/VFS module
// through Genode's libc VFS plugin over a shared-memory session (cheap),
// while a separated file-system backend is reached through Genode's
// file-system session protocol — a full per-operation RPC with packet
// marshalling and server thread scheduling (expensive). That asymmetry is
// exactly why the paper's Figure 10 shows Genode-3 at only 1.4× Linux but
// Genode-4 (RAMFS separated) at 29×.
type KernelModel struct {
	Name string
	// AppCallCycles is one application→Core VFS call via the libc
	// plugin / shared-memory session path.
	AppCallCycles uint64
	// BackendCallCycles is one Core→backend file-system-session RPC
	// round trip: kernel IPC both ways, packet allocation, framework
	// dispatch, server thread wakeup.
	BackendCallCycles uint64
	// CopyChunk16 is the marshalling copy cost per 16 payload bytes,
	// paid once into the message and once out of it per direction.
	CopyChunk16 uint64
}

// Kernel models, calibrated so the Figure 10b separation slowdowns land
// near the paper's (seL4 7.5×, Fiasco.OC 4.5×, NOVA 4.7×, Genode/Linux
// ≈20×, the paper's Figure 10a 29/1.4). EXPERIMENTS.md records the
// calibration method.
var (
	SeL4        = KernelModel{Name: "SeL4", AppCallCycles: 2000, BackendCallCycles: 54000, CopyChunk16: 2}
	FiascoOC    = KernelModel{Name: "Fiasco.OC", AppCallCycles: 1800, BackendCallCycles: 28000, CopyChunk16: 2}
	NOVA        = KernelModel{Name: "NOVA", AppCallCycles: 1850, BackendCallCycles: 30000, CopyChunk16: 2}
	GenodeLinux = KernelModel{Name: "Genode/Linux", AppCallCycles: 2000, BackendCallCycles: 125000, CopyChunk16: 3}
)

// Models lists the microkernel models of Figure 10b.
var Models = []KernelModel{SeL4, FiascoOC, NOVA, GenodeLinux}

// payloadSpec describes the buffer arguments of one operation: which
// argument is the buffer pointer, which carries the length, and the copy
// direction(s).
type payloadSpec struct {
	lenArg int // -1: no payload
	in     bool
	out    bool
	// outLenFromRet: actual out-copy length is the first result word
	// (e.g. bytes read).
	outLenFromRet bool
}

// vfsSpecs describes the application→VFS RPC interface.
var vfsSpecs = map[string]payloadSpec{
	"vfs_open":   {lenArg: 1, in: true},
	"vfs_close":  {lenArg: -1},
	"vfs_pread":  {lenArg: 2, out: true, outLenFromRet: true},
	"vfs_pwrite": {lenArg: 2, in: true},
	"vfs_stat":   {lenArg: 1, in: true},
	"vfs_fstat":  {lenArg: -1},
	"vfs_fsync":  {lenArg: -1},
	"vfs_unlink": {lenArg: 1, in: true},
}

// backendSpecs describes the VFS→backend RPC interface.
var backendSpecs = map[string]payloadSpec{
	"lookup":  {lenArg: 1, in: true},
	"create":  {lenArg: 1, in: true},
	"read":    {lenArg: 3, out: true, outLenFromRet: true},
	"write":   {lenArg: 3, in: true},
	"getsize": {lenArg: -1},
	"setsize": {lenArg: -1},
	"unlink":  {lenArg: 1, in: true},
	"fsync":   {lenArg: -1},
}

// Stats counts IPC activity.
type Stats struct {
	Calls       uint64
	BytesCopied uint64
}

// ipcCall wraps an entry point with message-passing costs.
type ipcCall struct {
	inner vfscore.Caller
	model KernelModel
	spec  payloadSpec
	name  string // operation name, for trace events
	cost  uint64 // per-call IPC cost of this boundary
	stats *Stats
}

// Call marshals, switches, dispatches and replies.
func (c ipcCall) Call(e *cubicle.Env, args ...uint64) []uint64 {
	c.stats.Calls++
	clock := e.M.Clock
	clock.Charge(c.cost)
	overhead := c.cost
	// In-payload: copy into the message at the caller, out of it at the
	// callee (two copies).
	var payload uint64
	if c.spec.lenArg >= 0 && c.spec.in {
		n := args[c.spec.lenArg]
		copyCost := ((n + 15) / 16) * c.model.CopyChunk16 * 2
		clock.Charge(copyCost)
		overhead += copyCost
		c.stats.BytesCopied += 2 * n
		payload += 2 * n
	}
	rets := c.inner.Call(e, args...)
	// Out-payload: copy into the reply message and out at the caller.
	if c.spec.lenArg >= 0 && c.spec.out {
		n := args[c.spec.lenArg]
		if c.spec.outLenFromRet && len(rets) > 0 && rets[0] < n {
			n = rets[0]
		}
		copyCost := ((n + 15) / 16) * c.model.CopyChunk16 * 2
		clock.Charge(copyCost)
		overhead += copyCost
		c.stats.BytesCopied += 2 * n
		payload += 2 * n
	}
	e.NoteIPC(c.name, payload, overhead)
	return rets
}

// Deployment is a booted message-passing system in the Figure 9 shape.
type Deployment struct {
	Sys   *boot.System
	Model KernelModel
	// Components is 3 (SQLITE, CORE incl. RAMFS, TIMER) or 4 (RAMFS
	// separated from CORE) — Figure 9a/9b.
	Components int
	Stats      Stats
	// VFS is the application's IPC-wrapped VFS client.
	VFS *vfscore.Client
}

// NewSQLite boots the paper's SQLite partitioning experiment on a
// message-passing kernel: the same components as the CubicleOS
// deployment, but with IPC-marshalled boundaries instead of windows. The
// appName component is added as the application compartment.
func NewSQLite(model KernelModel, components int, app *cubicle.Component) (*Deployment, error) {
	if components != 3 && components != 4 {
		return nil, fmt.Errorf("ukernel: components must be 3 or 4 (Figure 9)")
	}
	// The underlying machine runs without MPK (address-space isolation
	// is the kernel's job here); all isolation cost comes from IPC.
	sys, err := boot.NewFS(boot.Config{
		Mode:   cubicle.ModeUnikraft,
		Groups: map[string]string{vfscore.Name: "CORE", ramfs.Name: "CORE"},
		Extra:  []*cubicle.Component{app},
	})
	if err != nil {
		return nil, err
	}
	d := &Deployment{Sys: sys, Model: model, Components: components}
	// Genode's components are native, optimised code: the Core VFS and
	// RAMFS server path lengths are Linux-like, not Unikraft-like.
	sys.VFS.SetOpWork(linuxVFSWork)
	sys.Ramfs.SetOpWork(linuxRamfsWork)

	wrap := func(specs map[string]payloadSpec, cost uint64) func(string, vfscore.Caller) vfscore.Caller {
		return func(name string, inner vfscore.Caller) vfscore.Caller {
			spec, ok := specs[name]
			if !ok {
				spec = payloadSpec{lenArg: -1}
			}
			return ipcCall{inner: inner, model: model, spec: spec, name: name, cost: cost, stats: &d.Stats}
		}
	}

	// Application → CORE boundary is always an IPC.
	d.VFS = vfscore.NewClient(sys.M, sys.Cubs[app.Name].ID)
	d.VFS.Wrap(wrap(vfsSpecs, model.AppCallCycles))

	// CORE → RAMFS boundary becomes an IPC only in the 4-component
	// configuration (Figure 9b separates the RAMFS driver).
	backend := ramfs.BackendTable(sys.M, sys.Cubs[vfscore.Name].ID)
	if components == 4 {
		backend = vfscore.WrapBackend(backend, wrap(backendSpecs, model.BackendCallCycles))
	}
	sys.VFS.SetBackend(backend)
	return d, nil
}

// LinuxDeployment models the paper's Linux baseline: the application
// calls a monolithic, highly optimised kernel via plain system calls.
type LinuxDeployment struct {
	Sys *boot.System
	VFS *vfscore.Client
	// Syscalls counts kernel entries.
	Syscalls uint64
}

// Linux path costs: a monolithic kernel's VFS+tmpfs path is much shorter
// than Unikraft 0.4's vfscore+ramfs (the paper measures Unikraft at 2.8×
// Linux for speedtest1).
const (
	linuxVFSWork   = 150
	linuxRamfsWork = 100
)

// NewLinuxSQLite boots the Linux baseline.
func NewLinuxSQLite(app *cubicle.Component) (*LinuxDeployment, error) {
	sys, err := boot.NewFS(boot.Config{
		Mode:   cubicle.ModeUnikraft,
		Groups: map[string]string{vfscore.Name: "KERNEL", ramfs.Name: "KERNEL"},
		Extra:  []*cubicle.Component{app},
	})
	if err != nil {
		return nil, err
	}
	sys.VFS.SetOpWork(linuxVFSWork)
	sys.Ramfs.SetOpWork(linuxRamfsWork)
	d := &LinuxDeployment{Sys: sys}
	d.VFS = vfscore.NewClient(sys.M, sys.Cubs[app.Name].ID)
	costs := sys.M.Costs
	d.VFS.Wrap(func(name string, inner vfscore.Caller) vfscore.Caller {
		return syscallCall{inner: inner, clock: sys.M.Clock, cost: costs.SyscallLinux, count: &d.Syscalls}
	})
	return d, nil
}

// syscallCall charges one kernel entry/exit per operation.
type syscallCall struct {
	inner vfscore.Caller
	clock *cycles.Clock
	cost  uint64
	count *uint64
}

func (c syscallCall) Call(e *cubicle.Env, args ...uint64) []uint64 {
	*c.count++
	c.clock.Charge(c.cost)
	return c.inner.Call(e, args...)
}
