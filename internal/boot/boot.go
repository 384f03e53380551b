// Package boot assembles CubicleOS deployments: it runs the builder over
// a component set, loads the resulting system image, and performs the
// load-time wiring (callback-table interposition, allocator strategy
// injection) that the paper's loader does for Unikraft systems.
package boot

import (
	"fmt"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cycles"
	"cubicleos/internal/faultinject"
	"cubicleos/internal/lwip"
	"cubicleos/internal/netdev"
	"cubicleos/internal/plat"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/trace"
	"cubicleos/internal/ualloc"
	"cubicleos/internal/uktime"
	"cubicleos/internal/ulibc"
	"cubicleos/internal/urandom"
	"cubicleos/internal/vfscore"
)

// UnikraftWorkScale models the compute-efficiency gap between Unikraft
// 0.4 and native Linux that the paper measures (speedtest1 on plain
// Unikraft runs ≈2.8× slower than on Linux even without any isolation):
// immature allocators, unoptimised libc routines and a single-threaded
// runtime make the same modelled computation cost more cycles. Set it
// with Monitor.Clock.SetWorkScale on Unikraft-based deployments
// (including CubicleOS, which builds on Unikraft); Linux- and
// Genode-hosted baselines use 1.0.
const UnikraftWorkScale = 3.4

// Config describes a deployment.
type Config struct {
	// Mode is the isolation mode (Figure 6 ablation ladder).
	Mode cubicle.Mode
	// Groups fuses components into shared cubicles (component -> group
	// name), e.g. {"VFSCORE": "CORE", "RAMFS": "CORE"} for CubicleOS-3.
	Groups map[string]string
	// Net adds the network stack (NETDEV and LWIP) to the deployment.
	Net bool
	// RamfsViaAlloc makes RAMFS obtain file pages from the ALLOC
	// component (NGINX deployment) instead of its own sub-allocator
	// (SQLite deployment).
	RamfsViaAlloc bool
	// LwipViaAlloc makes LWIP obtain socket buffers from the ALLOC
	// component (NGINX deployment).
	LwipViaAlloc bool
	// Extra components joined into the build (applications).
	Extra []*cubicle.Component
	// Seed for the shared random device.
	Seed uint64
	// TraceEvents, when non-zero, enables the observability layer with a
	// ring of that many events, attached before any component loads so
	// the per-cubicle cycle profile covers the whole virtual clock.
	TraceEvents int
	// TraceSamplePeriod, when non-zero with TraceEvents, starts the
	// virtual-clock sampling profiler with that period in cycles.
	TraceSamplePeriod uint64
	// MetricsInterval, when non-zero, enables the virtual-time metrics
	// pipeline: every that many virtual cycles the monitor snapshots its
	// counters, rates and health ladder into a bounded time-series ring
	// (see Monitor.EnableMetrics). Independent of TraceEvents, though the
	// crossing-latency percentiles in each sample need tracing on.
	MetricsInterval uint64
	// MetricsRing bounds the sample ring (0 = default 256 samples).
	MetricsRing int
	// Supervision, when non-nil, enables fault containment with this
	// restart policy: faults in a callee cubicle unwind only to the
	// crossing, the cubicle is quarantined and later restarted.
	Supervision *cubicle.RestartPolicy
	// Chaos, when non-nil, attaches a deterministic fault injector after
	// boot wiring completes. The injector starts disarmed; arm it via
	// System.Chaos once provisioning is done.
	Chaos *faultinject.Config
	// MemQuotas caps named cubicles' monitor page footprints in bytes;
	// a cubicle exceeding its cap gets a contained QuotaFault instead of
	// more pages. Group names are valid keys when Groups fuses cubicles.
	MemQuotas map[string]uint64
	// WireCap bounds the NETDEV wire queues in frames per direction
	// (0 = unbounded). A full queue drops or backpressures explicitly.
	WireCap int
	// LwipReapClosed enables reclamation of fully closed LWIP sockets,
	// bounding the stack's memory under connection churn.
	LwipReapClosed bool
	// CheckpointInterval, when non-zero, arms warm recovery: every that
	// many virtual cycles the monitor captures a checkpoint of each
	// quiescent checkpointable cubicle, and the supervisor's restart path
	// restores the last good checkpoint instead of rebuilding from empty.
	// Meaningful with Supervision set; harmless without it (checkpoints
	// are taken but never consumed).
	CheckpointInterval uint64
	// SMPCores, when > 1, gives the simulated machine that many cores:
	// every retag pays a libmpk-style synchronisation charge per remote
	// core. The default (0 or 1) charges nothing, and its figures are
	// byte-identical to the seed.
	SMPCores int
	// Cluster is this system's backend index when it boots as one member
	// of a virtual cluster (internal/cluster); 0 for standalone systems.
	// It keys the per-backend chaos decision streams — most importantly
	// the wire-drop schedule, which is wired here when Chaos sets
	// DropAtWire — so every backend loses different frames under the same
	// cluster seed.
	Cluster int
}

// System is a booted deployment.
type System struct {
	M    *cubicle.Monitor
	Env  *cubicle.Env
	Cubs map[string]*cubicle.Cubicle

	Plat   *plat.Module
	Time   *uktime.Module
	Alloc  *ualloc.Module
	VFS    *vfscore.Module
	Ramfs  *ramfs.Module
	Rand   *urandom.Device
	Netdev *netdev.Module // nil unless Config.Net
	Lwip   *lwip.Module   // nil unless Config.Net

	// Sup is the fault-containment supervisor (nil unless
	// Config.Supervision was set).
	Sup *cubicle.Supervisor
	// Chaos is the deterministic fault injector (nil unless Config.Chaos
	// was set). It boots disarmed.
	Chaos *faultinject.Injector
}

// NewFS boots the file-system stack: PLAT, TIME, ALLOC, LIBC, RANDOM,
// VFSCORE and RAMFS, plus any extra application components, in the given
// mode. The VFSCORE→RAMFS callback table is interposed with cross-cubicle
// handles, and RAMFS gets its allocator strategy.
func NewFS(cfg Config) (*System, error) {
	if cfg.TraceEvents > trace.MaxRing || cfg.MetricsRing > trace.MaxRing {
		return nil, fmt.Errorf("boot: a ring holds at most %d entries (trace %d, metrics %d)",
			trace.MaxRing, cfg.TraceEvents, cfg.MetricsRing)
	}
	s := &System{
		Plat:  plat.New(),
		Alloc: ualloc.New(),
		VFS:   vfscore.New(),
		Ramfs: ramfs.New(),
		Rand:  urandom.New(cfg.Seed),
	}
	m := cubicle.NewMonitor(cfg.Mode, cycles.DefaultCosts())
	if cfg.SMPCores > 1 {
		m.EnableSMP(cfg.SMPCores)
	}
	if cfg.TraceEvents > 0 {
		trc := m.EnableTracing(cfg.TraceEvents)
		if cfg.TraceSamplePeriod > 0 {
			trc.EnableSampling(cfg.TraceSamplePeriod)
		}
	}
	if cfg.MetricsInterval > 0 {
		ring := cfg.MetricsRing
		if ring == 0 {
			ring = 256
		}
		m.EnableMetrics(cfg.MetricsInterval, ring)
	}
	if cfg.Supervision != nil {
		s.Sup = m.EnableContainment(*cfg.Supervision)
	}
	if cfg.CheckpointInterval > 0 {
		m.EnableCheckpoints(cfg.CheckpointInterval)
	}
	s.M = m
	s.Time = uktime.New(m.Clock)

	b := cubicle.NewBuilder()
	for _, c := range []*cubicle.Component{
		s.Plat.Component(),
		s.Time.Component(),
		s.Alloc.Component(),
		ulibc.Component(),
		s.Rand.Component(),
		s.VFS.Component(),
		s.Ramfs.Component(),
	} {
		if err := b.Add(c); err != nil {
			return nil, err
		}
	}
	if cfg.Net {
		s.Netdev = netdev.New()
		s.Lwip = lwip.New()
		if err := b.Add(s.Netdev.Component()); err != nil {
			return nil, err
		}
		if err := b.Add(s.Lwip.Component()); err != nil {
			return nil, err
		}
	}
	for _, c := range cfg.Extra {
		if err := b.Add(c); err != nil {
			return nil, err
		}
	}
	si, err := b.Build()
	if err != nil {
		return nil, err
	}
	cubs, err := cubicle.NewLoader(m).LoadSystem(si, cfg.Groups)
	if err != nil {
		return nil, err
	}
	s.Cubs = cubs
	s.Env = m.NewEnv(m.NewThread())

	// Load-time wiring: the VFS backend callback table is resolved as
	// dynamic symbols on behalf of the VFSCORE cubicle (§5.2), and RAMFS
	// receives its allocator strategy and LIBC client.
	s.VFS.SetBackend(ramfs.BackendTable(m, cubs[vfscore.Name].ID))
	ramfsID := cubs[ramfs.Name].ID
	var alloc ualloc.Allocator
	if cfg.RamfsViaAlloc {
		alloc = &ualloc.Remote{C: ualloc.NewClient(m, ramfsID)}
	} else {
		alloc = ualloc.NewLocal()
	}
	s.Ramfs.SetDeps(alloc, ulibc.NewClient(m, ramfsID))
	if cfg.Net {
		lwipID := cubs[lwip.Name].ID
		var lalloc ualloc.Allocator
		if cfg.LwipViaAlloc {
			lalloc = &ualloc.Remote{C: ualloc.NewClient(m, lwipID)}
		} else {
			lalloc = ualloc.NewLocal()
		}
		s.Lwip.SetDeps(netdev.NewClient(m, lwipID), lalloc, cubs[netdev.Name].ID)
	}
	// Resource governance: applied after load so quotas see the booted
	// cubicle IDs but before any workload pages are mapped.
	for name, q := range cfg.MemQuotas {
		c, ok := cubs[name]
		if !ok {
			return nil, fmt.Errorf("boot: MemQuotas names unknown cubicle %q", name)
		}
		m.SetMemQuota(c.ID, q)
	}
	if cfg.Net {
		s.Netdev.Wire().Cap = cfg.WireCap
		s.Lwip.ReapClosed = cfg.LwipReapClosed
	}
	if cfg.Chaos != nil {
		// Attached last so no boot wiring draws from the PRNG stream; it
		// still boots disarmed so provisioning also runs fault-free.
		s.Chaos = faultinject.New(*cfg.Chaos)
		m.SetInjector(s.Chaos)
		if cfg.Net && cfg.Chaos.DropAtWire > 0 {
			inj, key := s.Chaos, cfg.Cluster
			s.Netdev.Wire().SetDropper(func() bool { return inj.AtWire(key) })
		}
	}
	return s, nil
}

// MustNewFS is NewFS for tests and examples where failure is fatal.
func MustNewFS(cfg Config) *System {
	s, err := NewFS(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// RunAs executes fn with the default thread switched into the named
// component's cubicle — the way an application main is entered.
func (s *System) RunAs(component string, fn func(e *cubicle.Env)) error {
	return s.M.RunAs(s.Env, s.Cubs[component].ID, fn)
}
