// Package cubicleos is a Go reproduction of CubicleOS (Sartakov, Vilanova,
// Pietzuch — ASPLOS 2021): a library OS that isolates its components —
// cubicles — with Intel MPK memory tagging while keeping the monolithic,
// direct-call programming model, using windows for zero-copy data sharing
// and trusted trampolines for cross-cubicle control transfers.
//
// Because the Go runtime owns the process address space, the MPK hardware
// is simulated: all component memory lives in a software-managed paged
// address space with per-page 4-bit keys and per-thread PKRU registers,
// and a virtual cycle clock charges each architectural event the cost the
// paper reports (wrpkru ≈ 20 cycles, page retag ≈ 1,100 cycles, …). See
// DESIGN.md for the substitution argument and EXPERIMENTS.md for the
// reproduced evaluation.
//
// The package is a facade over the implementation packages:
//
//   - Monitor, Cubicle, Window, trampolines:  internal/cubicle
//   - simulated memory and MPK:               internal/vm, internal/mpk
//   - library OS components:                  internal/{vfscore,ramfs,lwip,netdev,ualloc,uktime,plat,ulibc,urandom}
//   - applications:                           internal/{httpd,sqldb,speedtest}
//   - baselines and figures:                  internal/{ukernel,experiments}
//
// # Quickstart
//
//	sys := cubicleos.MustBoot(cubicleos.Config{Mode: cubicleos.ModeFull})
//	// register components with the Builder before booting, open windows
//	// with Env.WindowOpen, call across cubicles with resolved Handles.
//
// See examples/quickstart for a complete program.
package cubicleos

import (
	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/cycles"
	"cubicleos/internal/faultinject"
	"cubicleos/internal/trace"
	"cubicleos/internal/vm"
)

// Core abstractions (§3 of the paper).
type (
	// Monitor is the trusted memory monitor: it enforces cubicle
	// isolation and window permissions via lazy trap-and-map.
	Monitor = cubicle.Monitor
	// Env is the execution environment of component code: checked memory
	// access, allocation, and the window API of Table 1.
	Env = cubicle.Env
	// Thread is a user-level thread with its own PKRU and per-cubicle
	// stacks.
	Thread = cubicle.Thread
	// Cubicle is one isolation compartment.
	Cubicle = cubicle.Cubicle
	// CubicleID identifies a cubicle; all IDs are fixed at link time.
	CubicleID = cubicle.ID
	// WindowID identifies a window within its owning cubicle.
	WindowID = cubicle.WID
	// Handle is a resolved cross-cubicle call target.
	Handle = cubicle.Handle
	// Component describes a loadable library OS or application component.
	Component = cubicle.Component
	// ExportDecl declares one public entry point of a component.
	ExportDecl = cubicle.ExportDecl
	// Fn is the uniform entry-point signature.
	Fn = cubicle.Fn
	// Builder is the trusted component builder.
	Builder = cubicle.Builder
	// Loader is the trusted cubicle loader.
	Loader = cubicle.Loader
	// Mode selects how much of the isolation machinery is active.
	Mode = cubicle.Mode
	// Addr is a simulated virtual address.
	Addr = vm.Addr
	// Costs is the cycle cost model.
	Costs = cycles.Costs
	// Clock is the virtual cycle clock.
	Clock = cycles.Clock
	// Tracer is the observability layer: an event ring, per-edge cycle
	// histograms and a per-cubicle cycle profiler over the virtual clock.
	// Attach one with Monitor.EnableTracing or Config.TraceEvents.
	Tracer = trace.Tracer
	// TraceEvent is one entry of the trace ring.
	TraceEvent = trace.Event
	// TraceSnapshot is the machine-readable digest of a traced run.
	TraceSnapshot = trace.Snapshot
	// CycleProfile is the per-cubicle "where did the time go" report.
	CycleProfile = trace.Profile
)

// Isolation modes (the Figure 6 ablation ladder).
const (
	ModeUnikraft   = cubicle.ModeUnikraft
	ModeTrampoline = cubicle.ModeTrampoline
	ModeNoACL      = cubicle.ModeNoACL
	ModeFull       = cubicle.ModeFull
)

// Component kinds.
const (
	KindIsolated = cubicle.KindIsolated
	KindShared   = cubicle.KindShared
)

// Fault types raised on isolation violations.
type (
	// ProtectionFault is a memory access denied by cubicle isolation.
	ProtectionFault = cubicle.ProtectionFault
	// CFIFault is a control-flow-integrity violation.
	CFIFault = cubicle.CFIFault
	// APIError is a denied monitor API request.
	APIError = cubicle.APIError
	// BudgetFault is a crossing that exceeded the supervisor's watchdog
	// cycle budget.
	BudgetFault = cubicle.BudgetFault
	// ContainedFault is the typed error a caller receives when a callee
	// cubicle faults (or is refused) under containment.
	ContainedFault = cubicle.ContainedFault
)

// Fault containment and supervision (enable with Config.Supervision or
// Monitor.EnableContainment; see DESIGN.md §7).
type (
	// Supervisor contains faults at crossings, quarantines and restarts
	// faulting cubicles, and enforces the watchdog budget.
	Supervisor = cubicle.Supervisor
	// RestartPolicy parameterises the supervisor in virtual cycles.
	RestartPolicy = cubicle.RestartPolicy
	// Health is a cubicle's supervision state.
	Health = cubicle.Health
	// ChaosConfig configures the deterministic fault injector attached via
	// Config.Chaos.
	ChaosConfig = faultinject.Config
	// ChaosInjector is the seeded injector driving a chaos run.
	ChaosInjector = faultinject.Injector
	// RetryPolicy bounds RetryContained in attempts and virtual backoff.
	RetryPolicy = cubicle.RetryPolicy
)

// Cubicle health states.
const (
	Healthy     = cubicle.Healthy
	Quarantined = cubicle.Quarantined
	Dead        = cubicle.Dead
)

// Causes of fail-fast ContainedFaults on unhealthy cubicles.
var (
	ErrQuarantined = cubicle.ErrQuarantined
	ErrDead        = cubicle.ErrDead
)

// DefaultRestartPolicy returns the siege-tuned supervision policy.
func DefaultRestartPolicy() RestartPolicy { return cubicle.DefaultRestartPolicy() }

// CatchContained runs fn and returns the ContainedFault it raised, or nil.
// Components use it to degrade gracefully when a dependency cubicle is down.
func CatchContained(fn func()) *ContainedFault { return cubicle.CatchContained(fn) }

// DefaultRetryPolicy returns the bounded retry-with-virtual-backoff policy
// used by the overload experiments.
func DefaultRetryPolicy() RetryPolicy { return cubicle.DefaultRetryPolicy() }

// RetryContained runs fn under containment, retrying quarantine refusals
// with exponential backoff on the virtual clock. It returns the last
// fault, or nil once an attempt succeeds.
func RetryContained(e *Env, p RetryPolicy, fn func()) *ContainedFault {
	return cubicle.RetryContained(e, p, fn)
}

// System is a booted CubicleOS deployment with the standard library OS
// stack (PLAT, TIME, ALLOC, LIBC, RANDOM, VFSCORE, RAMFS, and optionally
// NETDEV + LWIP).
type System = boot.System

// Config describes a deployment for Boot.
type Config = boot.Config

// Boot assembles, builds, loads and wires a deployment.
func Boot(cfg Config) (*System, error) { return boot.NewFS(cfg) }

// MustBoot is Boot for programs where a boot failure is fatal.
func MustBoot(cfg Config) *System { return boot.MustNewFS(cfg) }

// NewMonitor creates a bare monitor for custom deployments that do not
// want the standard component stack.
func NewMonitor(mode Mode, costs Costs) *Monitor { return cubicle.NewMonitor(mode, costs) }

// NewBuilder creates a trusted component builder.
func NewBuilder() *Builder { return cubicle.NewBuilder() }

// NewLoader creates the loader for a monitor.
func NewLoader(m *Monitor) *Loader { return cubicle.NewLoader(m) }

// DefaultCosts returns the calibrated cost model (see EXPERIMENTS.md).
func DefaultCosts() Costs { return cycles.DefaultCosts() }

// Catch runs fn and returns the isolation fault it raised, if any.
func Catch(fn func()) error { return cubicle.Catch(fn) }

// PageSize is the simulated page size (4 KiB).
const PageSize = vm.PageSize
