// Package cycles provides the virtual cycle clock and the cost model used
// by the CubicleOS simulator.
//
// The reproduction cannot run on real Intel MPK hardware (the Go runtime
// owns the process address space), so every architectural event — a wrpkru
// execution, a page retag through the host kernel, a protection trap, an
// IPC message — is charged a cycle cost on a virtual clock instead of being
// timed on silicon. The per-event costs come from the paper and the
// literature it cites (libmpk, ERIM): wrpkru ≈ 20 cycles, pkey_mprotect
// ≈ 1,100 cycles on Skylake-class hardware. Virtual cycles convert to
// seconds at the paper's 2.20 GHz (Intel Xeon Silver 4210).
package cycles

import "time"

// FrequencyHz is the clock frequency of the paper's evaluation machine,
// an Intel Xeon Silver 4210 at 2.20 GHz.
const FrequencyHz = 2_200_000_000

// Clock accumulates virtual cycles in a plain word. The rule it relies on:
// a clock has one writer — the goroutine driving its monitor (DESIGN.md
// §10) — and another goroutine may read it only after it has synchronised
// with that writer. The one place that happens is siege.ParallelOpenLoop,
// the only go statement in non-test code: it joins the shard goroutines
// with wg.Wait() before it reads any shard's results. A store here is
// an ordinary MOV, not the XCHG an atomic store costs on amd64; the clock
// is written some 25 000 times per MiB served.
type Clock struct {
	cycles uint64
	// workNum/workDen scales modelled-compute charges (ChargeWork) to
	// represent implementation efficiency differences between runtimes
	// (e.g. Unikraft 0.4 vs native Linux), once SetWorkScale has set scaled.
	// Architectural-event charges (Charge) are never scaled — traps and
	// wrpkru cost what the hardware costs regardless of who runs on top.
	workNum uint64
	scaled  bool
	// onAdvance, when set, observes every clock advance with the new
	// cycle count. The tracing layer uses it to drive the virtual-clock
	// sampling profiler; when unset the cost is one nil check per charge.
	onAdvance func(now uint64)
}

// workDen is the work scale's fixed denominator: the factor is kept in
// thousandths, and a constant divisor compiles to a multiply, not the DIV a
// field would cost on each of the million ChargeWork calls of a speedtest
// pass.
const workDen = 1000

// Charge adds n cycles to the clock (architectural events; unscaled).
func (c *Clock) Charge(n uint64) {
	now := c.cycles + n
	c.cycles = now
	if c.onAdvance != nil {
		c.onAdvance(now)
	}
}

// ChargeWork adds n cycles of modelled compute, scaled by the work-scale
// factor.
func (c *Clock) ChargeWork(n uint64) {
	if c.scaled {
		n = n * c.workNum / workDen
	}
	c.Charge(n)
}

// ChargeWorkN adds k charges of n cycles of modelled compute as one
// advance: the clock ends exactly where k calls of ChargeWork(n) leave it
// (n is scaled and truncated once, as each of those calls would), stored
// and shown to the observer once. With k = 0 nothing happens.
func (c *Clock) ChargeWorkN(n, k uint64) {
	if k == 0 {
		return
	}
	if c.scaled {
		n = n * c.workNum / workDen
	}
	c.Charge(n * k)
}

// SetOnAdvance installs (or with nil removes) the clock-advance observer.
func (c *Clock) SetOnAdvance(fn func(now uint64)) { c.onAdvance = fn }

// SetWorkScale sets the modelled-compute scale factor (1.0 = native).
func (c *Clock) SetWorkScale(f float64) {
	c.workNum = uint64(f * workDen)
	c.scaled = true
}

// Cycles returns the number of cycles charged so far. Call it from the
// clock's writer, or after synchronising with it (see Clock).
func (c *Clock) Cycles() uint64 { return c.cycles }

// AdvanceTo moves the clock forward to target if it is behind it. Open-loop
// load generation uses it to model idle wall-clock time between scheduled
// arrivals; the clock never moves backwards.
func (c *Clock) AdvanceTo(target uint64) {
	if target <= c.cycles {
		return
	}
	c.Charge(target - c.cycles)
}

// Duration converts the accumulated cycles to wall-clock time at
// FrequencyHz.
func (c *Clock) Duration() time.Duration {
	return Duration(c.Cycles())
}

// NextTick returns the first tick of the cadence next, next+interval,
// next+2·interval, … that lies past now, for a periodic action whose
// threshold next has passed (next <= now, interval > 0). It takes one step
// however long the clock jumped.
func NextTick(next, interval, now uint64) uint64 {
	return next + ((now-next)/interval+1)*interval
}

// Duration converts a cycle count to wall-clock time at FrequencyHz.
func Duration(cycles uint64) time.Duration {
	secs := float64(cycles) / float64(FrequencyHz)
	return time.Duration(secs * float64(time.Second))
}

// Costs is the cost-model table: virtual cycles charged per architectural
// event. The zero value is unusable; start from DefaultCosts.
type Costs struct {
	// WRPKRU is the cost of one wrpkru instruction (user-level PKRU
	// write). The paper cites ~20 cycles (libmpk, USENIX ATC'19).
	WRPKRU uint64
	// PkeyMprotect is the cost of retagging a page's protection key via
	// the host kernel (pkey_mprotect). The paper cites >1,100 cycles.
	PkeyMprotect uint64
	// TrapEntry is the cost of delivering a protection fault to the
	// monitor's trap handler and returning: CubicleOS runs on a host
	// Linux kernel, so a fault is a SIGSEGV round trip (~3 us: kernel
	// fault path, signal frame setup, handler, sigreturn).
	TrapEntry uint64
	// PageMetaLookup is the O(1) lookup of the page metadata map that
	// identifies the owning cubicle and window-descriptor array (§5.3).
	PageMetaLookup uint64
	// WindowSearchEntry is the per-entry cost of the linear search over
	// a cubicle's window-descriptor array (§5.3 step ❸).
	WindowSearchEntry uint64
	// WindowOp is the cost of one window-management API call
	// (init/add/remove/open/close): a cross-cubicle call into the
	// trusted monitor plus descriptor bookkeeping.
	WindowOp uint64
	// TrampolineBase is the fixed cost of a cross-cubicle call trampoline
	// excluding the two wrpkru executions: guard-page entry, stack
	// switch, register spill/restore, and the wrpkru pipeline
	// serialisation and cache/TLB pollution it drags in (§5.5). Paper:
	// trampolines alone add ~2% on cache-friendly SQLite queries.
	TrampolineBase uint64
	// StackArgByte is the per-byte cost of copying in-stack arguments
	// across per-cubicle stacks inside a trampoline.
	StackArgByte uint64
	// CopyByte is the per-byte cost of a memcpy-style bulk copy
	// (roughly 16 B/cycle streaming on Skylake, expressed as cycles
	// per byte scaled by 16 in charge sites; kept ≥1 granularity by
	// charging per 16-byte chunk).
	CopyChunk16 uint64
	// SyscallLinux is the kernel entry/exit cost of one host-Linux
	// system call (the paper's Linux baseline).
	SyscallLinux uint64
	// ShootdownIPI is the per-remote-core cost of synchronising a page
	// retag on a multi-core machine. libmpk (USENIX ATC'19) measures that
	// a safe mpk_mprotect must synchronise the key state of every other
	// thread — an IPI-like round trip per core, on the order of a few
	// thousand cycles — before the retag may take effect. A retag on an
	// n-core deployment charges ShootdownIPI*(n-1) on top of PkeyMprotect;
	// single-core runs charge nothing, keeping their figures byte-identical
	// to the pre-SMP cost model.
	ShootdownIPI uint64
}

// DefaultCosts returns the cost table used for all experiments. The values
// are taken from the paper's citations where available and otherwise set to
// Skylake-class figures; EXPERIMENTS.md records the calibration.
func DefaultCosts() Costs {
	return Costs{
		WRPKRU:            20,
		PkeyMprotect:      1100,
		TrapEntry:         7500,
		PageMetaLookup:    30,
		WindowSearchEntry: 8,
		WindowOp:          600,
		TrampolineBase:    260,
		StackArgByte:      1,
		CopyChunk16:       1,
		SyscallLinux:      700,
		ShootdownIPI:      2500,
	}
}
