// Package cubicle implements the paper's primary contribution: the trusted
// CubicleOS runtime. It provides the three core abstractions of §3 —
// cubicles (spatial memory isolation), windows (user-managed temporal
// memory isolation) and cross-cubicle calls (control-flow integrity) — on
// top of the simulated MPK hardware, together with the four trusted
// components of §4: the component builder, the cross-cubicle call
// trampolines, the memory monitor, and the cubicle loader.
package cubicle

import (
	"fmt"
	"slices"

	"cubicleos/internal/mpk"
	"cubicleos/internal/vm"
)

// ID identifies a cubicle. The monitor is cubicle 0; all cubicle IDs are
// known at link time (§5.3 step ❹), which makes the window ACL bitmask
// check O(1).
type ID int

// MonitorID is the cubicle ID of the trusted memory monitor. The monitor
// executes with access to all keys on the system (§5.3).
const MonitorID ID = 0

// MaxCubicles bounds the number of cubicles so that window ACLs fit in one
// 64-bit bitmask, fixed at deployment time (§5.3).
const MaxCubicles = 64

// Kind classifies a cubicle.
type Kind uint8

const (
	// KindIsolated is a normal, mutually-isolated cubicle with its own
	// MPK key, stacks, heap and window tables.
	KindIsolated Kind = iota
	// KindShared is a shared cubicle (§3 ❹) such as LIBC: little state,
	// frequently used. Its static data is shared among all cubicles and
	// calls into it never involve the runtime TCB — its code executes
	// with the privileges, stack and heap of the calling cubicle.
	KindShared
	// KindTrusted marks trusted runtime cubicles (the monitor itself and
	// trampoline code pages).
	KindTrusted
)

func (k Kind) String() string {
	switch k {
	case KindIsolated:
		return "isolated"
	case KindShared:
		return "shared"
	case KindTrusted:
		return "trusted"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// windowClass narrows the monitor's linear window search: each cubicle
// keeps separate window-descriptor lists for global, stack and heap data
// (§5.3), selected by the faulting page's type.
type windowClass uint8

const (
	classGlobal windowClass = iota
	classStack
	classHeap
	numWindowClasses
	classNone windowClass = 0xFF
)

// classOf maps a page type to its window-descriptor class. Code pages are
// never windowed.
func classOf(t vm.PageType) windowClass {
	switch t {
	case vm.PageGlobal:
		return classGlobal
	case vm.PageStack:
		return classStack
	case vm.PageHeap:
		return classHeap
	}
	return classNone
}

// Cubicle is one isolation compartment: the unit of spatial memory
// isolation. It owns code, data, heap and stack pages, all tagged with its
// MPK key, plus its window-descriptor arrays.
type Cubicle struct {
	ID   ID
	Name string
	Kind Kind
	Key  mpk.Key

	// windows holds the cubicle's window descriptors, indexed by window
	// ID. Destroyed windows leave nil holes so IDs stay stable.
	windows []*Window
	// search lists window indices per class so the trap handler's linear
	// search only visits descriptors that can match the faulting page.
	search [numWindowClasses][]int

	// heap is the cubicle's private memory sub-allocator (§4: "each
	// isolated cubicle has its own memory sub-allocator").
	heap *subAllocator

	// owned lists the page numbers of the cubicle's heap and stack pages,
	// ascending: the pages a restart reclaims and (heap only) a checkpoint
	// captures. It has three writers — mapOwnedFor, restoreCheckpoint and
	// reclaimPages, the only callers of AS.Map, AS.MapAt and AS.Unmap — so
	// neither the sweep nor the restart walks the page table.
	owned []uint64

	// exports maps symbol name to the trampoline (or direct function for
	// shared cubicles) registered by the loader.
	exports map[string]*Trampoline

	// components lists the component names fused into this cubicle (more
	// than one when a deployment groups components, e.g. CubicleOS-3).
	components []string

	// Supervision state. Without a supervisor these stay at their zero
	// values (Healthy, no restarts).
	health    Health
	restarts  uint64 // lifetime restart count
	lastFault error  // cause of the most recent contained fault
	// consecFaults counts contained faults since the last healthy return.
	consecFaults int32
	restartAt    uint64   // cycle at which a quarantined cubicle may restart
	restartLog   []uint64 // cycles of recent restarts, pruned to the policy window
}

// ownPages records the npages pages from pn on as owned. Map hands back
// recycled lower page numbers, so the run is inserted where it sorts.
func (c *Cubicle) ownPages(pn uint64, npages int) {
	i, _ := slices.BinarySearch(c.owned, pn)
	c.owned = slices.Grow(c.owned, npages)[:len(c.owned)+npages]
	copy(c.owned[i+npages:], c.owned[i:])
	for k := range npages {
		c.owned[i+k] = pn + uint64(k)
	}
}

// Components returns the names of the components fused into the cubicle.
func (c *Cubicle) Components() []string {
	out := make([]string, len(c.components))
	copy(out, c.components)
	return out
}

// OwnedPages returns the page numbers of the cubicle's heap and stack
// pages, ascending.
func (c *Cubicle) OwnedPages() []uint64 { return slices.Clone(c.owned) }

// Exports returns the names of the cubicle's exported entry points.
func (c *Cubicle) Exports() []string {
	out := make([]string, 0, len(c.exports))
	for name := range c.exports {
		out = append(out, name)
	}
	return out
}

// Health returns the cubicle's supervision state.
func (c *Cubicle) Health() Health { return c.health }

// Restarts returns how many times the supervisor restarted the cubicle.
func (c *Cubicle) Restarts() uint64 { return c.restarts }

// LastFault returns the cause of the cubicle's most recent contained
// fault, or nil if it never faulted.
func (c *Cubicle) LastFault() error { return c.lastFault }
