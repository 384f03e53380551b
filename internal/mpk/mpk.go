// Package mpk simulates Intel Memory Protection Keys (MPK) as described in
// §2.2 of the paper: a 4-bit key on every virtual page and a per-thread
// pkru register holding a 2-bit access-disable/write-disable field for each
// of the 16 keys.
//
// The package also implements the paper's proposed trivial hardware
// modification (§5.5): whenever read and write access to a key are both
// disabled, execution from pages carrying that key is disabled too. This
// gives CubicleOS tag-wide execute permissions, which stock MPK lacks
// (§2.2 challenge iii).
//
// Costs: writing pkru (wrpkru) is a ~20-cycle user-level instruction;
// changing a page's key (pkey_mprotect) goes through the host kernel and
// costs >1,100 cycles. Both are charged by the callers in the cubicle
// runtime via the cycles cost table.
package mpk

import (
	"fmt"

	"cubicleos/internal/vm"
)

// NumKeys is the number of protection keys the hardware provides.
const NumKeys = 16

// Key is a 4-bit MPK protection key.
type Key uint8

// Valid reports whether k is one of the 16 hardware keys.
func (k Key) Valid() bool { return k < NumKeys }

// PKRU is the per-thread protection-key rights register. Each key has two
// bits: AD (access disable, bit 2k) and WD (write disable, bit 2k+1),
// exactly as on x86-64.
type PKRU uint32

// AllDenied is a PKRU value in which every key is access-disabled.
const AllDenied PKRU = 0x55555555

// AllAllowed is a PKRU value granting read and write on every key.
const AllAllowed PKRU = 0

// adBit and wdBit return the AD/WD masks for key k.
func adBit(k Key) PKRU { return 1 << (2 * uint(k)) }
func wdBit(k Key) PKRU { return 1 << (2*uint(k) + 1) }

// CanRead reports whether the register grants read access on key k.
func (p PKRU) CanRead(k Key) bool { return p&adBit(k) == 0 }

// CanWrite reports whether the register grants write access on key k.
func (p PKRU) CanWrite(k Key) bool { return p&adBit(k) == 0 && p&wdBit(k) == 0 }

// CanExec reports whether, under the paper's proposed hardware
// modification, code tagged with key k may execute: execution is allowed
// unless both read and write are disabled.
func (p PKRU) CanExec(k Key) bool { return p.CanRead(k) || p.CanWrite(k) }

// Allow returns a copy of the register with read and write enabled on k.
func (p PKRU) Allow(k Key) PKRU { return p &^ (adBit(k) | wdBit(k)) }

func (p PKRU) String() string {
	s := ""
	for k := Key(0); k < NumKeys; k++ {
		c := "-"
		switch {
		case p.CanWrite(k):
			c = "w"
		case p.CanRead(k):
			c = "r"
		}
		s += c
	}
	return fmt.Sprintf("pkru[%s]", s)
}

// AccessKind distinguishes the kinds of memory access checked against the
// PKRU register.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota
	AccessWrite
	AccessExec
)

func (a AccessKind) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return fmt.Sprintf("AccessKind(%d)", uint8(a))
}

// Check reports whether an access of the given kind is permitted on a page
// with the given page-table permissions and key under register p. It
// applies both the classic page-table check and the MPK key check,
// including the paper's exec-follows-access hardware modification.
func (p PKRU) Check(kind AccessKind, perm vm.Perm, key Key) bool {
	switch kind {
	case AccessRead:
		return perm.Has(vm.PermRead) && p.CanRead(key)
	case AccessWrite:
		return perm.Has(vm.PermWrite) && p.CanWrite(key)
	case AccessExec:
		return perm.Has(vm.PermExec) && p.CanExec(key)
	}
	return false
}

// PkeyMprotect retags npages pages starting at addr with the given key.
// This models the pkey_mprotect host system call: it is a privileged
// operation available only to the trusted monitor (untrusted code cannot
// issue system calls, enforced by the loader's binary scan).
func PkeyMprotect(as *vm.AddrSpace, addr vm.Addr, npages int, key Key) error {
	if !key.Valid() {
		return fmt.Errorf("mpk: invalid key %d", key)
	}
	pn := addr.PageNum()
	for i := uint64(0); i < uint64(npages); i++ {
		p := as.Page(vm.PageAddr(pn + i))
		if p == nil {
			return fmt.Errorf("mpk: pkey_mprotect on unmapped page %#x", (pn+i)<<vm.PageShift)
		}
		p.SetKey(uint8(key))
	}
	return nil
}
