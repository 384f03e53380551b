package mpk

import (
	"testing"
	"testing/quick"

	"cubicleos/internal/vm"
)

func TestPKRUDefaults(t *testing.T) {
	for k := Key(0); k < NumKeys; k++ {
		if !AllAllowed.CanRead(k) || !AllAllowed.CanWrite(k) || !AllAllowed.CanExec(k) {
			t.Errorf("AllAllowed denies key %d", k)
		}
		if AllDenied.CanRead(k) || AllDenied.CanWrite(k) {
			t.Errorf("AllDenied grants key %d", k)
		}
		if AllDenied.CanExec(k) {
			t.Errorf("AllDenied allows exec on key %d (hardware modification violated)", k)
		}
	}
}

func TestAllowDeny(t *testing.T) {
	p := AllDenied.Allow(3)
	if !p.CanRead(3) || !p.CanWrite(3) {
		t.Error("Allow(3) did not grant rw")
	}
	for k := Key(0); k < NumKeys; k++ {
		if k != 3 && (p.CanRead(k) || p.CanWrite(k)) {
			t.Errorf("Allow(3) leaked access to key %d", k)
		}
	}
}

func TestAllowRead(t *testing.T) {
	p := AllDenied&^adBit(7) | wdBit(7) // read enabled, write disabled
	if !p.CanRead(7) {
		t.Error("read-allowed key denied read")
	}
	if p.CanWrite(7) {
		t.Error("read-allowed key granted write")
	}
	if !p.CanExec(7) {
		t.Error("read-allowed key must allow exec under the paper's modification")
	}
}

// TestExecFollowsAccess checks the paper's proposed hardware modification
// (§5.5): whenever read and write access are disabled, execution is too.
func TestExecFollowsAccess(t *testing.T) {
	f := func(raw uint32, k uint8) bool {
		p := PKRU(raw)
		key := Key(k % NumKeys)
		if !p.CanRead(key) && !p.CanWrite(key) {
			return !p.CanExec(key)
		}
		return p.CanExec(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWriteImpliesReadEnabled mirrors the x86 encoding: WD without AD still
// permits reads; AD kills both.
func TestADWDEncoding(t *testing.T) {
	f := func(raw uint32, k uint8) bool {
		p := PKRU(raw)
		key := Key(k % NumKeys)
		if p.CanWrite(key) && !p.CanRead(key) {
			return false // write access without read access is impossible
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCheckRespectsPageTablePerms(t *testing.T) {
	p := AllAllowed
	// Even with all keys allowed, the page table still rules.
	if p.Check(AccessWrite, vm.PermRead, 0) {
		t.Error("write allowed on read-only page")
	}
	if p.Check(AccessExec, vm.PermRead|vm.PermWrite, 0) {
		t.Error("exec allowed on non-exec page")
	}
	if !p.Check(AccessExec, vm.PermExec, 0) {
		t.Error("exec denied on exec page with key access")
	}
	// Key denial overrides page-table grant.
	d := AllDenied
	if d.Check(AccessRead, vm.PermRead, 1) {
		t.Error("read allowed with key denied")
	}
	if d.Check(AccessExec, vm.PermExec, 1) {
		t.Error("exec allowed with key fully denied (hardware modification)")
	}
}

func TestPkeyMprotect(t *testing.T) {
	as := vm.NewAddrSpace()
	addr, err := as.Map(3, 0, vm.PageHeap, vm.PermRead, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := PkeyMprotect(as, addr, 2, 9); err != nil {
		t.Fatal(err)
	}
	if as.Page(addr).Key() != 9 || as.Page(addr.Add(vm.PageSize)).Key() != 9 {
		t.Error("retagged pages do not carry the new key")
	}
	if as.Page(addr.Add(2*vm.PageSize)).Key() != 2 {
		t.Error("retag spilled onto a page outside the range")
	}
	if err := PkeyMprotect(as, addr, 1, 16); err == nil {
		t.Error("retag with out-of-range key succeeded")
	}
	if err := PkeyMprotect(as, addr.Add(3*vm.PageSize), 1, 1); err == nil {
		t.Error("retag of unmapped page succeeded")
	}
}

func TestKeyValid(t *testing.T) {
	if !Key(0).Valid() || !Key(15).Valid() {
		t.Error("keys 0 and 15 should be valid")
	}
	if Key(16).Valid() {
		t.Error("key 16 should be invalid")
	}
}

func TestPKRUString(t *testing.T) {
	s := (AllDenied.Allow(1)&^adBit(2) | wdBit(2)).String()
	want := "pkru[-wr-------------]"
	if s != want {
		t.Errorf("String() = %q, want %q", s, want)
	}
}

func TestAccessKindString(t *testing.T) {
	if AccessRead.String() != "read" || AccessWrite.String() != "write" || AccessExec.String() != "exec" {
		t.Error("AccessKind.String mismatch")
	}
}
