package cubicle

import (
	"math/rand"
	"testing"

	"cubicleos/internal/vm"
)

func TestHeapAllocOwnership(t *testing.T) {
	ts := bootPair(t, ModeFull)
	addr := ts.heapIn(t, "FOO", 100)
	p := ts.m.AS.Page(addr)
	if p.Owner != int(ts.cubs["FOO"].ID) {
		t.Errorf("heap page owner = %d, want FOO", p.Owner)
	}
	if p.Type != vm.PageHeap {
		t.Errorf("heap page type = %v", p.Type)
	}
	if p.Key() != uint8(ts.cubs["FOO"].Key) {
		t.Errorf("heap page key = %d, want %d", p.Key(), ts.cubs["FOO"].Key)
	}
}

func TestHeapAllocAlignment(t *testing.T) {
	ts := bootPair(t, ModeFull)
	ts.enter(t, "FOO", func(e *Env) {
		small := e.HeapAlloc(24)
		if uint64(small)%16 != 0 {
			t.Errorf("small allocation not 16-aligned: %#x", uint64(small))
		}
		big := e.HeapAlloc(vm.PageSize)
		if big.PageOff() != 0 {
			t.Errorf("page-sized allocation not page-aligned: %#x", uint64(big))
		}
	})
}

func TestHeapFreeAndReuse(t *testing.T) {
	ts := bootPair(t, ModeFull)
	ts.enter(t, "FOO", func(e *Env) {
		a := e.HeapAlloc(64)
		e.HeapFree(a)
		b := e.HeapAlloc(64)
		if a != b {
			t.Errorf("freed block not reused: %#x vs %#x", uint64(a), uint64(b))
		}
	})
}

func TestHeapDoubleFreeFaults(t *testing.T) {
	ts := bootPair(t, ModeFull)
	ts.enter(t, "FOO", func(e *Env) {
		a := e.HeapAlloc(64)
		e.HeapFree(a)
		err := mustFault(t, func() { e.HeapFree(a) })
		if _, ok := err.(*APIError); !ok {
			t.Errorf("double free: got %T", err)
		}
		err = mustFault(t, func() { e.HeapFree(vm.Addr(0x123456)) })
		if _, ok := err.(*APIError); !ok {
			t.Errorf("wild free: got %T", err)
		}
	})
}

func TestHeapCoalescing(t *testing.T) {
	ts := bootPair(t, ModeFull)
	ts.enter(t, "FOO", func(e *Env) {
		a := e.HeapAlloc(1024)
		b := e.HeapAlloc(1024)
		c := e.HeapAlloc(1024)
		_ = c
		e.HeapFree(a)
		e.HeapFree(b) // must coalesce with a
		d := e.HeapAlloc(2048)
		if d != a {
			t.Errorf("coalesced block not reused: got %#x, want %#x", uint64(d), uint64(a))
		}
	})
}

func TestHeapZeroSize(t *testing.T) {
	ts := bootPair(t, ModeFull)
	ts.enter(t, "FOO", func(e *Env) {
		a := e.HeapAlloc(0)
		if a == 0 {
			t.Error("zero-size allocation returned null")
		}
		e.HeapFree(a)
	})
}

func TestHeapIsolatedBetweenCubicles(t *testing.T) {
	ts := bootPair(t, ModeFull)
	fooBuf := ts.heapIn(t, "FOO", 128)
	ts.enter(t, "BAR", func(e *Env) {
		// BAR freeing FOO's allocation: BAR's allocator has no record.
		err := mustFault(t, func() { e.HeapFree(fooBuf) })
		if _, ok := err.(*APIError); !ok {
			t.Errorf("cross-cubicle free: got %T", err)
		}
	})
}

// TestHeapAllocProperty exercises random alloc/free sequences: blocks
// never overlap, content written is preserved, accounting balances.
func TestHeapAllocProperty(t *testing.T) {
	ts := bootPair(t, ModeFull)
	rng := rand.New(rand.NewSource(7))
	type blk struct {
		addr vm.Addr
		size uint64
		tag  byte
	}
	var live []blk
	ts.enter(t, "FOO", func(e *Env) {
		for i := 0; i < 500; i++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(live))
				b := live[j]
				got := e.ReadBytes(b.addr, b.size)
				for k, c := range got {
					if c != b.tag {
						t.Fatalf("block %#x corrupted at %d", uint64(b.addr), k)
					}
				}
				e.HeapFree(b.addr)
				live = append(live[:j], live[j+1:]...)
				continue
			}
			size := uint64(rng.Intn(3000) + 1)
			addr := e.HeapAlloc(size)
			tag := byte(i)
			e.Memset(addr, tag, size)
			for _, b := range live {
				if uint64(addr) < uint64(b.addr)+b.size && uint64(b.addr) < uint64(addr)+size {
					t.Fatalf("overlap: new [%#x,%d) with live [%#x,%d)", uint64(addr), size, uint64(b.addr), b.size)
				}
			}
			live = append(live, blk{addr, size, tag})
		}
		for _, b := range live {
			e.HeapFree(b.addr)
		}
	})
	if got := ts.m.cubicle(ts.cubs["FOO"].ID).heap.liveBytes; got != 0 {
		t.Errorf("live bytes after freeing everything = %d", got)
	}
	if ts.m.cubicle(ts.cubs["FOO"].ID).heap.arenaBytes == 0 {
		t.Error("arena accounting empty")
	}
}

// TestTagVirtualisation boots more isolated cubicles than there are MPK
// keys and checks the system still isolates correctly, recycling keys
// (§8 / libmpk-style virtualisation).
func TestTagVirtualisation(t *testing.T) {
	b := NewBuilder()
	const n = 20 // > 14 isolated keys
	for i := 0; i < n; i++ {
		name := string(rune('A'+i/10)) + string(rune('0'+i%10))
		b.MustAdd(&Component{Name: name, Kind: KindIsolated, Exports: []ExportDecl{
			{Name: "touch_" + name, RegArgs: 1, Fn: func(e *Env, args []uint64) []uint64 {
				buf := e.HeapAlloc(32)
				e.Memset(buf, byte(args[0]), 32)
				return []uint64{uint64(e.LoadByte(buf))}
			}},
		}})
	}
	si, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(ModeFull, testCosts())
	cubs, err := NewLoader(m).LoadSystem(si, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cubs) != n {
		t.Fatalf("loaded %d cubicles", len(cubs))
	}
	env := m.NewEnv(m.NewThread())
	// Round-robin calls across all cubicles force key recycling.
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			name := string(rune('A'+i/10)) + string(rune('0'+i%10))
			env.T.pushFrame(MonitorID, true)
			h := m.MustResolve(MonitorID, name, "touch_"+name)
			rets := h.Call(env, uint64(i+round))
			if rets[0] != uint64(byte(i+round)) {
				t.Fatalf("cubicle %s round %d: got %d", name, round, rets[0])
			}
			env.T.popFrame()
		}
	}
	if m.Stats.KeyEvictions == 0 {
		t.Error("no key evictions despite 20 isolated cubicles")
	}
	// Isolation still holds across virtualised keys.
	bufA := vm.Addr(0)
	env.T.pushFrame(cubs["A0"].ID, true)
	m.wrpkru(env.T, m.pkruFor(cubs["A0"].ID))
	bufA = env.HeapAlloc(16)
	env.T.popFrame()
	env.T.pushFrame(cubs["B9"].ID, true)
	m.wrpkru(env.T, m.pkruFor(cubs["B9"].ID))
	if err := Catch(func() { env.LoadByte(bufA) }); err == nil {
		t.Error("cross-cubicle read allowed under tag virtualisation")
	}
	env.T.popFrame()
}

func TestMaxCubiclesEnforced(t *testing.T) {
	b := NewBuilder()
	noop := func(e *Env, a []uint64) []uint64 { return nil }
	for i := 0; i < MaxCubicles; i++ {
		b.MustAdd(&Component{Name: string(rune('a'+i/26)) + string(rune('a'+i%26)) + "x", Kind: KindIsolated,
			Exports: []ExportDecl{{Name: "f" + string(rune('a'+i/26)) + string(rune('a'+i%26)), Fn: noop}}})
	}
	si, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(ModeUnikraft, testCosts())
	if _, err := NewLoader(m).LoadSystem(si, nil); err == nil {
		t.Fatal("exceeding MaxCubicles accepted (monitor occupies slot 0)")
	}
}
