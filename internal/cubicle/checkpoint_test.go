package cubicle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"cubicleos/internal/cycles"
	"cubicleos/internal/snapshot"
	"cubicleos/internal/vm"
)

// ckptWorld is a supervised APP/SVC world where SVC is checkpointable:
// it keeps a Go-side counter plus a heap buffer whose first byte mirrors
// the counter, and snapshots both.
type ckptWorld struct {
	*testSystem
	policy RestartPolicy

	counter uint64
	buf     vm.Addr

	vetoSnap    bool
	failRestore bool
	coldRuns    int
}

// bootCkpt boots the world with containment and a checkpoint cadence.
func bootCkpt(t testing.TB, interval uint64) *ckptWorld {
	t.Helper()
	w := &ckptWorld{testSystem: &testSystem{}, policy: DefaultRestartPolicy()}
	b := NewBuilder()
	b.MustAdd(&Component{Name: "APP", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "app_noop", Fn: func(e *Env, args []uint64) []uint64 { return nil }},
	}})
	svc := &Component{Name: "SVC", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "svc_set", RegArgs: 1, Fn: func(e *Env, args []uint64) []uint64 {
			if w.buf == 0 {
				w.buf = e.HeapAlloc(64)
			}
			w.counter = args[0]
			e.StoreByte(w.buf, byte(args[0]))
			return nil
		}},
		{Name: "svc_get", Fn: func(e *Env, args []uint64) []uint64 {
			if w.buf == 0 {
				return []uint64{w.counter, 0}
			}
			return []uint64{w.counter, uint64(e.LoadByte(w.buf))}
		}},
		{Name: "svc_touch", RegArgs: 1, Fn: func(e *Env, args []uint64) []uint64 {
			e.StoreByte(vm.Addr(args[0]), 1)
			return nil
		}},
		// svc_fill allocates args[0] pages and writes args[1] into each.
		{Name: "svc_fill", RegArgs: 2, Fn: func(e *Env, args []uint64) []uint64 {
			base := e.HeapAlloc(args[0] * vm.PageSize)
			for i := uint64(0); i < args[0]; i++ {
				e.StoreByte(base.Add(i*vm.PageSize), byte(args[1]))
			}
			return nil
		}},
		// svc_window opens a window on its heap for APP and leaves it open:
		// the cubicle stops being quiescent until svc_unwindow.
		{Name: "svc_window", Fn: func(e *Env, args []uint64) []uint64 {
			if w.buf == 0 {
				w.buf = e.HeapAlloc(64)
			}
			wid := e.WindowInit()
			e.WindowAdd(wid, w.buf, 64)
			e.WindowOpen(wid, e.M.CubicleByName("APP").ID)
			return []uint64{uint64(wid)}
		}},
		{Name: "svc_unwindow", RegArgs: 1, Fn: func(e *Env, args []uint64) []uint64 {
			e.WindowCloseAll(WID(args[0]))
			return nil
		}},
	}}
	svc.OnRestart = func() {
		w.coldRuns++
		w.counter = 0
		w.buf = 0
	}
	svc.Snapshot = func(sc *SnapCtx) ([]byte, error) {
		if w.vetoSnap {
			return nil, fmt.Errorf("svc: not ready")
		}
		b := make([]byte, 16)
		binary.LittleEndian.PutUint64(b, w.counter)
		binary.LittleEndian.PutUint64(b[8:], uint64(w.buf))
		return b, nil
	}
	svc.Restore = func(sc *SnapCtx, b []byte) error {
		if w.failRestore {
			return fmt.Errorf("svc: restore refused")
		}
		if len(b) != 16 {
			return fmt.Errorf("svc: blob is %d bytes", len(b))
		}
		w.counter = binary.LittleEndian.Uint64(b)
		w.buf = vm.Addr(binary.LittleEndian.Uint64(b[8:]))
		return nil
	}
	b.MustAdd(svc)
	si, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(ModeFull, cycles.DefaultCosts())
	m.EnableContainment(w.policy)
	m.EnableCheckpoints(interval)
	cubs, err := NewLoader(m).LoadSystem(si, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.m, w.si, w.cubs = m, si, cubs
	w.env = m.NewEnv(m.NewThread())
	return w
}

// call invokes an SVC entry point from the monitor context at frame depth
// zero — the quiescent point where the checkpoint cadence fires.
func (w *ckptWorld) call(t testing.TB, name string, args ...uint64) ([]uint64, *ContainedFault) {
	t.Helper()
	h := w.m.MustResolve(MonitorID, "SVC", name)
	var ret []uint64
	cf := CatchContained(func() { ret = h.Call(w.env, args...) })
	return ret, cf
}

// faultAndExpire faults SVC via a foreign address and waits out the
// quarantine backoff on the virtual clock.
func (w *ckptWorld) faultAndExpire(t testing.TB) {
	t.Helper()
	appBuf := w.heapIn(t, "APP", 8)
	if _, cf := w.call(t, "svc_touch", uint64(appBuf)); cf == nil {
		t.Fatal("fault in SVC was not contained")
	}
	if h := w.cubs["SVC"].Health(); h != Quarantined {
		t.Fatalf("SVC health = %v, want Quarantined", h)
	}
	w.m.Clock.Charge(w.policy.BackoffMax)
}

const ckptTestInterval = 50_000

func TestWarmRestartRestoresCheckpointedState(t *testing.T) {
	w := bootCkpt(t, ckptTestInterval)
	svc := w.cubs["SVC"]

	if _, cf := w.call(t, "svc_set", 42); cf != nil {
		t.Fatal(cf)
	}
	// Cross the cadence threshold; the next depth-zero call sweeps.
	w.m.Clock.Charge(ckptTestInterval)
	if _, cf := w.call(t, "svc_get"); cf != nil {
		t.Fatal(cf)
	}
	info, ok := w.m.LastCheckpoint(svc.ID)
	if !ok {
		t.Fatal("no checkpoint after crossing the cadence threshold")
	}
	if info.Pages == 0 || info.Bytes == 0 {
		t.Fatalf("checkpoint info = %+v, want pages and bytes captured", info)
	}
	if w.m.Stats.Checkpoints == 0 || w.m.Stats.CheckpointBytes != info.Bytes {
		t.Errorf("Stats: Checkpoints=%d CheckpointBytes=%d, want >0 and %d",
			w.m.Stats.Checkpoints, w.m.Stats.CheckpointBytes, info.Bytes)
	}

	// Diverge after the checkpoint, then fault: the warm restart must
	// rewind to the captured state, not the latest and not empty.
	if _, cf := w.call(t, "svc_set", 99); cf != nil {
		t.Fatal(cf)
	}
	w.faultAndExpire(t)
	ret, cf := w.call(t, "svc_get")
	if cf != nil {
		t.Fatalf("call after backoff expiry failed: %v", cf)
	}
	if ret[0] != 42 || ret[1] != 42 {
		t.Errorf("post-restart state = counter %d, heap byte %d; want 42/42 (checkpointed)", ret[0], ret[1])
	}
	if w.coldRuns != 0 {
		t.Errorf("OnRestart ran %d times on a warm restart, want 0", w.coldRuns)
	}
	st := w.m.Stats
	if st.Restarts != 1 || st.WarmRestarts != 1 || st.ColdRestarts != 0 {
		t.Errorf("Restarts=%d Warm=%d Cold=%d, want 1/1/0", st.Restarts, st.WarmRestarts, st.ColdRestarts)
	}
	// APP registered no hooks: it must never be checkpointed.
	if _, ok := w.m.LastCheckpoint(w.cubs["APP"].ID); ok {
		t.Error("APP was checkpointed despite having no Snapshot/Restore hooks")
	}
}

func TestSnapshotVetoKeepsNoCheckpoint(t *testing.T) {
	w := bootCkpt(t, ckptTestInterval)
	svc := w.cubs["SVC"]
	w.vetoSnap = true

	if _, cf := w.call(t, "svc_set", 7); cf != nil {
		t.Fatal(cf)
	}
	w.m.Clock.Charge(ckptTestInterval)
	if _, cf := w.call(t, "svc_get"); cf != nil {
		t.Fatal(cf)
	}
	if _, ok := w.m.LastCheckpoint(svc.ID); ok {
		t.Fatal("checkpoint recorded despite the Snapshot veto")
	}
	if w.m.Stats.Checkpoints != 0 {
		t.Errorf("Stats.Checkpoints = %d after a vetoed round, want 0", w.m.Stats.Checkpoints)
	}

	// With no checkpoint the restart is cold: OnRestart rebuilds from empty.
	w.faultAndExpire(t)
	ret, cf := w.call(t, "svc_get")
	if cf != nil {
		t.Fatalf("call after backoff expiry failed: %v", cf)
	}
	if ret[0] != 0 {
		t.Errorf("post-cold-restart counter = %d, want 0", ret[0])
	}
	if w.coldRuns != 1 {
		t.Errorf("OnRestart ran %d times, want 1", w.coldRuns)
	}
	st := w.m.Stats
	if st.Restarts != 1 || st.WarmRestarts != 0 || st.ColdRestarts != 1 {
		t.Errorf("Restarts=%d Warm=%d Cold=%d, want 1/0/1", st.Restarts, st.WarmRestarts, st.ColdRestarts)
	}
}

func TestRestoreFailureFallsBackCold(t *testing.T) {
	w := bootCkpt(t, ckptTestInterval)
	svc := w.cubs["SVC"]

	if _, cf := w.call(t, "svc_set", 42); cf != nil {
		t.Fatal(cf)
	}
	w.m.Clock.Charge(ckptTestInterval)
	if _, cf := w.call(t, "svc_get"); cf != nil {
		t.Fatal(cf)
	}
	if _, ok := w.m.LastCheckpoint(svc.ID); !ok {
		t.Fatal("no checkpoint taken")
	}

	w.failRestore = true
	w.faultAndExpire(t)
	ret, cf := w.call(t, "svc_get")
	if cf != nil {
		t.Fatalf("call after backoff expiry failed: %v", cf)
	}
	if ret[0] != 0 {
		t.Errorf("state after failed restore = %d, want 0 (cold rebuild)", ret[0])
	}
	if w.coldRuns != 1 {
		t.Errorf("OnRestart ran %d times, want 1 (cold fallback)", w.coldRuns)
	}
	st := w.m.Stats
	if st.Restarts != 1 || st.WarmRestarts != 0 || st.ColdRestarts != 1 {
		t.Errorf("Restarts=%d Warm=%d Cold=%d, want 1/0/1", st.Restarts, st.WarmRestarts, st.ColdRestarts)
	}
	// The unusable checkpoint was dropped: the next restart cannot loop on it.
	if _, ok := w.m.LastCheckpoint(svc.ID); ok {
		t.Error("failed checkpoint still recorded as last good")
	}
	// The failed restore left no half-restored residue: SVC owns no heap
	// pages after the cold rebuild reset its allocator.
	heapPages := 0
	w.m.AS.ForEachPage(func(pn uint64, p *vm.Page) {
		if ID(p.Owner) == svc.ID && p.Type == vm.PageHeap {
			heapPages++
		}
	})
	if heapPages != 0 {
		t.Errorf("%d heap pages owned by SVC after failed restore + cold rebuild", heapPages)
	}
}

func TestCheckpointSkipsNonQuiescentCubicle(t *testing.T) {
	w := bootCkpt(t, ckptTestInterval)
	svc := w.cubs["SVC"]

	ret, cf := w.call(t, "svc_window")
	if cf != nil {
		t.Fatal(cf)
	}
	wid := ret[0]
	w.m.Clock.Charge(ckptTestInterval)
	if _, cf := w.call(t, "svc_get"); cf != nil {
		t.Fatal(cf)
	}
	if _, ok := w.m.LastCheckpoint(svc.ID); ok {
		t.Fatal("cubicle with an open window was checkpointed (quiescence rule violated)")
	}

	// Close the window: the next cadence round captures it.
	if _, cf := w.call(t, "svc_unwindow", wid); cf != nil {
		t.Fatal(cf)
	}
	w.m.Clock.Charge(ckptTestInterval)
	if _, cf := w.call(t, "svc_get"); cf != nil {
		t.Fatal(cf)
	}
	if _, ok := w.m.LastCheckpoint(svc.ID); !ok {
		t.Fatal("no checkpoint after the window closed")
	}
}

// TestSnapshotWithoutRestoreIsALoadError: the all-or-nothing rule is
// enforced at load time, not discovered at restore time.
func TestSnapshotWithoutRestoreIsALoadError(t *testing.T) {
	b := NewBuilder()
	c := &Component{Name: "BAD", Kind: KindIsolated, Exports: []ExportDecl{
		{Name: "bad_noop", Fn: func(e *Env, args []uint64) []uint64 { return nil }},
	}}
	c.Snapshot = func(sc *SnapCtx) ([]byte, error) { return nil, nil }
	b.MustAdd(c)
	si, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(ModeFull, cycles.DefaultCosts())
	_, err = NewLoader(m).LoadSystem(si, nil)
	if err == nil {
		t.Fatal("loading a component with Snapshot but no Restore succeeded")
	}
	if !strings.Contains(err.Error(), "Snapshot without Restore") {
		t.Errorf("load error = %v, want it to name the missing Restore", err)
	}
}

// TestWarmRestartCountsAgainstBudget: warm restarts are still restarts —
// the budget and death path are unchanged, so warm recovery cannot mask a
// crash loop forever.
func TestWarmRestartCountsAgainstBudget(t *testing.T) {
	w := bootCkpt(t, ckptTestInterval)
	w.policy.MaxRestarts = 2
	w.policy.RestartWindow = 1 << 62
	// Re-arm the supervisor with the tightened policy.
	w.m.EnableContainment(w.policy)
	svc := w.cubs["SVC"]

	if _, cf := w.call(t, "svc_set", 5); cf != nil {
		t.Fatal(cf)
	}
	w.m.Clock.Charge(ckptTestInterval)
	if _, cf := w.call(t, "svc_get"); cf != nil {
		t.Fatal(cf)
	}

	for i := 0; i < 2; i++ {
		w.faultAndExpire(t)
		if _, cf := w.call(t, "svc_get"); cf != nil {
			t.Fatalf("restart %d refused: %v", i+1, cf)
		}
	}
	w.faultAndExpire(t)
	if _, cf := w.call(t, "svc_get"); cf == nil || !errors.Is(cf, ErrDead) {
		t.Fatalf("call after exhaustion: got %v, want ErrDead", cf)
	}
	if svc.Health() != Dead {
		t.Errorf("health = %v, want Dead", svc.Health())
	}
	if w.m.Stats.WarmRestarts != 2 {
		t.Errorf("WarmRestarts = %d, want 2 (both budgeted restarts were warm)", w.m.Stats.WarmRestarts)
	}
}

// walkHeapPages captures a cubicle's heap pages the way checkpointOne did
// before the owned-page list: a walk of the whole page table.
func walkHeapPages(m *Monitor, id ID) []snapshot.PageImage {
	var out []snapshot.PageImage
	m.AS.ForEachPage(func(pn uint64, p *vm.Page) {
		if ID(p.Owner) != id || p.Type != vm.PageHeap {
			return
		}
		perm, key := p.Meta()
		out = append(out, snapshot.PageImage{PN: pn, Key: key, Perm: uint8(perm), Type: uint8(p.Type), Data: *p.Bytes()})
	})
	return out
}

// TestCheckpointImageUnchanged: the image checkpointOne encodes from the
// owned-page list is, byte for byte, the one the page-table walk gives —
// with SVC's arenas interleaved with APP's and with stacks, and again once
// a restart has made Map hand out recycled lower page numbers.
func TestCheckpointImageUnchanged(t *testing.T) {
	w := bootCkpt(t, ckptTestInterval)
	svc := w.cubs["SVC"]
	compare := func(when string, wantPages int) {
		t.Helper()
		w.m.Clock.Charge(ckptTestInterval)
		before := w.m.Stats.Checkpoints
		if _, cf := w.call(t, "svc_get"); cf != nil {
			t.Fatal(cf)
		}
		if w.m.Stats.Checkpoints != before+1 {
			t.Fatalf("%s: no checkpoint taken", when)
		}
		rec := w.m.ckpts[svc.ID]
		img, err := snapshot.Decode(rec.img)
		if err != nil {
			t.Fatal(err)
		}
		if len(img.Pages) < wantPages {
			t.Fatalf("%s: image holds %d pages, want at least %d", when, len(img.Pages), wantPages)
		}
		img.Pages = walkHeapPages(w.m, svc.ID)
		if !bytes.Equal(snapshot.AppendEncode(nil, img), rec.img) {
			t.Errorf("%s: the image differs from the one built by the walk", when)
		}
	}
	fill := func(pages, val uint64) {
		t.Helper()
		if _, cf := w.call(t, "svc_fill", pages, val); cf != nil {
			t.Fatal(cf)
		}
	}
	fill(70, 1)
	w.heapIn(t, "APP", 70*vm.PageSize)
	fill(130, 2)
	w.heapIn(t, "APP", 8)
	fill(70, 3)
	compare("three arenas between APP's", 270)

	// Warm restart, then more arenas: the reclaim freed SVC's stack pages
	// and everything past the checkpoint, so Map recycles lower numbers.
	fill(70, 4)
	w.faultAndExpire(t)
	fill(1, 5)
	w.heapIn(t, "APP", 70*vm.PageSize)
	fill(130, 6)
	compare("after a warm restart", 400)
	if w.m.Stats.WarmRestarts != 1 {
		t.Fatalf("WarmRestarts = %d, want 1", w.m.Stats.WarmRestarts)
	}
}

// TestTrampolineCubiclePointersSurviveRestart pins what lets a trampoline
// and a handle carry *Cubicle: a restart, cold or warm, rebuilds the
// cubicle in place. It also pins the rule the per-thread stack array keeps
// from the map it replaces: no thread holds a stack for a restarted cubicle.
func TestTrampolineCubiclePointersSurviveRestart(t *testing.T) {
	w := bootCkpt(t, ckptTestInterval)
	svc, app := w.cubs["SVC"], w.cubs["APP"]
	fromApp := w.m.MustResolve(app.ID, "SVC", "svc_get")
	other := w.m.NewEnv(w.m.NewThread())
	check := func(when string) {
		t.Helper()
		for _, tr := range w.m.trampolines {
			if tr.cub != w.m.cubicle(tr.callee) {
				t.Errorf("%s: trampoline %s points at a stale cubicle", when, tr.Symbol())
			}
		}
		if fromApp.caller != w.m.cubicle(app.ID) || fromApp.tr.cub != svc || w.m.CubicleByName("SVC") != svc {
			t.Errorf("%s: the handle's cubicles are not the monitor's", when)
		}
	}
	// restart faults SVC and restarts it directly, so the state between the
	// restart and the crossing that follows it can be looked at.
	restart := func(when string) {
		t.Helper()
		for _, e := range []*Env{w.env, other} {
			if cf := CatchContained(func() { w.m.MustResolve(MonitorID, "SVC", "svc_get").Call(e) }); cf != nil {
				t.Fatal(cf)
			}
			if e.T.stacks[svc.ID] == nil {
				t.Fatalf("%s: a crossing into SVC left the thread no stack there", when)
			}
		}
		w.faultAndExpire(t)
		if !w.m.sup.restart(svc) {
			t.Fatalf("%s: restart refused", when)
		}
		for _, th := range w.m.threads {
			if th.stacks[svc.ID] != nil {
				t.Errorf("%s: thread %d still holds a stack in the restarted cubicle", when, th.id)
			}
		}
		check(when)
		// The next crossing maps a fresh stack out of pages SVC owns.
		if _, cf := w.call(t, "svc_get"); cf != nil {
			t.Fatal(cf)
		}
		s := w.env.T.stacks[svc.ID]
		if s == nil || !slices.Contains(svc.owned, s.base.PageNum()) {
			t.Errorf("%s: no stack in pages SVC owns after the next crossing", when)
		}
	}
	check("at boot")
	restart("cold restart")
	if _, cf := w.call(t, "svc_set", 9); cf != nil {
		t.Fatal(cf)
	}
	w.m.Clock.Charge(ckptTestInterval)
	restart("warm restart")
	if st := w.m.Stats; st.ColdRestarts != 1 || st.WarmRestarts != 1 {
		t.Fatalf("Cold=%d Warm=%d, want 1/1", st.ColdRestarts, st.WarmRestarts)
	}
	var ret []uint64
	w.enter(t, "APP", func(e *Env) { ret = fromApp.Call(e) })
	if ret[0] != 9 {
		t.Errorf("svc_get through the old handle = %d, want the checkpointed 9", ret[0])
	}
}

// TestVetoedCaptureKeepsLastGoodImage: a capture encodes into the record's
// spare buffer and swaps it in, so the two buffers alternate; a capture a
// Snapshot hook vetoes touches neither. The last good image keeps its
// bytes (its CRC-32) through vetoed sweeps whichever buffer holds it, and
// the warm restart that follows rebuilds the state it captured.
func TestVetoedCaptureKeepsLastGoodImage(t *testing.T) {
	w := bootCkpt(t, ckptTestInterval)
	svc := w.cubs["SVC"]
	sweep := func() {
		t.Helper()
		w.m.Clock.Charge(ckptTestInterval)
		if _, cf := w.call(t, "svc_get"); cf != nil {
			t.Fatal(cf)
		}
	}
	for _, v := range []uint64{41, 42, 43} { // each buffer holds the image once, one of them twice
		if _, cf := w.call(t, "svc_set", v); cf != nil {
			t.Fatal(cf)
		}
		sweep()
	}
	rec := w.m.ckpts[svc.ID]
	good, cycle := crc32.ChecksumIEEE(rec.img), rec.cycle
	w.vetoSnap = true
	for _, v := range []uint64{44, 45, 46} {
		if _, cf := w.call(t, "svc_set", v); cf != nil {
			t.Fatal(cf)
		}
		sweep()
		if got := crc32.ChecksumIEEE(rec.img); got != good || rec.cycle != cycle {
			t.Fatalf("a vetoed capture changed the last good image: CRC %08x at cycle %d, want %08x at %d", got, rec.cycle, good, cycle)
		}
	}
	w.faultAndExpire(t)
	ret, cf := w.call(t, "svc_get")
	if cf != nil {
		t.Fatal(cf)
	}
	if ret[0] != 43 || ret[1] != 43 {
		t.Errorf("restored state = counter %d, heap byte %d; want 43/43 (the last good image)", ret[0], ret[1])
	}
}
