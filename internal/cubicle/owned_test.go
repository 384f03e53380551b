package cubicle_test

import (
	"errors"
	"math/rand"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/cycles"
	"cubicleos/internal/vm"
)

// TestOwnedPagesMatchPageTable runs a seeded random program over every way a
// heap or stack page comes and goes — heap arenas of two cubicles, stacks of
// new threads, warm restarts, cold restarts with no checkpoint, a failed
// restore that falls back cold — and after each step compares every
// cubicle's owned-page list with a walk of the page table.
func TestOwnedPagesMatchPageTable(t *testing.T) {
	const interval = 50_000
	policy := cubicle.DefaultRestartPolicy()
	policy.MaxRestarts = 0
	failRestore, restoresRefused, vetoSnap := false, 0, false

	alloc := func(e *cubicle.Env, args []uint64) []uint64 {
		return e.Ret(uint64(e.HeapAlloc(args[0] * vm.PageSize)))
	}
	b := cubicle.NewBuilder()
	b.MustAdd(&cubicle.Component{Name: "APP", Kind: cubicle.KindIsolated, Exports: []cubicle.ExportDecl{
		{Name: "app_alloc", RegArgs: 1, Fn: alloc},
	}})
	b.MustAdd(&cubicle.Component{Name: "SVC", Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{
			{Name: "svc_alloc", RegArgs: 1, Fn: alloc},
			{Name: "svc_touch", RegArgs: 1, Fn: func(e *cubicle.Env, args []uint64) []uint64 {
				e.StoreByte(vm.Addr(args[0]), 1)
				return nil
			}},
		},
		OnRestart: func() {},
		Snapshot: func(*cubicle.SnapCtx) ([]byte, error) {
			if vetoSnap {
				return nil, errors.New("svc: not ready")
			}
			return []byte{}, nil
		},
		Restore: func(*cubicle.SnapCtx, []byte) error {
			if failRestore {
				failRestore = false
				restoresRefused++
				return errors.New("svc: restore refused")
			}
			return nil
		},
	})
	si, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := cubicle.NewMonitor(cubicle.ModeFull, cycles.DefaultCosts())
	m.EnableContainment(policy)
	m.EnableCheckpoints(interval)
	cubs, err := cubicle.NewLoader(m).LoadSystem(si, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := cubs["SVC"]
	envs := []*cubicle.Env{m.NewEnv(m.NewThread())}
	svcAlloc := m.MustResolve(cubicle.MonitorID, "SVC", "svc_alloc")
	svcTouch := m.MustResolve(cubicle.MonitorID, "SVC", "svc_touch")
	appAlloc := m.MustResolve(cubicle.MonitorID, "APP", "app_alloc")

	// call crosses from the monitor at frame depth zero, where the
	// checkpoint cadence fires; a refusal by a quarantined SVC is contained.
	call := func(e *cubicle.Env, h cubicle.Handle, arg uint64) (ret uint64, cf *cubicle.ContainedFault) {
		cf = cubicle.CatchContained(func() { ret = h.Call(e, arg)[0] })
		return ret, cf
	}
	appBuf, cf := call(envs[0], appAlloc, 1)
	if cf != nil {
		t.Fatal(cf)
	}

	rng := rand.New(rand.NewSource(23))
	sizes := []uint64{1, 70, 130} // 70 and 130 pages each need an arena of their own
	for step := 0; step < 400; step++ {
		e := envs[rng.Intn(len(envs))]
		op := rng.Intn(8)
		switch op {
		case 0, 1:
			call(e, svcAlloc, sizes[rng.Intn(len(sizes))])
		case 2:
			call(e, appAlloc, sizes[rng.Intn(len(sizes))])
		case 3: // a new thread maps a stack in whichever cubicle it enters
			if len(envs) < 6 {
				e = m.NewEnv(m.NewThread())
				envs = append(envs, e)
			}
			call(e, svcAlloc, 1)
		case 4: // checkpoint: the first depth-zero call past the threshold
			m.Clock.Charge(interval)
			call(e, svcAlloc, 1)
		case 5, 6: // fault SVC, wait the backoff out, restart on the next call
			failRestore = op == 6
			if _, cf := call(e, svcTouch, appBuf); cf == nil {
				t.Fatalf("step %d: SVC wrote APP's heap", step)
			}
			m.Clock.Charge(policy.BackoffMax)
			if _, cf := call(e, svcAlloc, 1); cf != nil {
				t.Fatalf("step %d: call after the backoff: %v", step, cf)
			}
		case 7: // while SVC vetoes, a checkpoint a refused restore dropped stays gone
			vetoSnap = !vetoSnap
		}
		if err := cubicletest.OwnedPages(m); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
	}
	st := m.Stats
	if st.WarmRestarts == 0 || st.ColdRestarts <= uint64(restoresRefused) || restoresRefused == 0 ||
		st.Checkpoints == 0 {
		t.Errorf("the program missed a path: %d warm, %d cold restarts (%d after a refused restore), %d checkpoints",
			st.WarmRestarts, st.ColdRestarts, restoresRefused, st.Checkpoints)
	}
	if len(svc.OwnedPages()) == 0 {
		t.Error("SVC ends owning no page")
	}
}
