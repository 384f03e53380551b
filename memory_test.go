package cubicleos_test

import (
	"testing"

	"cubicleos/internal/cluster"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/experiments"
	"cubicleos/internal/siege"
	"cubicleos/internal/vm"
)

// zeroFrameIsZero reports whether a page never written still reads all
// zeros: every such page, in every address space, reads the one shared
// zero frame.
func zeroFrameIsZero(t *testing.T) bool {
	t.Helper()
	as := vm.NewAddrSpace()
	a, err := as.Map(1, vm.NoOwner, vm.PageHeap, vm.PermRead, 0)
	if err != nil {
		t.Fatal(err)
	}
	return *as.Page(a).Bytes() == [vm.PageSize]byte{}
}

// TestZeroFrameStaysZero: no path of Figure 7, the chaos-7 siege (faults,
// warm restores) or a speedtest pass writes through a view of a page it
// never wrote, which would change every unwritten page at once.
func TestZeroFrameStaysZero(t *testing.T) {
	for _, run := range []struct {
		name string
		fn   func(t *testing.T)
	}{
		{"fig7", func(t *testing.T) {
			if _, err := experiments.Fig7(); err != nil {
				t.Fatal(err)
			}
		}},
		{"chaos-7 siege", func(t *testing.T) { replayCell(t, cubicle.ModeFull) }},
		{"speedtest", func(t *testing.T) { speedtestCell(t) }},
	} {
		run.fn(t)
		if !zeroFrameIsZero(t) {
			t.Fatalf("after the %s run the shared zero frame holds data", run.name)
		}
	}
}

// TestResidentFramesStayFew: most of what a deployment maps — stacks, heap
// arenas, socket rings — is never written, and costs the host no frame.
// The default httpd target and the four-backend cluster each hold frames
// for at most 30 % of their mapped pages once booted (21 % measured).
func TestResidentFramesStayFew(t *testing.T) {
	tgt, err := siege.NewTarget(cubicle.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Options{Backends: 4, Mode: cubicle.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	var fleet vm.Usage
	for _, b := range c.Backends {
		u := b.T.Sys.M.AS.Total()
		fleet.Mapped += u.Mapped
		fleet.Resident += u.Resident
	}
	for _, d := range []struct {
		name string
		u    vm.Usage
	}{{"the httpd target", tgt.Sys.M.AS.Total()}, {"the 4-backend cluster", fleet}} {
		t.Logf("%s: %d of %d mapped pages resident", d.name, d.u.Resident, d.u.Mapped)
		if d.u.Mapped == 0 || d.u.Resident*10 > d.u.Mapped*3 {
			t.Errorf("%s holds %d frames for %d mapped pages, want at most 30 %%", d.name, d.u.Resident, d.u.Mapped)
		}
	}
}
