package cubicleos_test

import (
	"bytes"
	"crypto/sha256"
	"slices"
	"strings"
	"testing"

	"cubicleos/internal/cluster"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/experiments"
	"cubicleos/internal/isa"
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

// buildGuardPage is the guard-page layout as the loader wrote it into a
// fresh frame of each guard and thunk page, byte by byte: wrpkru, a jump
// whose operand is the trampoline id, then a NOP slide to the page's end.
// The shared frames of isa.GuardPage must read exactly this.
func buildGuardPage(trampolineID uint32) []byte {
	page := make([]byte, isa.GuardPageSize)
	n := copy(page, isa.OpWRPKRU)
	page[n] = isa.OpJMP
	n++
	for i := 0; i < 4; i++ {
		page[n] = byte(trampolineID >> (8 * i))
		n++
	}
	for ; n < isa.GuardPageSize; n++ {
		page[n] = isa.OpNOP
	}
	return page
}

// bootedMonitors boots the httpd target, the SQLite deployment and the
// 4-backend cluster, and returns their monitors.
func bootedMonitors(t *testing.T) []*cubicle.Monitor {
	t.Helper()
	tgt, err := siege.NewTarget(cubicle.ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := experiments.NewSQLiteTarget(cubicle.ModeFull, nil, 10, experiments.UnikraftWorkScale)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cluster.Options{Backends: 4, Mode: cubicle.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	ms := []*cubicle.Monitor{tgt.Sys.M, sql.Sys.M}
	for _, b := range c.Backends {
		ms = append(ms, b.T.Sys.M)
	}
	return ms
}

// exportsOf returns each loaded component's exports, in declaration order.
func exportsOf(m *cubicle.Monitor) map[string][]string {
	out := map[string][]string{}
	for _, tr := range m.Trampolines() {
		comp, sym, _ := strings.Cut(tr.Symbol(), ".")
		out[comp] = append(out[comp], sym)
	}
	return out
}

// pageSums returns the SHA-256 of each page-sized piece of b, the last
// zero-padded, as the loader maps it.
func pageSums(b []byte) [][32]byte {
	var out [][32]byte
	for lo := 0; lo < len(b); lo += vm.PageSize {
		var pg [vm.PageSize]byte
		copy(pg[:], b[lo:])
		out = append(out, sha256.Sum256(pg[:]))
	}
	return out
}

// TestDefaultImagesEqualSynthesize: every code and global page the httpd,
// SQLite and 4-backend cluster deployments load reads what the builder
// used to synthesise for it afresh each boot (isa.Synthesize with the
// builder's seed) or, for a thunk or guard page, the old guard-page
// layout; and each guard page is the trampoline's one shared frame.
func TestDefaultImagesEqualSynthesize(t *testing.T) {
	for i, m := range bootedMonitors(t) {
		exports := exportsOf(m)
		want := map[int][][32]byte{} // owner -> page sums
		for _, c := range m.Cubicles() {
			for _, comp := range c.Components() {
				fresh := isa.Synthesize(comp, exports[comp], isa.SynthOptions{Seed: int64(len(comp)) * 1315423911})
				for _, s := range fresh.Sections {
					want[int(c.ID)] = append(want[int(c.ID)], pageSums(s.Data)...)
				}
			}
		}
		for j, tr := range m.Trampolines() {
			id := uint32(j + 1) // the loader numbers trampolines from 1
			layout := buildGuardPage(id)
			want[int(cubicle.MonitorID)] = append(want[int(cubicle.MonitorID)], sha256.Sum256(layout))
			for _, c := range m.Cubicles() {
				if a := tr.GuardAddr(c.ID); a != 0 {
					want[int(c.ID)] = append(want[int(c.ID)], sha256.Sum256(layout))
					if m.AS.Page(a).Bytes() != isa.GuardPage(id) {
						t.Errorf("monitor %d: %s's guard page in %s is not its shared frame", i, tr.Symbol(), c.Name)
					}
				}
			}
		}
		got := map[int][][32]byte{}
		m.AS.ForEachPage(func(_ uint64, p *vm.Page) {
			if p.Type == vm.PageCode || p.Type == vm.PageGlobal {
				got[p.Owner] = append(got[p.Owner], sha256.Sum256(p.Bytes()[:]))
			}
		})
		for owner := range want {
			cmp := func(a, b [32]byte) int { return bytes.Compare(a[:], b[:]) }
			slices.SortFunc(want[owner], cmp)
			slices.SortFunc(got[owner], cmp)
			if !slices.Equal(got[owner], want[owner]) {
				t.Errorf("monitor %d, owner %d: %d loaded pages differ from the %d fresh ones", i, owner, len(got[owner]), len(want[owner]))
			}
		}
		if len(got) != len(want) {
			t.Errorf("monitor %d: code or global pages of %d owners, want %d", i, len(got), len(want))
		}
	}
}

// sharedSum hashes every shared frame the deployments of bootedMonitors
// read: each default image's section bytes and frames, and the guard page
// of every trampoline id they use.
func sharedSum(t *testing.T, ms []*cubicle.Monitor) [32]byte {
	t.Helper()
	h := sha256.New()
	for _, m := range ms {
		exports := exportsOf(m)
		for _, c := range m.Cubicles() {
			for _, comp := range c.Components() {
				for _, s := range isa.DefaultImage(comp, exports[comp]).Sections {
					h.Write(s.Data)
					for _, f := range s.Frames() {
						h.Write(f[:])
					}
				}
			}
		}
		for id := range m.Trampolines() {
			h.Write(isa.GuardPage(uint32(id + 1))[:])
		}
	}
	return [32]byte(h.Sum(nil))
}

// TestSharedFramesStayUnchanged: no path of Figure 7, the chaos-7 siege
// (faults, warm restores) or a speedtest pass writes a cached image's
// bytes or a shared guard page, which every monitor of the process reads.
func TestSharedFramesStayUnchanged(t *testing.T) {
	ms := bootedMonitors(t)
	before := sharedSum(t, ms)
	if _, err := experiments.Fig7(); err != nil {
		t.Fatal(err)
	}
	replayCell(t, cubicle.ModeFull)
	speedtestCell(t)
	if sharedSum(t, ms) != before {
		t.Fatal("a run wrote a shared image or guard frame")
	}
}
