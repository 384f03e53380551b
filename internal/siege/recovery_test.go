package siege

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/faultinject"
	"cubicleos/internal/lwip"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/snapshot"
	"cubicleos/internal/trace"
	"cubicleos/internal/vm"
)

// pattern returns n distinctive bytes so byte-identity after a warm
// restart is a real check, not an all-zero coincidence.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

// TestWarmRestartRestoresRamfs is the headline robustness property: with
// checkpoints armed, a RAMFS restart restores the file system from the
// last checkpoint — the provisioned file is served byte-identically after
// recovery with NO operator re-provisioning, where a cold restart would
// 404 until PutFile ran again.
func TestWarmRestartRestoresRamfs(t *testing.T) {
	tgt, err := NewTargetOpts(Options{
		Mode:               cubicle.ModeFull,
		TraceEvents:        1 << 15,
		CheckpointInterval: 300_000,
	}.Chaotic(7))
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(16 << 10)
	if err := tgt.PutFile("/f.bin", want); err != nil {
		t.Fatal(err)
	}
	m := tgt.Sys.M
	ramfsCub := tgt.Sys.Cubs[ramfs.Name]

	// Run unarmed until RAMFS has a checkpoint covering the file.
	for i := 0; i < 10; i++ {
		if _, ok := m.LastCheckpoint(ramfsCub.ID); ok {
			break
		}
		if _, err := tgt.Fetch("/f.bin"); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := m.LastCheckpoint(ramfsCub.ID); !ok {
		t.Fatal("no RAMFS checkpoint after warm-up traffic")
	}

	// Chaos until the supervisor warm-restarts RAMFS at least once. No
	// re-provisioning happens anywhere past this point.
	tgt.Sys.Chaos.Arm()
	for i := 0; i < 200 && m.Stats.WarmRestarts == 0; i++ {
		_, _ = tgt.Fetch("/f.bin")
	}
	tgt.Sys.Chaos.Disarm()
	if m.Stats.WarmRestarts == 0 {
		t.Fatalf("no warm restart over the chaos run: %+v", m.Stats)
	}

	// Recovery without operator action: wait out any remaining backoff and
	// the restored file system must serve the original bytes.
	var res *Result
	for i := 0; i < 50; i++ {
		res, err = tgt.Fetch("/f.bin")
		if err == nil && res.Status == 200 {
			break
		}
		m.Clock.Charge(cubicle.DefaultRestartPolicy().BackoffMax)
	}
	if err != nil {
		t.Fatalf("post-recovery fetch: %v", err)
	}
	if res.Status != 200 {
		t.Fatalf("post-recovery status = %d, want 200 with no re-provisioning", res.Status)
	}
	if !bytes.Equal(res.Body, want) {
		t.Fatalf("restored file diverges: got %d bytes, want %d byte-identical", len(res.Body), len(want))
	}
	if h := ramfsCub.Health(); h != cubicle.Healthy {
		t.Errorf("RAMFS health after recovery = %v, want Healthy", h)
	}

	if m.Stats.Restarts != m.Stats.WarmRestarts+m.Stats.ColdRestarts {
		t.Errorf("Restarts=%d != Warm %d + Cold %d",
			m.Stats.Restarts, m.Stats.WarmRestarts, m.Stats.ColdRestarts)
	}

	// Nothing the restart rebuilt points into the checkpoint it came from:
	// a record's two buffers alternate, so two more captures of RAMFS on
	// the idle target overwrite the one the restore decoded, and RAMFS's
	// pages and the file it serves read the same after them.
	pages := heapBytes(m, ramfsCub)
	for i := 0; i < 2; i++ {
		before, _ := m.LastCheckpoint(ramfsCub.ID)
		m.Clock.Charge(300_000)
		tgt.Step()
		if after, _ := m.LastCheckpoint(ramfsCub.ID); after.Cycle == before.Cycle {
			t.Fatalf("sweep %d took no RAMFS checkpoint", i+1)
		}
	}
	if !bytes.Equal(heapBytes(m, ramfsCub), pages) {
		t.Error("two captures after the warm restart changed RAMFS's heap pages")
	}
	if res, err = tgt.Fetch("/f.bin"); err != nil {
		t.Fatalf("fetch after two more captures: %v", err)
	}
	if res.Status != 200 || !bytes.Equal(res.Body, want) {
		t.Errorf("the file after two more captures: status %d, %d bytes; want the original %d", res.Status, len(res.Body), len(want))
	}
}

// heapBytes returns the contents of the cubicle's heap pages, in page
// order.
func heapBytes(m *cubicle.Monitor, c *cubicle.Cubicle) []byte {
	var b []byte
	for _, pn := range c.OwnedPages() {
		if p := m.AS.Page(vm.PageAddr(pn)); p.Type == vm.PageHeap {
			b = append(b, p.Bytes()[:]...)
		}
	}
	return b
}

// recoveryRun drives one chaos siege and reports the availability
// metrics the warm-vs-cold comparison is about.
type recoveryRun struct {
	stats    cubicle.Stats
	failed   int    // responses that were not 200 (shed, degraded, truncated)
	mttr     uint64 // virtual cycles spent in degraded spans (non-200 until the next 200)
	requests int
}

func driveRecovery(t *testing.T, checkpointInterval uint64) recoveryRun {
	t.Helper()
	tgt, err := NewTargetOpts(Options{Mode: cubicle.ModeFull, CheckpointInterval: checkpointInterval}.Chaotic(7))
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(16 << 10)
	if err := tgt.PutFile("/f.bin", data); err != nil {
		t.Fatal(err)
	}
	m := tgt.Sys.M
	tgt.Sys.Chaos.Arm()
	out := recoveryRun{requests: 60}
	degradedSince := uint64(0)
	for i := 0; i < out.requests; i++ {
		before := m.Clock.Cycles()
		res, err := tgt.Fetch("/f.bin")
		if err := cubicletest.OwnedPages(m); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		ok := err == nil && res.Status == 200
		if ok {
			if degradedSince != 0 {
				out.mttr += m.Clock.Cycles() - degradedSince
				degradedSince = 0
			}
		} else {
			out.failed++
			if degradedSince == 0 {
				degradedSince = before
			}
			// Operator recovery action for the cold path: a 404 after a
			// restart means the file system came back empty. The warm path
			// never hits this; the cold path pays it on the virtual clock.
			if err == nil && res.Status == 404 {
				_ = tgt.PutFile("/f.bin", data)
			}
		}
	}
	if degradedSince != 0 {
		out.mttr += m.Clock.Cycles() - degradedSince
	}
	tgt.Sys.Chaos.Disarm()
	out.stats = m.Stats
	return out
}

// TestWarmVsColdSiege runs the same chaos schedule (same seed) with and
// without checkpoints: the warm run must restart warm, shed strictly
// fewer requests, and spend strictly fewer virtual cycles degraded.
func TestWarmVsColdSiege(t *testing.T) {
	warm := driveRecovery(t, 300_000)
	cold := driveRecovery(t, 0)

	if warm.stats.WarmRestarts == 0 {
		t.Fatalf("checkpointed run had no warm restarts: %+v", warm.stats)
	}
	if warm.stats.ColdRestarts != 0 {
		t.Errorf("checkpointed run fell back cold %d times", warm.stats.ColdRestarts)
	}
	if cold.stats.WarmRestarts != 0 || cold.stats.Checkpoints != 0 {
		t.Fatalf("uncheckpointed run warm-restarted: %+v", cold.stats)
	}
	if cold.stats.Restarts == 0 {
		t.Fatalf("uncheckpointed run never restarted; the comparison is vacuous: %+v", cold.stats)
	}
	if warm.failed >= cold.failed {
		t.Errorf("warm run shed %d of %d requests, cold shed %d — want strictly fewer warm",
			warm.failed, warm.requests, cold.failed)
	}
	if warm.mttr >= cold.mttr {
		t.Errorf("warm run spent %d virtual cycles degraded, cold %d — want strictly lower warm",
			warm.mttr, cold.mttr)
	}
	t.Logf("warm: %d/%d failed, %d cycles degraded, %d warm restarts, %d checkpoints",
		warm.failed, warm.requests, warm.mttr, warm.stats.WarmRestarts, warm.stats.Checkpoints)
	t.Logf("cold: %d/%d failed, %d cycles degraded, %d cold restarts",
		cold.failed, cold.requests, cold.mttr, cold.stats.ColdRestarts)
}

// TestRestartBudgetExhaustionUnderLoad: when RAMFS exhausts its restart
// budget and dies under sustained load, the server keeps answering — 503s
// for requests needing the dead file system — and the monitor never
// panics out of the siege loop.
func TestRestartBudgetExhaustionUnderLoad(t *testing.T) {
	policy := cubicle.DefaultRestartPolicy()
	policy.MaxRestarts = 2
	policy.RestartWindow = 1 << 62 // strikes never age out: death is certain
	policy.CrossingBudget = 200_000_000
	tgt, err := NewTargetOpts(Options{
		Mode:               cubicle.ModeFull,
		Supervision:        &policy,
		CheckpointInterval: 300_000,
		Chaos: &faultinject.Config{
			Seed:           11,
			Target:         ramfs.Name,
			ProtAtCrossing: 0.15, // hammer RAMFS so the budget drains fast
			LeakAtCrossing: 0.05,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/f.bin", pattern(8<<10)); err != nil {
		t.Fatal(err)
	}
	m := tgt.Sys.M
	ramfsCub := tgt.Sys.Cubs[ramfs.Name]

	tgt.Sys.Chaos.Arm()
	statuses := map[int]int{}
	after503 := 0
	for i := 0; i < 80; i++ {
		if ramfsCub.Health() == cubicle.Dead {
			// Keep serving against a dead dependency: these must all come
			// back as clean 503s, never a crash.
			m.Clock.Charge(policy.BackoffMax)
		}
		res, err := tgt.Fetch("/f.bin")
		if err != nil {
			continue // truncated response: contained, not a crash
		}
		statuses[res.Status]++
		if ramfsCub.Health() == cubicle.Dead && res.Status == 503 {
			after503++
		}
	}
	tgt.Sys.Chaos.Disarm()

	if ramfsCub.Health() != cubicle.Dead {
		t.Fatalf("RAMFS health = %v after %d restarts, want Dead (budget %d)",
			ramfsCub.Health(), ramfsCub.Restarts(), policy.MaxRestarts)
	}
	for _, c := range m.Cubicles() {
		if c != ramfsCub && c.Health() == cubicle.Dead {
			t.Errorf("%s is Dead too; only RAMFS exhausted its budget", c.Name)
		}
	}
	if after503 == 0 {
		t.Errorf("no 503 served after RAMFS died: statuses %v", statuses)
	}
	if m.Stats.Restarts != uint64(policy.MaxRestarts) {
		t.Errorf("Restarts = %d, want exactly the budget %d", m.Stats.Restarts, policy.MaxRestarts)
	}
	if m.Stats.Restarts != m.Stats.WarmRestarts+m.Stats.ColdRestarts {
		t.Errorf("Restarts=%d != Warm %d + Cold %d",
			m.Stats.Restarts, m.Stats.WarmRestarts, m.Stats.ColdRestarts)
	}
}

// replayRun drives the chaos+checkpoint workload on a fresh target, to
// the end (stop=0) or until the virtual clock passes stop.
func replayRun(t *testing.T, cores int, stop uint64) *Target {
	t.Helper()
	tgt, err := NewTargetOpts(Options{
		Mode:               cubicle.ModeFull,
		TraceEvents:        1 << 16,
		CheckpointInterval: 300_000,
		SMPCores:           cores,
	}.Chaotic(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/f.bin", pattern(8<<10)); err != nil {
		t.Fatal(err)
	}
	tgt.Sys.Chaos.Arm()
	for i := 0; i < 15; i++ {
		var res *Result
		var err error
		if stop != 0 {
			res, err = tgt.FetchUntil("/f.bin", stop)
			if errors.Is(err, ErrHalted) {
				break
			}
		} else {
			res, err = tgt.Fetch("/f.bin")
		}
		if err == nil && res.Status == 404 {
			_ = tgt.PutFile("/f.bin", pattern(8<<10))
		}
	}
	tgt.Sys.Chaos.Disarm()
	if d := tgt.Sys.M.Tracer().Dropped(); d != 0 {
		t.Fatalf("trace ring dropped %d events; prefix comparison unsound", d)
	}
	return tgt
}

// replayEvents returns the trace events of one replayRun with
// Cycle <= stop (stop=0: the full run).
func replayEvents(t *testing.T, cores int, stop uint64) []trace.Event {
	t.Helper()
	tgt := replayRun(t, cores, stop)
	events := tgt.Sys.M.Tracer().Events()
	cutoff := stop
	if cutoff == 0 {
		cutoff = tgt.Sys.M.Clock.Cycles()
	}
	for i, ev := range events {
		if ev.Cycle > cutoff {
			return events[:i]
		}
	}
	return events
}

// TestReplayDeterminism: re-executing a recorded run with the same seed
// and halting the virtual clock mid-flight yields a bit-identical event
// prefix — at one core and at four.
func TestReplayDeterminism(t *testing.T) {
	for _, cores := range []int{1, 4} {
		full := replayEvents(t, cores, 0)
		if len(full) == 0 {
			t.Fatalf("cores=%d: recorded run produced no events", cores)
		}
		// Halt roughly mid-run at an exact cycle from the recorded stream.
		until := full[len(full)/2].Cycle
		replayed := replayEvents(t, cores, until)
		want := full
		for i, ev := range want {
			if ev.Cycle > until {
				want = want[:i]
				break
			}
		}
		if len(replayed) != len(want) {
			t.Fatalf("cores=%d: %d events with cycle <= %d recorded, %d replayed",
				cores, len(want), until, len(replayed))
		}
		for i := range want {
			if want[i] != replayed[i] {
				t.Fatalf("cores=%d: replay diverged at event %d:\n  recorded: %+v\n  replayed: %+v",
					cores, i, want[i], replayed[i])
			}
		}
		t.Logf("cores=%d: %d events bit-identical up to cycle %d (full run: %d events)",
			cores, len(replayed), until, len(full))
	}
}

// idleLwipTarget boots a supervised, checkpointing target serving /f.bin
// and runs one fetch whose first crossing sweeps while LWIP holds only its
// listener, so LWIP has a checkpoint.
func idleLwipTarget(t *testing.T, want []byte) *Target {
	t.Helper()
	pol := cubicle.DefaultRestartPolicy()
	tgt, err := NewTargetOpts(Options{Mode: cubicle.ModeFull, Supervision: &pol, CheckpointInterval: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/f.bin", want); err != nil {
		t.Fatal(err)
	}
	tgt.Sys.M.Clock.Charge(300_000)
	if _, err := tgt.Fetch("/f.bin"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tgt.Sys.M.LastCheckpoint(tgt.Sys.Cubs[lwip.Name].ID); !ok {
		t.Fatal("no LWIP checkpoint at an idle point")
	}
	return tgt
}

// TestWarmRestartRestoresLwip kills LWIP after it took a checkpoint: the
// supervisor restarts it warm from that checkpoint, and the restored
// listener serves the file again.
func TestWarmRestartRestoresLwip(t *testing.T) {
	want := pattern(16 << 10)
	tgt := idleLwipTarget(t, want)
	m := tgt.Sys.M
	if !tgt.Sys.Sup.Kill(lwip.Name, nil) {
		t.Fatal("Kill(LWIP) refused")
	}
	m.Clock.Charge(cubicle.DefaultRestartPolicy().BackoffMax)
	res, err := tgt.Fetch("/f.bin")
	if err != nil {
		t.Fatalf("fetch after the restart: %v", err)
	}
	if res.Status != 200 || !bytes.Equal(res.Body, want) {
		t.Fatalf("fetch after the restart: status %d, %d bytes; want 200 and the file's %d", res.Status, len(res.Body), len(want))
	}
	if m.Stats.WarmRestarts < 1 || m.Stats.ColdRestarts != 0 {
		t.Errorf("Warm=%d Cold=%d, want LWIP restarted warm", m.Stats.WarmRestarts, m.Stats.ColdRestarts)
	}
}

// TestCorruptBlobsFailRestore: a truncated blob, or one whose count is
// past its limit, fails RAMFS's and LWIP's Restore with a
// *snapshot.DecodeError and leaves the module as it was.
func TestCorruptBlobsFailRestore(t *testing.T) {
	tgt, err := NewTargetOpts(Options{Mode: cubicle.ModeFull})
	if err != nil {
		t.Fatal(err)
	}
	// Empty files: Snapshot then reads no simulated memory, and needs no
	// SnapCtx.
	for _, path := range []string{"/a", "/b"} {
		if err := tgt.PutFile(path, nil); err != nil {
			t.Fatal(err)
		}
	}
	fs := tgt.Sys.Ramfs
	mods := []struct {
		name    string
		snap    func(*cubicle.SnapCtx) ([]byte, error)
		restore func(*cubicle.SnapCtx, []byte) error
		counts  map[int]uint32 // offset of a u32 count -> its limit (the root inode's pages, children, first name)
	}{
		{"RAMFS", fs.Snapshot, fs.Restore, map[int]uint32{16: 1 << 20, 37: 1 << 20, 41: 1 << 20, 45: snapshot.MaxName}},
		{"LWIP", tgt.Sys.Lwip.Snapshot, tgt.Sys.Lwip.Restore, map[int]uint32{48: 1 << 20}},
	}
	for _, mod := range mods {
		blob := mustSnap(t, mod.snap)
		var bad [][]byte
		for n := 0; n < len(blob); n++ {
			bad = append(bad, blob[:n])
		}
		for off, limit := range mod.counts {
			b := append([]byte(nil), blob...)
			binary.LittleEndian.PutUint32(b[off:], limit+1)
			bad = append(bad, b)
		}
		for _, b := range bad {
			var de *snapshot.DecodeError
			if err := mod.restore(nil, b); !errors.As(err, &de) {
				t.Fatalf("%s: Restore of a %d-byte corrupt blob = %v, want a *snapshot.DecodeError", mod.name, len(b), err)
			}
			if after := mustSnap(t, mod.snap); !bytes.Equal(after, blob) {
				t.Fatalf("%s: a failed Restore of %d bytes changed the module", mod.name, len(b))
			}
		}
	}
}

func mustSnap(t *testing.T, snap func(*cubicle.SnapCtx) ([]byte, error)) []byte {
	t.Helper()
	b, err := snap(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
