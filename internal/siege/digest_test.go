package siege

import (
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cubicle/cubicletest"
)

// TestSMPCoresSurchargeStreamPinned pins what SMPCores: 4 does to the
// replay workload (chaos seed 7, checkpoints every 300 000 cycles,
// supervision): the stream was first pinned at the commit before in-monitor
// thread placement was deleted, where the same fold also asserted
// Core == 0 on every event and ShardRecorded(c) == 0 for c >= 1
// (EXPERIMENTS.md, "In-monitor cores: who entered them"), and re-pinned
// unchanged but for the kinds' numbering and two counter rows
// (EXPERIMENTS.md, "Overload knobs removed"), then for the page addresses
// in fault and retag events (EXPERIMENTS.md, "Component ABI trimmed").
func TestSMPCoresSurchargeStreamPinned(t *testing.T) {
	const want = uint64(0x873f92803bb37f9f)
	m := replayRun(t, 64, 4, 0).Sys.M
	if got := cubicletest.StreamDigest(m); got != want {
		t.Fatalf("stream digest at SMPCores 4 = %#x, want %#x (%d events, clock %d, %d shootdowns)",
			got, want, m.Tracer().Recorded(), m.Clock.Cycles(), m.Stats.TLBShootdowns)
	}
}

// TestSMPCoresSurchargeLaw: on an un-governed, chaos-free target the only
// thing SMPCores changes is the libmpk surcharge — one shootdown per retag,
// ShootdownIPI per remote core on the clock, and no other counter.
func TestSMPCoresSurchargeLaw(t *testing.T) {
	run := func(cores int) *cubicle.Monitor {
		tgt, err := NewTargetOpts(Options{Mode: cubicle.ModeFull, SMPCores: cores})
		if err != nil {
			t.Fatal(err)
		}
		if err := tgt.PutFile("/f.bin", pattern(8<<10)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			if res, err := tgt.Fetch("/f.bin"); err != nil || res.Status != 200 {
				t.Fatalf("cores=%d fetch %d: %v %+v", cores, i, err, res)
			}
		}
		return tgt.Sys.M
	}
	one, four := run(1), run(4)
	if one.Stats.TLBShootdowns != 0 || four.Stats.TLBShootdowns == 0 {
		t.Fatalf("shootdowns: %d at one core, %d at four", one.Stats.TLBShootdowns, four.Stats.TLBShootdowns)
	}
	if four.Stats.TLBShootdowns != four.Stats.Retags {
		t.Errorf("%d shootdowns for %d retags", four.Stats.TLBShootdowns, four.Stats.Retags)
	}
	surcharge := four.Stats.TLBShootdowns * 3 * four.Costs.ShootdownIPI
	if got := four.Clock.Cycles() - one.Clock.Cycles(); got != surcharge {
		t.Errorf("clock differs by %d, want %d shootdowns x 3 x %d = %d",
			got, four.Stats.TLBShootdowns, four.Costs.ShootdownIPI, surcharge)
	}
	for _, c := range cubicle.Counters {
		a, b := *c.Field(&one.Stats), *c.Field(&four.Stats)
		if a != b && c.Name != "tlb_shootdowns" {
			t.Errorf("%s: %d at one core, %d at four", c.Name, a, b)
		}
	}
}
