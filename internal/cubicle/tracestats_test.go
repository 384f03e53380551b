package cubicle

import (
	"reflect"
	"testing"

	"cubicleos/internal/cycles"
	"cubicleos/internal/trace"
)

// TestEveryCounterIsEventDerived records one event of every trace.Kind
// and requires StatsFromTrace to set every scalar counter of Stats, so a
// counter added without a defining event fails here instead of silently
// reading 0 in the derived view. The three always-zero benchmark shims
// are the only exemption.
func TestEveryCounterIsEventDerived(t *testing.T) {
	trc := trace.New(&cycles.Clock{}, 64)
	trc.CallEnter(0, 1, 2, "f", 8)
	trc.CallExit(0, 1, 2, "f")
	trc.SharedCall(0, 1, 3, "memcpy")
	trc.Fault(0, 2, 1, 0x1000, 100)
	trc.DeniedFault(0, 2, 1, 0x1000)
	trc.Retag(0, 2, 0x1000, 3)
	trc.WRPKRU(0, 1, 0xFFF0)
	trc.WindowOp(0, 1, "open", 0)
	trc.WindowSearch(0, 2, 1)
	trc.KeyEviction(1, 3)
	trc.IPC(0, 1, "send", 8, 100)
	trc.Copy(0, 1, 16)
	trc.Mark(0, 1, "mark")
	trc.Contained(0, 2, 1, "prot")
	trc.Quarantine(2, 1000)
	trc.Restart(2, 1)
	trc.Injected(2, "crossing")
	trc.Shed(0, 2, "load", 503)
	trc.DeadlineMiss(0, 2, 10, 20)
	trc.QuotaHit(0, 2, "pages", 2, 1)
	trc.Retry(0, 1, 1, 100)
	trc.Shootdown(0, 1, 2500)
	trc.Checkpoint(2, 4096, 100)
	trc.WarmRestart(2, 1)
	trc.ColdRestart(2, 0)
	trc.Route("hash", 0, 0)
	trc.Drain("drain", 0, 1000)
	trc.Failover("retry", 0, 1)
	for k := trace.Kind(0); k <= trace.EvFailover; k++ {
		if trc.Count(k) != 1 {
			t.Errorf("kind %d recorded %d times, want 1: extend this test's event list", k, trc.Count(k))
		}
	}

	shim := map[string]bool{"TLBHits": true, "TLBMisses": true, "TLBInvalidations": true}
	sv := reflect.ValueOf(StatsFromTrace(trc))
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if sv.Field(i).Kind() != reflect.Uint64 {
			continue
		}
		if got := sv.Field(i).Uint(); (got == 0) != shim[name] {
			t.Errorf("Stats.%s derived from one event of every kind = %d (shim=%v)", name, got, shim[name])
		}
	}
}
