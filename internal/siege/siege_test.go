package siege_test

import (
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/siege"
)

func mustTarget(t *testing.T, mode cubicle.Mode) *siege.Target {
	t.Helper()
	tgt, err := siege.NewTarget(mode)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func TestFetchAccountsFloor(t *testing.T) {
	tgt := mustTarget(t, cubicle.ModeUnikraft)
	if err := tgt.PutFile("/x", make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	res, err := tgt.Fetch("/x")
	if err != nil {
		t.Fatal(err)
	}
	// Latency = system cycles + the fixed client/network floor at 2.2 GHz.
	floorMs := float64(tgt.RequestFloor) / 2.2e6
	if got := float64(res.Latency.Microseconds()) / 1000; got < floorMs {
		t.Errorf("latency %.2f ms below the %.2f ms floor", got, floorMs)
	}
}

func TestFetchMissingIs404(t *testing.T) {
	tgt := mustTarget(t, cubicle.ModeFull)
	if err := tgt.PutFile("/present", []byte("y")); err != nil {
		t.Fatal(err)
	}
	res, err := tgt.Fetch("/absent")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 404 {
		t.Fatalf("status %d", res.Status)
	}
}

func TestEdgesReporting(t *testing.T) {
	tgt := mustTarget(t, cubicle.ModeFull)
	if err := tgt.PutFile("/e", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.Fetch("/e"); err != nil {
		t.Fatal(err)
	}
	edges := tgt.Edges()
	if len(edges) == 0 {
		t.Fatal("no call edges recorded")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i].Count > edges[i-1].Count {
			t.Fatal("edges not sorted by count")
		}
	}
}
