package isa_test

import (
	"bytes"
	"sync"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/isa"
	"cubicleos/internal/siege"
)

// TestConcurrentBoots boots eight httpd targets on eight goroutines from
// an empty image cache, each serving one fetch: the cache is filled under
// its lock (go test -race checks the rest), and every target answers with
// the same bytes, at the same virtual cycle, as one booted alone after.
func TestConcurrentBoots(t *testing.T) {
	body := bytes.Repeat([]byte("cubicle "), 512)
	type outcome struct {
		status        int
		same          bool
		cycles, clock uint64
	}
	serve := func() (outcome, error) {
		tgt, err := siege.NewTarget(cubicle.ModeFull)
		if err != nil {
			return outcome{}, err
		}
		if err := tgt.PutFile("/f", body); err != nil {
			return outcome{}, err
		}
		res, err := tgt.Fetch("/f")
		if err != nil {
			return outcome{}, err
		}
		return outcome{res.Status, bytes.Equal(res.Body, body), res.Cycles, tgt.Sys.M.Clock.Cycles()}, nil
	}

	isa.ResetCache()
	var wg sync.WaitGroup
	got := make([]outcome, 8)
	errs := make([]error, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = serve()
		}()
	}
	wg.Wait()
	want, err := serve()
	if err != nil {
		t.Fatal(err)
	}
	if want.status != 200 || !want.same {
		t.Fatalf("the serial boot answered %d, body intact %v", want.status, want.same)
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Errorf("goroutine %d: %+v, the serial boot %+v", i, got[i], want)
		}
	}
}
