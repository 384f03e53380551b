package snapshot_test

import (
	"testing"

	"cubicleos/internal/cubicle/cubicletest"
	"cubicleos/internal/snapshot"
)

// TestResetImageStartsClean: an image a capture filled — poisoned here,
// every field set — reads after Reset as a new one reset the same way.
func TestResetImageStartsClean(t *testing.T) {
	img := new(snapshot.Image)
	cubicletest.Poison(img)
	img.Reset(3, 9)
	fresh := new(snapshot.Image)
	fresh.Reset(3, 9)
	if err := cubicletest.Fresh(img, fresh); err != nil {
		t.Error(err)
	}
}
