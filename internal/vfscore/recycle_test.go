package vfscore

import (
	"testing"

	"cubicleos/internal/cubicle/cubicletest"
)

// TestRecycledFileStartsClean: a closed file description, poisoned —
// every field set, the most an open file's lifecycle could leave — is the
// one the next open gets, and it reads as a new one.
func TestRecycledFileStartsClean(t *testing.T) {
	v := New()
	old := v.takeFile(7, ORdwr|OAppend)
	cubicletest.Poison(old)
	v.spareFiles.Put(old)
	got := v.takeFile(8, ORdonly)
	if got != old {
		t.Fatal("takeFile did not reuse the closed file")
	}
	if err := cubicletest.Fresh(got, v.takeFile(8, ORdonly)); err != nil {
		t.Error(err)
	}
}
