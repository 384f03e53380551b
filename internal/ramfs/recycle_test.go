package ramfs

import (
	"testing"

	"cubicleos/internal/cubicle/cubicletest"
)

// TestRecycledInodeStartsClean: an unlinked file, poisoned — every field
// set, the most a file's life could leave — is the one the next create
// gets, and it reads as a new file.
func TestRecycledInodeStartsClean(t *testing.T) {
	fs := New()
	old := fs.takeInode(3, []byte("journal"))
	cubicletest.Poison(old)
	fs.spare.Put(old)
	got := fs.takeInode(4, []byte("journal"))
	if got != old {
		t.Fatal("takeInode did not reuse the unlinked file")
	}
	if err := cubicletest.Fresh(got, fs.takeInode(4, []byte("journal"))); err != nil {
		t.Error(err)
	}
}
