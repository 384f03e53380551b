package spare

import "testing"

// TestListIsCappedLIFO: Take hands back the most recently retired object
// first, a new one once the list is empty, and Put keeps at most Max.
func TestListIsCappedLIFO(t *testing.T) {
	var l List[int]
	objs := make([]*int, Max+3)
	for i := range objs {
		objs[i] = new(int)
		l.Put(objs[i])
	}
	if len(l.items) != Max {
		t.Fatalf("list holds %d objects, want %d", len(l.items), Max)
	}
	for i := Max - 1; i >= 0; i-- {
		if got := l.Take(); got != objs[i] {
			t.Fatalf("take %d: got object %p, want the one retired %d-th", Max-1-i, got, i)
		}
	}
	if got := l.Take(); got == nil || *got != 0 {
		t.Fatalf("take from an empty list gave %v, want a new object", got)
	}
}
