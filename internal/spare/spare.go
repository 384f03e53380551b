// Package spare is the one shape of the simulator's host-object free
// lists: the objects a request or a checkpoint sweep creates and retires
// (a window descriptor, a socket, a connection, an open file, a peer
// connection) go back to a list their component owns, and the next
// creation takes the most recently retired one instead of allocating.
//
// A List is a plain LIFO slice, so which object a creation gets is a
// function of the run alone, and it keeps at most Max objects, so a burst
// of retirements leaves no more than that behind. It is not a sync.Pool:
// what a pool keeps depends on when the collector runs, and the
// benchmark's allocation counts must repeat.
package spare

// Max bounds every List: past it a retired object is left to the
// collector. It covers the objects a governed deployment holds at once
// (16 connections, two windows and two sockets each) with room to spare.
const Max = 64

// List holds retired objects of type T. The zero value is an empty list.
type List[T any] struct {
	items []*T
}

// Take returns the most recently retired object, or a new one when the
// list is empty. A retired object keeps the fields it had: the caller
// resets every one of them to what a new object would hold, keeping only
// the capacity of its slices.
func (l *List[T]) Take() *T {
	n := len(l.items)
	if n == 0 {
		return new(T)
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// Put retires x, which nothing may use afterwards.
func (l *List[T]) Put(x *T) {
	if len(l.items) < Max {
		l.items = append(l.items, x)
	}
}
