package sqldb

import "slices"

// arenaChunk is the size in bytes of an arena's chunk.
const arenaChunk = 16 << 10

// arena hands out runs of T carved from chunks of a fixed size, which it
// never moves or copies: a run stays where it is, and means what it was
// filled with, until the arena is rewound. It holds what a statement
// builds for longer than a row — a Result's values and the bytes of their
// texts, an UPDATE's or DELETE's staged hits — and is rewound for the
// next statement, which reuses the chunks.
//
// A run never spans two chunks: one that does not fit what is left of the
// chunk being filled starts the next, and one longer than a chunk gets a
// chunk of its own. A rewind keeps at most keep chunks, and none of the
// oversized ones.
type arena[T any] struct {
	// chunks[:used] hold the runs of the statement, the last one being
	// filled; the chunks after them are kept for reuse, empty.
	chunks [][]T
	used   int
	per    int // the length of a chunk
	keep   int
}

// newArena returns an arena of T, size bytes each, that keeps at most
// limit bytes of chunks across a rewind.
func newArena[T any](size, limit int) arena[T] {
	return arena[T]{per: arenaChunk / size, keep: limit / arenaChunk}
}

// alloc returns the next n elements of the arena, contiguous and holding
// whatever their chunk last held, for the caller to fill.
func (a *arena[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if a.used > 0 {
		c := &a.chunks[a.used-1]
		if l := len(*c); cap(*c)-l >= n {
			*c = (*c)[:l+n]
			return (*c)[l : l+n : l+n]
		}
	}
	if a.used == len(a.chunks) || cap(a.chunks[a.used]) < n {
		a.chunks = slices.Insert(a.chunks, a.used, make([]T, 0, max(a.per, n)))
	}
	c := &a.chunks[a.used]
	a.used++
	*c = (*c)[:n]
	return (*c)[:n:n]
}

// inUse returns the chunks holding the statement's runs, in the order
// alloc handed them out, each cut to its filled part.
func (a *arena[T]) inUse() [][]T { return a.chunks[:a.used] }

// rewind takes every chunk back for the next statement: the first keep
// chunks of a chunk's length stay, emptied, and the rest go.
func (a *arena[T]) rewind() {
	n := 0
	for _, c := range a.chunks {
		if cap(c) == a.per && n < a.keep {
			a.chunks[n] = c[:0]
			n++
		}
	}
	clear(a.chunks[n:])
	a.chunks, a.used = a.chunks[:n], 0
}
