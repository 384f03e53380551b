package vm

// MappedPages returns the number of currently mapped pages, counted by a
// page-table walk.
func (as *AddrSpace) MappedPages() int {
	n := 0
	as.ForEachPage(func(uint64, *Page) { n++ })
	return n
}

// ZeroFrameIsZero reports whether the shared zero frame still reads all
// zeros.
func ZeroFrameIsZero() bool { return zeroFrame == frame{} }
