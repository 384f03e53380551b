package vm

// MappedPages returns the number of currently mapped pages.
func (as *AddrSpace) MappedPages() int {
	n := 0
	for _, p := range as.pt {
		if p != nil {
			n++
		}
	}
	return n
}
