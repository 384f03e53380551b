// Package cubicletest holds the checks that tests of several packages run
// against a live monitor. It is imported by tests only.
package cubicletest

import (
	"fmt"
	"slices"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/vm"
)

// OwnedPages compares every cubicle's owned-page list with its oracle: a
// walk of the whole page table that keeps the heap and stack pages, by
// owner, in page-number order.
func OwnedPages(m *cubicle.Monitor) error {
	walked := make(map[cubicle.ID][]uint64)
	m.AS.ForEachPage(func(pn uint64, p *vm.Page) {
		if p.Type == vm.PageHeap || p.Type == vm.PageStack {
			walked[cubicle.ID(p.Owner)] = append(walked[cubicle.ID(p.Owner)], pn)
		}
	})
	for _, c := range m.Cubicles() {
		got, want := c.OwnedPages(), walked[c.ID]
		if slices.Equal(got, want) {
			continue
		}
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("cubicle %s lists %d owned pages, the page table holds %d; they part at index %d: %x, %x",
			c.Name, len(got), len(want), i, got[i:min(i+4, len(got))], want[i:min(i+4, len(want))])
	}
	return nil
}
