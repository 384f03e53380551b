package experiments

// Count returns the count on edge from→to (0 if absent).
func (g *CallGraph) Count(from, to string) uint64 {
	for _, e := range g.Edges {
		if e.From == from && e.To == to {
			return e.Count
		}
	}
	return 0
}
