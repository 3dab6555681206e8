package overlay

// InAdjacencyBuilt reports whether g's in-adjacency has been built, for the
// external tests that check which runs never read it.
func InAdjacencyBuilt(g *Graph) bool { return g.inOff != nil || g.inAdj != nil }
