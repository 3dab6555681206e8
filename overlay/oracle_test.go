package overlay

// Test oracles over a Graph: edge counts, membership, connectivity and
// diameter. They are plain BFS and scans, for the small graphs the tests
// build; no production path needs them.

// edges returns the number of directed edges.
func (g *Graph) edges() int { return len(g.outAdj) }

// inDegree returns the number of in-neighbours of node i.
func (g *Graph) inDegree(i int) int {
	g.inOnce.Do(g.buildIn)
	return int(g.inOff[i+1] - g.inOff[i])
}

// hasEdge reports whether the directed edge from -> to exists.
func (g *Graph) hasEdge(from, to int) bool {
	for _, v := range g.OutNeighbors(from) {
		if int(v) == to {
			return true
		}
	}
	return false
}

// isWeaklyConnected reports whether the graph is connected when edge
// directions are ignored.
func (g *Graph) isWeaklyConnected() bool {
	if g.n == 0 {
		return true
	}
	visited := make([]bool, g.n)
	queue := make([]int32, 0, g.n)
	queue = append(queue, 0)
	visited[0] = true
	seen := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(int(u)) {
			if !visited[v] {
				visited[v] = true
				seen++
				queue = append(queue, v)
			}
		}
		for _, v := range g.InNeighbors(int(u)) {
			if !visited[v] {
				visited[v] = true
				seen++
				queue = append(queue, v)
			}
		}
	}
	return seen == g.n
}

// isStronglyConnected reports whether every node can reach every other node
// following edge directions. It runs two BFS traversals (forward and
// backward) from node 0, which decides strong connectivity for the graph
// sizes used here.
func (g *Graph) isStronglyConnected() bool {
	if g.n == 0 {
		return true
	}
	reach := func(neighbors func(int) []int32) int {
		visited := make([]bool, g.n)
		queue := []int32{0}
		visited[0] = true
		seen := 1
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range neighbors(int(u)) {
				if !visited[v] {
					visited[v] = true
					seen++
					queue = append(queue, v)
				}
			}
		}
		return seen
	}
	return reach(g.OutNeighbors) == g.n && reach(g.InNeighbors) == g.n
}

// diameter returns the longest shortest-path length between any pair of
// nodes, following edge directions, computed by BFS from every node. It is
// exponential in nothing but costs O(N·E), so it suits small graphs only. Unreachable pairs yield -1.
func (g *Graph) diameter() int {
	diameter := 0
	dist := make([]int, g.n)
	for s := 0; s < g.n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.OutNeighbors(int(u)) {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for _, d := range dist {
			if d == -1 {
				return -1
			}
			if d > diameter {
				diameter = d
			}
		}
	}
	return diameter
}
