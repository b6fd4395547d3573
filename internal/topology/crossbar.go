package topology

import "fmt"

// Crossbar is a single-stage full crossbar: every pair of distinct nodes
// is two hops apart (injection link, ejection link) and no two routes
// between different sources and destinations share a link. It is used in
// tests as an idealized contention-free fabric.
type Crossbar struct {
	n int
}

// NewCrossbar returns an n-node crossbar.
func NewCrossbar(n int) *Crossbar {
	if n < 1 {
		panic("topology: need ≥ 1 node")
	}
	return &Crossbar{n: n}
}

// Name implements Topology.
func (c *Crossbar) Name() string { return fmt.Sprintf("crossbar(%d)", c.n) }

// Nodes implements Topology.
func (c *Crossbar) Nodes() int { return c.n }

// Links implements Topology: n injection links then n ejection links.
func (c *Crossbar) Links() int { return 2 * c.n }

// AppendRoute implements Topology.
func (c *Crossbar) AppendRoute(path []LinkID, src, dst int) []LinkID {
	checkNode(c, src)
	checkNode(c, dst)
	if src == dst {
		return path
	}
	return append(path, LinkID(src), LinkID(c.n+dst))
}

// Diameter implements Topology.
func (c *Crossbar) Diameter() int {
	if c.n == 1 {
		return 0
	}
	return 2
}
