// Package topology models the interconnect topologies of the three
// machines evaluated in the paper: the Cray T3D 3-D torus, the Intel
// Paragon 2-D mesh, and the IBM SP2 multistage omega network, plus a
// crossbar used in tests. Each topology enumerates directed links and
// computes the deterministic route (sequence of link IDs) between any
// pair of nodes, using the routing algorithm the real machine used
// (dimension-order for the torus, XY for the mesh, destination-bit for
// the omega network).
package topology

import "fmt"

// LinkID identifies one directed link of a topology.
type LinkID int

// Topology describes an interconnect as a set of nodes joined by
// directed links, with deterministic routing.
type Topology interface {
	// Name identifies the topology, e.g. "torus3d(4x4x4)".
	Name() string
	// Nodes returns the number of addressable compute nodes.
	Nodes() int
	// Links returns the total number of directed links, valid IDs being
	// 0..Links()-1. Link IDs cover both network-internal links and, for
	// indirect networks, node-to-switch attachment links.
	Links() int
	// AppendRoute appends the ordered link IDs traversed by a message
	// from src to dst to path and returns the extended slice, leaving
	// path's existing elements as they are. The route from a node to
	// itself is empty (intra-node transfer). Passing a reused buffer
	// (path[:0]) routes without allocating once it has grown.
	AppendRoute(path []LinkID, src, dst int) []LinkID
	// Diameter returns the maximum hop count between any node pair.
	Diameter() int
}

func checkNode(t Topology, n int) {
	if n < 0 || n >= t.Nodes() {
		panic(fmt.Sprintf("topology %s: node %d out of range [0,%d)", t.Name(), n, t.Nodes()))
	}
}

// Hops returns the number of links on the route from src to dst.
func Hops(t Topology, src, dst int) int { return len(t.AppendRoute(nil, src, dst)) }

// AverageDistance returns the mean hop count over all ordered pairs of
// distinct nodes. It is used in calibration and reporting.
func AverageDistance(t Topology) float64 {
	n := t.Nodes()
	if n < 2 {
		return 0
	}
	total := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				total += Hops(t, s, d)
			}
		}
	}
	return float64(total) / float64(n*(n-1))
}
