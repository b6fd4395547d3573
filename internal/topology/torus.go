package topology

import "fmt"

// Torus3D is a 3-dimensional torus with dimension-order (e-cube) routing
// and shortest-direction wraparound, modeling the Cray T3D interconnect.
// Each node has six outgoing links (±X, ±Y, ±Z).
type Torus3D struct {
	nx, ny, nz int
}

// Directions of the six per-node links, in link-ID order.
const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
	dirZPlus
	dirZMinus
	numTorusDirs
)

// NewTorus3D returns an nx × ny × nz torus. All dimensions must be ≥ 1.
func NewTorus3D(nx, ny, nz int) *Torus3D {
	if nx < 1 || ny < 1 || nz < 1 {
		panic("topology: torus dimensions must be ≥ 1")
	}
	return &Torus3D{nx: nx, ny: ny, nz: nz}
}

// TorusForNodes returns a torus with at least n nodes, choosing near-cubic
// dimensions the way T3D configurations were built up (powers of two).
func TorusForNodes(n int) *Torus3D {
	if n < 1 {
		panic("topology: need ≥ 1 node")
	}
	dims := [3]int{1, 1, 1}
	for i := 0; dims[0]*dims[1]*dims[2] < n; i++ {
		dims[i%3] *= 2
	}
	return NewTorus3D(dims[0], dims[1], dims[2])
}

// Name implements Topology.
func (t *Torus3D) Name() string { return fmt.Sprintf("torus3d(%dx%dx%d)", t.nx, t.ny, t.nz) }

// Nodes implements Topology.
func (t *Torus3D) Nodes() int { return t.nx * t.ny * t.nz }

// Links implements Topology.
func (t *Torus3D) Links() int { return t.Nodes() * numTorusDirs }

// Dims returns the three torus dimensions.
func (t *Torus3D) Dims() (nx, ny, nz int) { return t.nx, t.ny, t.nz }

// Coord returns the (x, y, z) coordinate of node id.
func (t *Torus3D) Coord(id int) (x, y, z int) {
	checkNode(t, id)
	x = id % t.nx
	y = (id / t.nx) % t.ny
	z = id / (t.nx * t.ny)
	return
}

// NodeAt returns the node id at coordinate (x, y, z).
func (t *Torus3D) NodeAt(x, y, z int) int { return x + t.nx*(y+t.ny*z) }

// linkID returns the ID of node's outgoing link in direction dir.
func (t *Torus3D) linkID(node, dir int) LinkID { return LinkID(node*numTorusDirs + dir) }

// step returns the next coordinate and the direction when moving from c
// toward g along a ring of size n, taking the shorter way around.
func ringStep(c, g, n int) (next int, forward bool) {
	if c == g {
		return c, true
	}
	fwd := (g - c + n) % n
	bwd := (c - g + n) % n
	if fwd <= bwd { // prefer + direction on ties, as e-cube routers did
		return (c + 1) % n, true
	}
	return (c - 1 + n) % n, false
}

// AppendRoute implements Topology using dimension-order routing: the
// message fully corrects X, then Y, then Z, each along the shorter ring
// arc.
func (t *Torus3D) AppendRoute(path []LinkID, src, dst int) []LinkID {
	checkNode(t, src)
	checkNode(t, dst)
	if src == dst {
		return path
	}
	x, y, z := t.Coord(src)
	gx, gy, gz := t.Coord(dst)
	for x != gx {
		node := t.NodeAt(x, y, z)
		nx, fwd := ringStep(x, gx, t.nx)
		dir := dirXPlus
		if !fwd {
			dir = dirXMinus
		}
		path = append(path, t.linkID(node, dir))
		x = nx
	}
	for y != gy {
		node := t.NodeAt(x, y, z)
		ny, fwd := ringStep(y, gy, t.ny)
		dir := dirYPlus
		if !fwd {
			dir = dirYMinus
		}
		path = append(path, t.linkID(node, dir))
		y = ny
	}
	for z != gz {
		node := t.NodeAt(x, y, z)
		nz, fwd := ringStep(z, gz, t.nz)
		dir := dirZPlus
		if !fwd {
			dir = dirZMinus
		}
		path = append(path, t.linkID(node, dir))
		z = nz
	}
	return path
}

// Diameter implements Topology.
func (t *Torus3D) Diameter() int { return t.nx/2 + t.ny/2 + t.nz/2 }
