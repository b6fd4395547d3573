package topology

import "fmt"

// Mesh2D is a 2-dimensional mesh (no wraparound) with XY routing,
// modeling the Intel Paragon interconnect: messages first travel along X
// to the destination column, then along Y. Each node has four outgoing
// links (+X, −X, +Y, −Y); edge links exist but are never routed over.
type Mesh2D struct {
	nx, ny int
}

const (
	meshXPlus = iota
	meshXMinus
	meshYPlus
	meshYMinus
	numMeshDirs
)

// NewMesh2D returns an nx × ny mesh.
func NewMesh2D(nx, ny int) *Mesh2D {
	if nx < 1 || ny < 1 {
		panic("topology: mesh dimensions must be ≥ 1")
	}
	return &Mesh2D{nx: nx, ny: ny}
}

// MeshForNodes returns a mesh with at least n nodes, preferring the
// tall-rectangle aspect ratios of real Paragon installations (the SDSC
// Paragon was a 16-column mesh).
func MeshForNodes(n int) *Mesh2D {
	if n < 1 {
		panic("topology: need ≥ 1 node")
	}
	nx := 1
	for nx*nx < n {
		nx *= 2
	}
	ny := (n + nx - 1) / nx
	return NewMesh2D(nx, ny)
}

// Name implements Topology.
func (m *Mesh2D) Name() string { return fmt.Sprintf("mesh2d(%dx%d)", m.nx, m.ny) }

// Nodes implements Topology.
func (m *Mesh2D) Nodes() int { return m.nx * m.ny }

// Links implements Topology.
func (m *Mesh2D) Links() int { return m.Nodes() * numMeshDirs }

// Coord returns the (x, y) coordinate of node id.
func (m *Mesh2D) Coord(id int) (x, y int) {
	checkNode(m, id)
	return id % m.nx, id / m.nx
}

// NodeAt returns the node id at coordinate (x, y).
func (m *Mesh2D) NodeAt(x, y int) int { return x + m.nx*y }

func (m *Mesh2D) linkID(node, dir int) LinkID { return LinkID(node*numMeshDirs + dir) }

// AppendRoute implements Topology using XY dimension-order routing.
func (m *Mesh2D) AppendRoute(path []LinkID, src, dst int) []LinkID {
	checkNode(m, src)
	checkNode(m, dst)
	if src == dst {
		return path
	}
	x, y := m.Coord(src)
	gx, gy := m.Coord(dst)
	for x != gx {
		node := m.NodeAt(x, y)
		if gx > x {
			path = append(path, m.linkID(node, meshXPlus))
			x++
		} else {
			path = append(path, m.linkID(node, meshXMinus))
			x--
		}
	}
	for y != gy {
		node := m.NodeAt(x, y)
		if gy > y {
			path = append(path, m.linkID(node, meshYPlus))
			y++
		} else {
			path = append(path, m.linkID(node, meshYMinus))
			y--
		}
	}
	return path
}

// Diameter implements Topology.
func (m *Mesh2D) Diameter() int { return (m.nx - 1) + (m.ny - 1) }
