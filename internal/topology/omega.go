package topology

import "fmt"

// Omega is a multistage omega (shuffle-exchange) network of radix-k
// crossbar switch elements, modeling the IBM SP2's multistage High
// Performance Switch, which was built from Vulcan switch boards whose
// 8-port elements act as 4×4 bidirectional crossbars. Every route
// traverses exactly Stages()+1 links (one injection link plus one link
// after every stage), matching the SP2's nearly uniform node-to-node
// latency.
type Omega struct {
	n      int // nodes; n = radix^stages
	radix  int
	stages int
}

// NewOmega returns an omega network over n nodes built from radix-k
// switches. n must be an exact power of radix.
func NewOmega(n, radix int) *Omega {
	if radix < 2 {
		panic("topology: omega radix must be ≥ 2")
	}
	stages := 0
	for v := 1; v < n; v *= radix {
		stages++
		if stages > 32 {
			break
		}
	}
	if pow(radix, stages) != n {
		panic(fmt.Sprintf("topology: omega size %d is not a power of radix %d", n, radix))
	}
	return &Omega{n: n, radix: radix, stages: stages}
}

// OmegaForNodes returns an omega network with at least n nodes, using
// 4×4 switch elements where the size allows (as on the SP2) and 2×2
// elements otherwise.
func OmegaForNodes(n int) *Omega {
	if n < 1 {
		panic("topology: need ≥ 1 node")
	}
	size := 1
	lg := 0
	for size < n {
		size *= 2
		lg++
	}
	if lg%2 == 0 && lg > 0 {
		return NewOmega(size, 4)
	}
	return NewOmega(size, 2)
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// Name implements Topology.
func (o *Omega) Name() string {
	return fmt.Sprintf("omega(%d,%dx%d)", o.n, o.radix, o.radix)
}

// Nodes implements Topology.
func (o *Omega) Nodes() int { return o.n }

// Stages returns the number of switch stages.
func (o *Omega) Stages() int { return o.stages }

// Radix returns the switch radix.
func (o *Omega) Radix() int { return o.radix }

// Links implements Topology: n injection links plus n links after each
// of the stages (the final stage's outputs are the ejection links).
func (o *Omega) Links() int { return o.n * (o.stages + 1) }

// AppendRoute implements Topology using destination-digit routing:
// after the perfect shuffle of stage s, the switch forwards on the
// output selected by the s-th most significant radix-k digit of the
// destination.
func (o *Omega) AppendRoute(path []LinkID, src, dst int) []LinkID {
	checkNode(o, src)
	checkNode(o, dst)
	if src == dst || o.stages == 0 {
		return path
	}
	pos := src
	path = append(path, LinkID(pos)) // injection link
	for s := 0; s < o.stages; s++ {
		digit := (dst / pow(o.radix, o.stages-1-s)) % o.radix
		pos = (pos*o.radix + digit) % o.n
		path = append(path, LinkID(o.n+s*o.n+pos))
	}
	return path
}

// Diameter implements Topology: all routes have the same length.
func (o *Omega) Diameter() int {
	if o.stages == 0 {
		return 0
	}
	return o.stages + 1
}
