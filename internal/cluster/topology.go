package cluster

// Topology maps node IDs to interconnect distance. RedSky's fabric is a
// Torus3D; a nil Config.Topology is the flat network, one hop between any
// two distinct nodes.
type Topology interface {
	// Hops returns the number of interconnect hops between two nodes.
	// It must be symmetric and return 0 for a == b.
	Hops(a, b int) int
}

// Torus3D is a 3-D toroidal mesh (RedSky's fabric). Node IDs map to
// coordinates in row-major order; distance is the Manhattan metric with
// wraparound on each axis.
type Torus3D struct {
	X, Y, Z int
}

// NewTorus3D returns a torus with the given axis lengths (each ≥ 1).
func NewTorus3D(x, y, z int) *Torus3D {
	if x < 1 || y < 1 || z < 1 {
		panic("cluster: torus axes must be >= 1")
	}
	return &Torus3D{X: x, Y: y, Z: z}
}

// Size returns the number of coordinates in the torus.
func (t *Torus3D) Size() int { return t.X * t.Y * t.Z }

// Coord maps a node ID (mod Size) to torus coordinates.
func (t *Torus3D) Coord(id int) (x, y, z int) {
	id %= t.Size()
	if id < 0 {
		id += t.Size()
	}
	x = id % t.X
	y = (id / t.X) % t.Y
	z = id / (t.X * t.Y)
	return
}

// Hops implements Topology.
func (t *Torus3D) Hops(a, b int) int {
	ax, ay, az := t.Coord(a)
	bx, by, bz := t.Coord(b)
	return torusDist(ax, bx, t.X) + torusDist(ay, by, t.Y) + torusDist(az, bz, t.Z)
}

func torusDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if w := n - d; w < d {
		d = w
	}
	return d
}
