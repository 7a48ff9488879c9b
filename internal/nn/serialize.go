package nn

import "fmt"

// Snapshot is a portable dump of a parameter set: shapes plus values, in
// layer order. It deliberately does not encode architecture — loading a
// snapshot requires a freshly built network of the identical architecture,
// which keeps the format stable and forces builders to be the single source
// of truth for model structure (mirroring the paper's freeze-graph step that
// strips trainable nodes before deployment).
type Snapshot struct {
	// Names are parameter names in order, for mismatch diagnostics.
	Names []string
	// Shapes holds [rows, cols] per parameter.
	Shapes [][2]int
	// Values holds the raw row-major data per parameter.
	Values [][]float64
}

// TakeSnapshot copies the current values of params into a Snapshot.
func TakeSnapshot(params []Param) *Snapshot {
	s := &Snapshot{
		Names:  make([]string, len(params)),
		Shapes: make([][2]int, len(params)),
		Values: make([][]float64, len(params)),
	}
	for i, p := range params {
		s.Names[i] = p.Name
		s.Shapes[i] = [2]int{p.Value.Rows, p.Value.Cols}
		v := make([]float64, len(p.Value.Data))
		copy(v, p.Value.Data)
		s.Values[i] = v
	}
	return s
}

// Restore writes the snapshot's values into params, which must match in
// count and shape.
func (s *Snapshot) Restore(params []Param) error {
	if len(params) != len(s.Values) {
		return fmt.Errorf("nn: snapshot has %d params, network has %d", len(s.Values), len(params))
	}
	for i, p := range params {
		if p.Value.Rows != s.Shapes[i][0] || p.Value.Cols != s.Shapes[i][1] {
			return fmt.Errorf("nn: snapshot param %d (%s) is %dx%d, network expects %dx%d",
				i, s.Names[i], s.Shapes[i][0], s.Shapes[i][1], p.Value.Rows, p.Value.Cols)
		}
		copy(p.Value.Data, s.Values[i])
		p.invalidate() // restored weights must not serve stale panels
	}
	return nil
}
