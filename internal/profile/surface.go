package profile

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// SurfacePoint is one evaluated tile configuration of an ExploreSpaceOpt
// sweep: the coordinates plus the objective values at that point.
type SurfacePoint struct {
	Tiles   map[string]int64 `json:"tiles"`
	TimeSec float64          `json:"time_sec"`
	EnergyJ float64          `json:"energy_j"`
	GFLOPS  float64          `json:"gflops"`
	PPW     float64          `json:"ppw"`
}

// Slice is a 2-D heatmap cut through the sweep surface: for each (X,Y)
// tile-size pair, the best (minimum) energy and time over every other
// dimension. Cells with no evaluated point hold -1 (energies and times
// are strictly positive, so the sentinel is unambiguous).
type Slice struct {
	X     string  `json:"x"`
	Y     string  `json:"y"`
	XVals []int64 `json:"x_vals"`
	YVals []int64 `json:"y_vals"`
	// EnergyJ[yi][xi] / TimeSec[yi][xi] index YVals x XVals.
	EnergyJ [][]float64 `json:"energy_j"`
	TimeSec [][]float64 `json:"time_sec"`
}

// Surface is the exportable energy/time surface of one sweep: the raw
// points plus all 2-D heatmap slices — the paper's figure-style data,
// but for any kernel/arch. It is what `cmd/eatss -surface` writes and
// the /profile endpoint serves.
type Surface struct {
	Kernel string         `json:"kernel"`
	GPU    string         `json:"gpu"`
	Dims   []string       `json:"dims"`
	Points []SurfacePoint `json:"points"`
	Slices []Slice        `json:"slices"`
}

// NewSurface assembles a Surface from sweep points, computing every
// pairwise heatmap slice. Dimensions are the union of tile names across
// points, in sorted order.
func NewSurface(kernel, gpu string, pts []SurfacePoint) *Surface {
	s := &Surface{Kernel: kernel, GPU: gpu, Points: pts}
	dimSet := make(map[string]bool)
	for _, p := range pts {
		for d := range p.Tiles {
			dimSet[d] = true
		}
	}
	for d := range dimSet {
		s.Dims = append(s.Dims, d)
	}
	sort.Strings(s.Dims)

	if len(s.Dims) == 1 {
		s.Slices = append(s.Slices, makeSlice(pts, s.Dims[0], ""))
		return s
	}
	for i := 0; i < len(s.Dims); i++ {
		for j := i + 1; j < len(s.Dims); j++ {
			s.Slices = append(s.Slices, makeSlice(pts, s.Dims[i], s.Dims[j]))
		}
	}
	return s
}

// makeSlice projects the point cloud onto the (x, y) plane, keeping the
// minimum energy (and its time) per cell. An empty y collapses the
// slice to a single row.
func makeSlice(pts []SurfacePoint, x, y string) Slice {
	sl := Slice{X: x, Y: y}
	xSet := make(map[int64]bool)
	ySet := make(map[int64]bool)
	for _, p := range pts {
		xSet[p.Tiles[x]] = true
		if y != "" {
			ySet[p.Tiles[y]] = true
		}
	}
	sl.XVals = sortedVals(xSet)
	if y == "" {
		sl.YVals = []int64{0}
	} else {
		sl.YVals = sortedVals(ySet)
	}
	xIdx := indexOf(sl.XVals)
	yIdx := indexOf(sl.YVals)

	sl.EnergyJ = make([][]float64, len(sl.YVals))
	sl.TimeSec = make([][]float64, len(sl.YVals))
	for yi := range sl.YVals {
		sl.EnergyJ[yi] = make([]float64, len(sl.XVals))
		sl.TimeSec[yi] = make([]float64, len(sl.XVals))
		for xi := range sl.XVals {
			sl.EnergyJ[yi][xi] = -1
			sl.TimeSec[yi][xi] = -1
		}
	}
	for _, p := range pts {
		xi := xIdx[p.Tiles[x]]
		yi := 0
		if y != "" {
			yi = yIdx[p.Tiles[y]]
		}
		if cur := sl.EnergyJ[yi][xi]; cur < 0 || p.EnergyJ < cur {
			sl.EnergyJ[yi][xi] = p.EnergyJ
			sl.TimeSec[yi][xi] = p.TimeSec
		}
	}
	return sl
}

func sortedVals(set map[int64]bool) []int64 {
	vals := make([]int64, 0, len(set))
	for v := range set {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

func indexOf(vals []int64) map[int64]int {
	idx := make(map[int64]int, len(vals))
	for i, v := range vals {
		idx[v] = i
	}
	return idx
}

// WriteJSON writes the surface as indented JSON.
func (s *Surface) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV writes the raw points in long format — one row per evaluated
// configuration, one column per tile dimension — the shape heatmap
// tooling (pandas pivot, gnuplot) ingests directly.
func (s *Surface) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append(append([]string{}, s.Dims...), "time_sec", "energy_j", "gflops", "ppw")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for _, p := range s.Points {
		row = row[:0]
		for _, d := range s.Dims {
			row = append(row, strconv.FormatInt(p.Tiles[d], 10))
		}
		row = append(row,
			fmt.Sprintf("%.9g", p.TimeSec),
			fmt.Sprintf("%.9g", p.EnergyJ),
			fmt.Sprintf("%.9g", p.GFLOPS),
			fmt.Sprintf("%.9g", p.PPW),
		)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
