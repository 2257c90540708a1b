// Package partition implements LC-PSS — Layer Configuration based Partition
// Scheme Search (Algorithm 1 of the DistrEdge paper): the greedy search for
// the horizontal partition of a CNN into layer-volumes, scored by
//
//	Cp = α·T + (1−α)·O                         (Eq. 3)
//
// where T is the total transmission volume and O the total operation count
// (including VSL halo recompute), each averaged over a set of random split
// decisions R^r_s and normalised so α trades off two O(1) quantities.
package partition

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"distredge/internal/cnn"
)

// Config holds the LC-PSS hyper-parameters. Paper defaults (Section V):
// α = 0.75, |R^r_s| = 100.
type Config struct {
	Alpha           float64 // trade-off between transmission (α) and ops (1-α)
	NumRandomSplits int     // |R^r_s|
	Providers       int     // |D|, number of service providers
	Seed            int64
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 && c.NumRandomSplits == 0 {
		c.Alpha = 0.75
	}
	if c.NumRandomSplits == 0 {
		c.NumRandomSplits = 100
	}
	if c.Providers == 0 {
		c.Providers = 4
	}
	return c
}

// searcher carries the per-search state: the random split-decision fraction
// vectors (reused across candidate schemes, as the paper reuses R^r_s) and
// memoised per-volume score components.
type searcher struct {
	model  *cnn.Model
	layers []cnn.Layer
	cfg    Config
	fracs  [][]float64 // NumRandomSplits sorted fraction vectors in [0,1]

	// Normalisers: O and T of the single-volume scheme, so Cp's two terms
	// are both ~1 at the coarsest partition and α trades them off on equal
	// footing. (With T including the halo-duplicated per-part input bytes,
	// a boundary can *reduce* T — which is how the paper's α=1 run settles
	// on two volumes rather than one.)
	oneVolOps   float64
	oneVolBytes float64
	kappa       float64

	opsMemo   map[[2]int]float64
	crossMemo map[[2]int]float64
	inMemo    map[[2]int]float64
}

// Search runs LC-PSS and returns the partition boundaries (ascending layer
// indices from 0 to the number of splittable layers).
func Search(m *cnn.Model, cfg Config) ([]int, error) {
	cfg = cfg.withDefaults()
	if !(cfg.Alpha >= 0 && cfg.Alpha <= 1) { // rejects NaN too
		return nil, fmt.Errorf("partition: alpha %g outside [0,1]", cfg.Alpha)
	}
	if cfg.Providers < 1 {
		return nil, fmt.Errorf("partition: need at least one provider")
	}
	n := m.NumSplittable()
	if n == 0 {
		return nil, fmt.Errorf("partition: model %q has no splittable layers", m.Name)
	}
	s := &searcher{
		model:     m,
		layers:    m.SplittableLayers(),
		cfg:       cfg,
		opsMemo:   make(map[[2]int]float64),
		crossMemo: make(map[[2]int]float64),
		inMemo:    make(map[[2]int]float64),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s.fracs = make([][]float64, cfg.NumRandomSplits)
	for i := range s.fracs {
		f := make([]float64, cfg.Providers-1)
		for j := range f {
			f[j] = rng.Float64()
		}
		sort.Float64s(f)
		s.fracs[i] = f
	}
	s.oneVolOps, s.oneVolBytes = s.rawScore([]int{0, n})
	if s.oneVolOps <= 0 || s.oneVolBytes <= 0 {
		return nil, fmt.Errorf("partition: degenerate normaliser for %q", m.Name)
	}
	// Equalise the dynamic ranges of the two terms across the coarsest
	// (one volume) and finest (layer-by-layer) schemes, so α compares them
	// on equal footing for *this* model. The paper leaves its normalisation
	// unspecified; without this, models with violent halo growth (large
	// filters, many layers) or tiny activations would see one term drown
	// the other. κ rescales only T, so the α=0 and α=1 extremes keep their
	// argmin.
	lbl := make([]int, n+1)
	for i := range lbl {
		lbl[i] = i
	}
	lblOps, lblTrans := s.rawScore(lbl)
	oRange := 1 - lblOps/s.oneVolOps
	tRange := lblTrans/s.oneVolBytes - 1
	s.kappa = 1
	if oRange > 0 && tRange > 0 {
		// The extra factor of 2 biases α=0.75 toward the empirically
		// optimal granularity on our substrate (see DESIGN.md calibration
		// note); it is the single global constant in the scorer.
		s.kappa = oRange / (2 * tRange)
	}

	// Algorithm 1: start with {0, n}; each loop tries to insert one optimal
	// location per existing segment. A candidate equal to an existing
	// boundary is the no-op choice; the loop stops when nothing new joins.
	rp := []int{0, n}
	for {
		rStar := append([]int(nil), rp...)
		for i := 0; i+1 < len(rp); i++ {
			bestC := s.score(rStar)
			bestJ := -1
			for j := rp[i] + 1; j < rp[i+1]; j++ {
				cand := insertSorted(rStar, j)
				if c := s.score(cand); c < bestC {
					bestC = c
					bestJ = j
				}
			}
			if bestJ >= 0 {
				rStar = insertSorted(rStar, bestJ)
			}
		}
		if len(rStar) == len(rp) {
			break
		}
		rp = rStar
	}
	return rp, nil
}

// insertSorted returns a copy of b with v inserted in order (no duplicates).
func insertSorted(b []int, v int) []int {
	out := make([]int, 0, len(b)+1)
	done := false
	for _, x := range b {
		if !done && v < x {
			out = append(out, v)
			done = true
		}
		if x == v {
			done = true
		}
		out = append(out, x)
	}
	if !done {
		out = append(out, v)
	}
	return out
}

// rawScore returns the mean total operations and transmitted bytes of a
// partition scheme over the random split decisions.
func (s *searcher) rawScore(boundaries []int) (ops, trans float64) {
	for v := 0; v+1 < len(boundaries); v++ {
		a, b := boundaries[v], boundaries[v+1]
		ops += s.volumeOps(a, b)
		if v == 0 {
			// Requester scatters each part's (halo-duplicated) input rows.
			trans += s.scatterBytes(a, b)
		} else {
			trans += s.crossBytes(a, b)
		}
	}
	// Result gather from the last volume.
	trans += s.layers[len(s.layers)-1].OutputBytes()
	return ops, trans
}

// score returns the mean C̄p of a partition scheme over the random split
// decisions (Eq. 4), with O and T normalised by their single-volume values
// and T additionally rescaled by the per-model range equaliser κ.
func (s *searcher) score(boundaries []int) float64 {
	ops, trans := s.rawScore(boundaries)
	o := ops / s.oneVolOps
	t := s.kappa * trans / s.oneVolBytes
	return s.cfg.Alpha*t + (1-s.cfg.Alpha)*o
}

// Scoring uses *continuous* row accounting: split fractions are applied to
// each volume's last-layer height as real intervals and the VSL halo is
// propagated fractionally (rows [lo,hi] on a layer need input
// [lo·S−P, hi·S+(F−S)−P], clamped). This keeps the score meaningful even
// where integer heights degenerate (e.g. detector tails with H=1, where an
// integer random split would collapse to a single non-empty part and make
// the un-split scheme look free). The executed strategies are still exact
// integer splits — continuous math is a scoring device only.

// interval is a continuous row range [Lo, Hi] on some layer's height.
type interval struct{ Lo, Hi float64 }

func (iv interval) len() float64 {
	if iv.Hi <= iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo
}

func (iv interval) intersect(o interval) float64 {
	lo, hi := math.Max(iv.Lo, o.Lo), math.Min(iv.Hi, o.Hi)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// inputInterval propagates an output interval backwards through one layer.
func inputInterval(l cnn.Layer, out interval) interval {
	if out.len() == 0 {
		return interval{}
	}
	lo := out.Lo*float64(l.S) - float64(l.P)
	hi := out.Hi*float64(l.S) + float64(l.F-l.S) - float64(l.P)
	lo = math.Max(lo, 0)
	hi = math.Min(hi, float64(l.Hin))
	if hi < lo {
		hi = lo
	}
	return interval{lo, hi}
}

// partIntervals maps a fraction vector to provider intervals on height h.
func partIntervals(frac []float64, h float64, providers int) []interval {
	parts := make([]interval, providers)
	prev := 0.0
	for i := 0; i < providers; i++ {
		hi := h
		if i < len(frac) {
			hi = frac[i] * h
		}
		if hi < prev {
			hi = prev
		}
		parts[i] = interval{prev, hi}
		prev = hi
	}
	return parts
}

// volumeOps returns the mean total operations of volume [a,b) over the
// random split decisions, including (fractional) halo recompute.
func (s *searcher) volumeOps(a, b int) float64 {
	key := [2]int{a, b}
	if v, ok := s.opsMemo[key]; ok {
		return v
	}
	layers := s.layers[a:b]
	h := float64(layers[len(layers)-1].OutHeight())
	var sum float64
	for _, frac := range s.fracs {
		for _, part := range partIntervals(frac, h, s.cfg.Providers) {
			cur := part
			for i := len(layers) - 1; i >= 0; i-- {
				sum += layers[i].OpsRows(1) * cur.len()
				cur = inputInterval(layers[i], cur)
			}
		}
	}
	v := sum / float64(len(s.fracs))
	s.opsMemo[key] = v
	return v
}

// volumeInputInterval propagates a part's output interval to the volume's
// input tensor.
func volumeInputInterval(layers []cnn.Layer, part interval) interval {
	cur := part
	for i := len(layers) - 1; i >= 0; i-- {
		cur = inputInterval(layers[i], cur)
	}
	return cur
}

// scatterBytes returns the mean bytes the requester must send so every part
// of volume [a,b) has its input rows; halo overlap between parts is sent
// once per receiving device, so long volumes pay duplicated input traffic.
func (s *searcher) scatterBytes(a, b int) float64 {
	key := [2]int{a, b}
	if v, ok := s.inMemo[key]; ok {
		return v
	}
	layers := s.layers[a:b]
	h := float64(layers[len(layers)-1].OutHeight())
	rowBytes := layers[0].InRowBytes()
	var sum float64
	for _, frac := range s.fracs {
		for _, part := range partIntervals(frac, h, s.cfg.Providers) {
			sum += volumeInputInterval(layers, part).len() * rowBytes
		}
	}
	v := sum / float64(len(s.fracs))
	s.inMemo[key] = v
	return v
}

// crossBytes returns the mean bytes crossing the boundary *into* volume
// [a,b): each receiving part pulls its input rows from the parts of the
// previous volume that own them (the previous volume's output is the full
// height of layer a-1, split by the same fraction vector).
func (s *searcher) crossBytes(a, b int) float64 {
	key := [2]int{a, b}
	if v, ok := s.crossMemo[key]; ok {
		return v
	}
	layers := s.layers[a:b]
	h := float64(layers[len(layers)-1].OutHeight())
	prevH := float64(s.layers[a-1].OutHeight())
	rowBytes := layers[0].InRowBytes()
	var sum float64
	for _, frac := range s.fracs {
		parts := partIntervals(frac, h, s.cfg.Providers)
		prevParts := partIntervals(frac, prevH, s.cfg.Providers)
		for i, part := range parts {
			in := volumeInputInterval(layers, part)
			if in.len() == 0 {
				continue
			}
			for j, own := range prevParts {
				if j == i {
					continue
				}
				sum += in.intersect(own) * rowBytes
			}
		}
	}
	v := sum / float64(len(s.fracs))
	s.crossMemo[key] = v
	return v
}
