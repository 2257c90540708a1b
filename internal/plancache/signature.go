// Package plancache turns planning into a cacheable service. Serving many
// heterogeneous fleets makes the planner the hot path: every LC-PSS + OSDS
// search runs from scratch per fleet, even though fleets recur (the same
// device mix behind the same network regime) and near-miss fleets differ
// only in link bandwidth. The cache keys strategies by a canonical fleet
// signature; exact hits skip planning entirely, and near misses warm-start
// the search from the closest cached strategy via strategy.Project/Lift
// into splitter Config.InitSplits (the mechanism churn recovery already
// uses), so the search converges in a fraction of the episodes.
package plancache

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// DeviceSig is one provider's slot in a fleet signature: what the device is
// (a fingerprint of its latency model) and what network regime its link is
// in (a log-bucketed mean bandwidth plus a fluctuation bucket).
type DeviceSig struct {
	// Dev fingerprints the device's latency model: an FNV-64a hash of its
	// exact compute latencies on a canonical probe (the model's first
	// splittable layer at three row counts). Probing works for any
	// device.LatencyModel — ground-truth profiles and fitted profile forms
	// alike — and two devices that predict identical probe latencies plan
	// identically, so sharing a fingerprint is exactly right.
	Dev string
	// BW is the link's bandwidth regime: the uplink trace mean in Mbps on a
	// half-octave log scale, round(2*log2(mean)) — consecutive buckets are
	// ~41% apart, so 150 vs 200 Mbps land in different buckets while the few
	// percent of jitter between two Stable traces of the same nominal
	// bandwidth does not.
	BW int
	// Spread is the link's fluctuation regime: round(log2(max/min)) of the
	// uplink trace samples. Constant traces get 0, Stable's few-percent
	// jitter gets 1, the highly dynamic 40-100 Mbps regime gets 2+.
	Spread int
}

// Signature canonically identifies a planning request: the model, the
// objective (with defaults normalised, so semantically equal objectives
// alias), the planner parameters, the ordered provider fleet and the
// requester's own link regime. Device order is part of the identity — a
// strategy's splits are indexed by provider, so permuted fleets must not
// share cached strategies.
type Signature struct {
	Model     string
	Objective string
	// Params canonically names the planner parameters the plan is searched
	// under (search budget and LC-PSS α — see experiments.PlanKey; "" when
	// the caller has none). Like Objective, it must match exactly: a plan
	// searched under other parameters is neither served nor used as a
	// warm-start seed. It must not contain '|'.
	Params    string
	Devices   []DeviceSig
	Requester DeviceSig // Dev is empty: only the link regime matters
}

// Key renders the canonical cache key. Equal signatures render equal keys
// and distinct signatures distinct keys (the fields are joined with
// separators no field contains).
func (s Signature) Key() string {
	var b strings.Builder
	b.WriteString(s.Model)
	b.WriteByte('|')
	b.WriteString(s.Objective)
	b.WriteByte('|')
	b.WriteString(s.Params)
	for _, d := range s.Devices {
		fmt.Fprintf(&b, "|%s@%d~%d", d.Dev, d.BW, d.Spread)
	}
	fmt.Fprintf(&b, "|req@%d~%d", s.Requester.BW, s.Requester.Spread)
	return b.String()
}

// SignatureOf derives the fleet signature of a planning request from the
// environment, objective and planner parameters. It is deterministic: the
// same env contents, objective and params always produce the same
// signature.
func SignatureOf(env *sim.Env, obj sim.Objective, params string) Signature {
	sig := Signature{
		Model:     env.Model.Name,
		Objective: ObjectiveKey(obj),
		Params:    params,
		Devices:   make([]DeviceSig, 0, len(env.Devices)),
	}
	probe := probeLayer(env.Model)
	for i, d := range env.Devices {
		ds := DeviceSig{Dev: fingerprint(d, probe)}
		if env.Net != nil && i < len(env.Net.Providers) {
			ds.BW, ds.Spread = linkRegime(env.Net.Providers[i])
		}
		sig.Devices = append(sig.Devices, ds)
	}
	if env.Net != nil {
		sig.Requester.BW, sig.Requester.Spread = linkRegime(env.Net.Requester)
	}
	return sig
}

// ObjectiveKey canonicalises a planning objective: defaults are normalised
// so that e.g. ThroughputObjective{} and ThroughputObjective{Window: 4}
// render the same key (they plan identically).
func ObjectiveKey(obj sim.Objective) string {
	switch o := obj.(type) {
	case nil:
		return "latency"
	case sim.LatencyObjective:
		return "latency"
	case sim.ThroughputObjective:
		w, im, ba := objectiveDefaults(o.Window, o.Images, o.Batch)
		return fmt.Sprintf("ips/w%d/i%d/b%d", w, im, ba)
	case sim.SLOThroughputObjective:
		w, im, ba := objectiveDefaults(o.Window, o.Images, o.Batch)
		return fmt.Sprintf("slo/w%d/i%d/b%d/p95=%s", w, im, ba,
			strconv.FormatFloat(o.P95Sec, 'g', -1, 64))
	default:
		// Unknown objective implementations key on their name plus their
		// printed value — deterministic (struct field order is fixed),
		// though without default normalisation.
		return fmt.Sprintf("%s/%+v", obj.Name(), obj)
	}
}

// objectiveDefaults mirrors the sim objectives' withDefaults normalisation.
func objectiveDefaults(window, images, batch int) (int, int, int) {
	if window <= 0 {
		window = 4
	}
	if images <= 0 {
		images = 4*window + 8
	}
	if batch <= 0 {
		batch = 1
	}
	return window, images, batch
}

// probeLayer picks the canonical probe for device fingerprinting: the
// model's first splittable layer.
func probeLayer(m *cnn.Model) cnn.Layer {
	return m.SplittableLayers()[0]
}

// fingerprint hashes a device's exact probe latencies at one, half-height
// and full-height rows of the probe layer. Exact float formatting ('g', -1)
// round-trips the values, so two devices share a fingerprint iff they
// predict bit-identical probe latencies.
func fingerprint(d device.LatencyModel, probe cnn.Layer) string {
	h := fnv.New64a()
	for _, r := range [3]int{1, (probe.OutHeight() + 1) / 2, probe.OutHeight()} {
		h.Write([]byte(strconv.FormatFloat(d.ComputeLatency(probe, r), 'g', -1, 64)))
		h.Write([]byte{','})
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// linkRegime buckets a link's uplink trace into its (bandwidth, spread)
// regime.
func linkRegime(l network.Link) (bw, spread int) {
	tr := l.Trace
	if tr == nil || len(tr.Mbps) == 0 {
		return -1 << 20, 0
	}
	mean := tr.Mean()
	if mean <= 0 {
		return -1 << 20, 0
	}
	bw = int(math.Round(2 * math.Log2(mean)))
	lo, hi := tr.Mbps[0], tr.Mbps[0]
	for _, v := range tr.Mbps[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo > 0 && hi > lo {
		spread = int(math.Round(math.Log2(hi / lo)))
	}
	return bw, spread
}

// Distance costs below unmatchedPenalty mean every device of the smaller
// fleet found a same-fingerprint partner in the larger one.
const unmatchedPenalty = 1 << 10

// spreadWeight is the distance cost per unit of fluctuation-bucket delta on
// a matched link: a regime change matters, but less than losing a device.
const spreadWeight = 4

// Distance is the documented warm-start distance between two fleet
// signatures:
//
//   - different model, objective or planner parameters → +Inf (strategies
//     are not transferable);
//   - devices are matched as a multiset by fingerprint; every matched pair
//     contributes the absolute difference of its bandwidth buckets plus
//     spreadWeight per fluctuation-bucket delta;
//   - every unmatched device (on either side) contributes unmatchedPenalty;
//   - the requester links contribute their bucket deltas like a matched pair.
//
// Lower is closer; the nearest cached neighbour under this distance seeds
// the warm-started search.
func Distance(a, b Signature) float64 {
	if a.Model != b.Model || a.Objective != b.Objective || a.Params != b.Params {
		return math.Inf(1)
	}
	cost := float64(bucketDelta(a.Requester, b.Requester))
	da := append([]DeviceSig(nil), a.Devices...)
	db := append([]DeviceSig(nil), b.Devices...)
	sortDevices(da)
	sortDevices(db)
	i, j := 0, 0
	for i < len(da) && j < len(db) {
		switch {
		case da[i].Dev == db[j].Dev:
			cost += float64(bucketDelta(da[i], db[j]))
			i++
			j++
		case da[i].Dev < db[j].Dev:
			cost += unmatchedPenalty
			i++
		default:
			cost += unmatchedPenalty
			j++
		}
	}
	cost += float64(unmatchedPenalty * (len(da) - i + len(db) - j))
	return cost
}

func bucketDelta(a, b DeviceSig) int {
	d := a.BW - b.BW
	if d < 0 {
		d = -d
	}
	s := a.Spread - b.Spread
	if s < 0 {
		s = -s
	}
	return d + spreadWeight*s
}

// sortDevices orders device signatures by (fingerprint, bandwidth bucket)
// — the canonical multiset order Distance matches in.
func sortDevices(ds []DeviceSig) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && less(ds[j], ds[j-1]); j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func less(a, b DeviceSig) bool {
	if a.Dev != b.Dev {
		return a.Dev < b.Dev
	}
	return a.BW < b.BW
}

// warmSeed maps a cached strategy (planned for the `have` fleet) onto the
// requesting `want` fleet, producing the seed strategy the search is
// warm-started from:
//
//   - equal provider counts: the strategy transfers index-for-index (the
//     fleets differ only in link regime);
//   - cached fleet larger: if want's device fingerprints form an in-order
//     subsequence of have's, the strategy is Projected onto that subset —
//     exactly the churn shape, where the new fleet is the survivors of the
//     old;
//   - cached fleet smaller: if have's fingerprints form an in-order
//     subsequence of want's, the strategy is Lifted onto the larger fleet
//     (the extra providers start idle and the search explores outward).
//
// Returns nil when no order-preserving device correspondence exists.
func warmSeed(m *cnn.Model, want, have Signature, s *strategy.Strategy) *strategy.Strategy {
	n, w := len(have.Devices), len(want.Devices)
	switch {
	case n == w:
		return s
	case n > w:
		alive := subseqMask(have.Devices, want.Devices)
		if alive == nil {
			return nil
		}
		proj, err := strategy.Project(m, s, alive)
		if err != nil {
			return nil
		}
		return proj
	default:
		alive := subseqMask(want.Devices, have.Devices)
		if alive == nil {
			return nil
		}
		lifted, err := strategy.Lift(m, s, alive)
		if err != nil {
			return nil
		}
		return lifted
	}
}

// subseqMask greedily matches small's device fingerprints as an in-order
// subsequence of big's, returning the mask over big (nil when small is not
// a subsequence).
func subseqMask(big, small []DeviceSig) []bool {
	mask := make([]bool, len(big))
	j := 0
	for i := 0; i < len(big) && j < len(small); i++ {
		if big[i].Dev == small[j].Dev {
			mask[i] = true
			j++
		}
	}
	if j < len(small) {
		return nil
	}
	return mask
}
