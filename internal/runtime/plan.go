// Package runtime executes a distribution strategy over a pluggable wire
// stack (internal/transport), reproducing the paper's deployment
// (Section V-A): a controller derives per-provider plans from the strategy,
// split-part weights are preloaded, each provider runs three goroutines
// (receive, compute, send) sharing queues, and the requester streams images
// through an admission window — Run keeps one image in flight (the paper's
// protocol: an image is not sent until the previous result returns),
// RunPipelined keeps K in flight so providers overlap different images'
// steps and the run measures sustained throughput. Both are loops over
// Submit, the one admission path the serving gateway drives too; with
// Options.Recover the cluster heals it when a provider dies.
//
// Compute is emulated: providers sleep for the device model's latency
// (scaled by Options.TimeScale) instead of running CUDA kernels, and
// payloads carry the real activation byte counts (scaled by
// Options.BytesScale). The protocol — framing, routing, assembly, FC
// gathering — is fully real, over whatever medium Options.Transport
// selects: localhost TCP sockets (the default, and the paper's testbed
// shape), in-process channels, trace-shaped links that reproduce the
// simulator's WiFi conditions, or a chaos-injecting decorator.
package runtime

import (
	"fmt"
	"math"
	"time"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/sim"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

// RequesterID is the destination index denoting the service requester.
const RequesterID = -1

// Options tunes the emulation scales, run limits and the fault-tolerance
// behaviour.
type Options struct {
	// TimeScale multiplies emulated compute sleeps (1.0 = model latency;
	// tests use small values). 0 means 1; BuildPlan rejects negative,
	// NaN and infinite scales.
	TimeScale float64
	// BytesScale multiplies payload sizes (1.0 = real activation bytes).
	// 0 means 1; BuildPlan rejects negative, NaN and infinite scales.
	BytesScale float64
	// Timeout bounds how long the requester waits for one try of an image
	// (default 30s). With Recover a timed-out image is re-scattered, up to
	// a fixed number of tries, before its timeout fails the cluster; without
	// it the first timeout does. Cluster-level errors — dead peers, failed
	// sends — abort images immediately, without waiting it out.
	Timeout time.Duration

	// Batch caps per-step image batching on every provider: when a step
	// becomes ready while the compute thread is busy, up to Batch queued
	// same-step work items (across in-flight images) coalesce into one
	// emulated invocation charged sim.BatchedComputeSec — the per-step
	// fixed cost once plus a marginal share per image. Outputs are still
	// emitted per image, so assembly, gc watermarks, churn recovery and
	// re-scatter are untouched. 1 (or negative) disables batching
	// (bit-identical to the pre-batching compute loop); 0 — the zero value
	// — is the adaptive cap: the compute thread drains every same-step
	// item that queued while it was busy, with no size bound. The sim
	// mirror is sim.ServeConfig.Batch.
	Batch int

	// Recover turns on online churn recovery: when a provider is declared
	// dead (missed heartbeats, failed sends), the cluster quarantines it,
	// re-plans the strategy over the survivors and redeploys them, and
	// every Submit — RunPipelined's included — re-scatters its aborted
	// image instead of failing. Without it, failure stays sticky
	// (Cluster.Err).
	Recover bool
	// HeartbeatInterval is the period at which every provider beats to the
	// requester over its result link (default 50ms). Negative disables
	// health tracking; failures are then detected only via failed sends.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many consecutive missed beats declare a
	// provider dead (default 6).
	HeartbeatMisses int
	// Replan picks the re-planner recovery uses; nil means
	// splitter.ObjectiveReplan(Objective) — profile-guided survivor
	// layouts scored under the serving objective, no training on the
	// serving path (the latency default is splitter.BalancedReplan
	// exactly).
	Replan sim.ReplanFunc
	// Objective is the planning objective the serving strategy was
	// produced with (nil = latency). Recovery's default re-planner
	// re-plans for it, so a throughput-planned deployment recovers into
	// a throughput-shaped layout. Ignored when Replan is set.
	Objective sim.Objective

	// Transport selects the wire stack the cluster deploys over: nil means
	// localhost TCP with the binary chunk codec (the original runtime
	// shape). transport.NewInproc gives a socket-free in-process cluster;
	// transport.NewShaped charges the simulator's WiFi trace latency to
	// every payload byte; transport.NewChaos injects seeded faults. One
	// Transport value is one network namespace — do not share an Inproc
	// across unrelated clusters.
	Transport transport.Transport
}

func (o Options) withDefaults() Options {
	if o.TimeScale == 0 {
		o.TimeScale = 1
	}
	if o.BytesScale == 0 {
		o.BytesScale = 1
	}
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = 50 * time.Millisecond
	}
	if o.HeartbeatInterval < 0 {
		o.HeartbeatInterval = 0 // disabled
	}
	if o.HeartbeatMisses <= 0 {
		o.HeartbeatMisses = 6
	}
	if o.Batch < 0 {
		o.Batch = 1
	}
	if o.Transport == nil {
		o.Transport = transport.NewPooledTCP(nil, nil)
	}
	return o
}

// Need is one input dependency of a step: rows [Lo,Hi) of the data produced
// at the given volume generation (-1 = the raw input image).
type Need struct {
	Volume int
	Lo, Hi int
}

// Route is one output obligation of a step: send rows [Lo,Hi) of this
// step's generation to Dest (provider index or RequesterID).
type Route struct {
	Dest   int
	Lo, Hi int
}

// Step is one unit of work a provider performs per image: wait for all
// Needs, "compute" for ComputeSec, then emit Routes.
type Step struct {
	Volume     int // generation this step produces
	Part       cnn.RowRange
	Needs      []Need
	Routes     []Route
	ComputeSec float64
	RowBytes   int // bytes per produced row (scaled)
}

// ProviderPlan is everything provider i must do for each image.
type ProviderPlan struct {
	Index int
	Steps []Step
}

// Plan is the controller's output: per-provider plans plus what the
// requester must scatter and await.
type Plan struct {
	Providers []ProviderPlan
	// Scatter lists the input-image rows each vol-0 provider needs.
	Scatter       []Need // indexed parallel to ScatterDest
	ScatterDest   []int
	InputRowBytes int
	// Await lists the (volume, lo, hi) chunks that complete one image.
	Await []Need
}

// maxChunkBytes returns the largest payload any chunk of this plan ships —
// scatter rows from the requester or routed activation rows between
// providers. Deploy passes it to transport.SetBufferHint so wire buffers
// cover a whole chunk.
func (p *Plan) maxChunkBytes() int {
	max := 0
	for _, need := range p.Scatter {
		if n := (need.Hi - need.Lo) * p.InputRowBytes; n > max {
			max = n
		}
	}
	for _, pp := range p.Providers {
		for _, st := range pp.Steps {
			for _, r := range st.Routes {
				if n := (r.Hi - r.Lo) * st.RowBytes; n > max {
					max = n
				}
			}
		}
	}
	return max
}

// BuildPlan compiles a strategy into a deployment plan. The env supplies
// the model (for geometry) and device profiles (for emulated compute).
func BuildPlan(env *sim.Env, strat *strategy.Strategy, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	for _, f := range []struct {
		name  string
		scale float64
	}{{"TimeScale", opts.TimeScale}, {"BytesScale", opts.BytesScale}} {
		if !(f.scale > 0) || math.IsInf(f.scale, 1) {
			return nil, fmt.Errorf("runtime: Options.%s = %g, want a positive finite scale (0 means 1)", f.name, f.scale)
		}
	}
	n := env.NumProviders()
	if err := strat.Validate(env.Model, n); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	numVol := strat.NumVolumes()
	scale := func(b float64) int {
		v := int(b * opts.BytesScale)
		if v < 1 {
			v = 1
		}
		return v
	}

	plans := make([]ProviderPlan, n)
	for i := range plans {
		plans[i].Index = i
	}
	plan := &Plan{InputRowBytes: scale(env.Model.Layers[0].InRowBytes())}

	// Per-volume parts and input requirements.
	parts := make([][]cnn.RowRange, numVol)
	ins := make([][]cnn.RowRange, numVol)
	for v := 0; v < numVol; v++ {
		layers := strategy.Volume(env.Model, strat.Boundaries, v)
		parts[v] = make([]cnn.RowRange, n)
		ins[v] = make([]cnn.RowRange, n)
		for i := 0; i < n; i++ {
			p := strat.PartRange(env.Model, v, i)
			parts[v][i] = p
			if !p.Empty() {
				ins[v][i] = cnn.VolumeInputRows(layers, p)
			}
		}
	}

	// Steps with needs.
	for v := 0; v < numVol; v++ {
		layers := strategy.Volume(env.Model, strat.Boundaries, v)
		for i := 0; i < n; i++ {
			p := parts[v][i]
			if p.Empty() {
				continue
			}
			st := Step{
				Volume:     v,
				Part:       p,
				ComputeSec: device.VolumeLatency(env.Devices[i], layers, p) * opts.TimeScale,
				RowBytes:   scale(layers[len(layers)-1].OutRowBytes()),
			}
			in := ins[v][i]
			if v == 0 {
				st.Needs = append(st.Needs, Need{Volume: volInput, Lo: in.Lo, Hi: in.Hi})
				plan.Scatter = append(plan.Scatter, Need{Volume: volInput, Lo: in.Lo, Hi: in.Hi})
				plan.ScatterDest = append(plan.ScatterDest, i)
			} else {
				for j := 0; j < n; j++ {
					ov := in.Intersect(parts[v-1][j])
					if ov.Empty() {
						continue
					}
					st.Needs = append(st.Needs, Need{Volume: v - 1, Lo: ov.Lo, Hi: ov.Hi})
				}
			}
			plans[i].Steps = append(plans[i].Steps, st)
		}
	}

	// Routes: producers of volume v feed consumers of volume v+1.
	addRoute := func(i, v int, r Route) {
		for si := range plans[i].Steps {
			if plans[i].Steps[si].Volume == v {
				plans[i].Steps[si].Routes = append(plans[i].Steps[si].Routes, r)
				return
			}
		}
	}
	for v := 0; v+1 < numVol; v++ {
		for i := 0; i < n; i++ {
			if parts[v][i].Empty() {
				continue
			}
			for j := 0; j < n; j++ {
				if parts[v+1][j].Empty() {
					continue
				}
				ov := ins[v+1][j].Intersect(parts[v][i])
				if ov.Empty() {
					continue
				}
				addRoute(i, v, Route{Dest: j, Lo: ov.Lo, Hi: ov.Hi})
			}
		}
	}

	// Final volume: gather at the FC owner if the model has FC layers,
	// otherwise return rows straight to the requester.
	last := numVol - 1
	fcs := env.Model.FCLayers()
	if len(fcs) == 0 {
		for i := 0; i < n; i++ {
			p := parts[last][i]
			if p.Empty() {
				continue
			}
			addRoute(i, last, Route{Dest: RequesterID, Lo: p.Lo, Hi: p.Hi})
			plan.Await = append(plan.Await, Need{Volume: last, Lo: p.Lo, Hi: p.Hi})
		}
	} else {
		owner, best := 0, -1
		for i := 0; i < n; i++ {
			if l := parts[last][i].Len(); l > best {
				best = l
				owner = i
			}
		}
		var fcLat float64
		for _, fc := range fcs {
			fcLat += env.Devices[owner].ComputeLatency(fc, 1)
		}
		fcStep := Step{
			Volume:     numVol, // synthetic FC generation
			Part:       cnn.RowRange{Lo: 0, Hi: 1},
			ComputeSec: fcLat * opts.TimeScale,
			RowBytes:   scale(fcs[len(fcs)-1].OutputBytes()),
			Routes:     []Route{{Dest: RequesterID, Lo: 0, Hi: 1}},
		}
		for i := 0; i < n; i++ {
			p := parts[last][i]
			if p.Empty() {
				continue
			}
			fcStep.Needs = append(fcStep.Needs, Need{Volume: last, Lo: p.Lo, Hi: p.Hi})
			if i == owner {
				// Own rows arrive via a self-route.
				addRoute(i, last, Route{Dest: owner, Lo: p.Lo, Hi: p.Hi})
			} else {
				addRoute(i, last, Route{Dest: owner, Lo: p.Lo, Hi: p.Hi})
			}
		}
		plans[owner].Steps = append(plans[owner].Steps, fcStep)
		plan.Await = append(plan.Await, Need{Volume: numVol, Lo: 0, Hi: 1})
	}

	plan.Providers = plans
	return plan, nil
}
