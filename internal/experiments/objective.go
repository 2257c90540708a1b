package experiments

import (
	"fmt"
	"math"
	"slices"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/network"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

// Planner labels for the objective sweep rows.
const (
	PlannerLatency = "latency"
	PlannerIPS     = "ips"
)

// PlanObjective plans a strategy for the given objective. The latency
// default (nil or sim.LatencyObjective) with a nil init is exactly
// PlanDistrEdge — the paper's LC-PSS + OSDS pipeline, bit-identical to the
// pre-objective planner. For other objectives the OSDS search runs with
// Config.Objective set, and two extensions matter for throughput:
//
//   - besides the LC-PSS boundaries the search also tries the pool-merged
//     stage boundaries (StageBoundaries): a stage layout needs roughly one
//     volume per provider before an admission window can fill, and LC-PSS
//     — which scores sequential latency — often merges to fewer;
//   - the noiseless StageStrategy anchor of each boundary set is scored
//     directly (warm-start episodes add exploration noise, so the exact
//     layout may never appear as an episode).
//
// A non-nil init warm-starts the search: it is a known-good strategy for
// this exact fleet shape (same provider count) that the search explores
// outward from. The seed's splits feed the splitter's Config.InitSplits
// (scheduled as the first warm episode, so the best-strategy tracker is
// anchored from episode 0), the seed's own volume boundaries join the
// boundary sets searched, and the seed itself is scored as a candidate — so
// the returned plan never scores worse than the seed under the requested
// objective. Because the seed anchors the search, warm-started searches run
// on half the episode budget: that is where the plan cache's warm-start
// throughput win comes from (measured by BenchmarkPlannerService and the
// `distbench -fig planner` sweep).
//
// Every candidate is scored by the objective at trace time 0 and the best
// one is returned.
func PlanObjective(env *sim.Env, b Budget, alpha float64, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
	latency := sim.IsLatencyObjective(obj)
	if latency && init == nil {
		return PlanDistrEdge(env, b, alpha)
	}
	n := env.NumProviders()
	if init != nil {
		if err := init.Validate(env.Model, n); err != nil {
			return nil, fmt.Errorf("experiments: warm-start seed: %w", err)
		}
	}
	lcp, err := lcpssSearch(env, b, alpha)
	if err != nil {
		return nil, fmt.Errorf("experiments: LC-PSS: %w", err)
	}
	boundarySets := [][]int{lcp}
	addBoundaries := func(bs []int) {
		if !slices.ContainsFunc(boundarySets, func(have []int) bool { return slices.Equal(have, bs) }) {
			boundarySets = append(boundarySets, bs)
		}
	}
	if init != nil {
		addBoundaries(init.Boundaries)
	}
	if !latency {
		addBoundaries(StageBoundaries(env.Model, n))
	}
	scorer := sim.DefaultObjective(obj)
	var best *strategy.Strategy
	bestScore := math.Inf(1)
	consider := func(s *strategy.Strategy) error {
		sc, err := scorer.Score(env, s, 0)
		if err != nil {
			return err
		}
		if sc < bestScore {
			best, bestScore = s, sc
		}
		return nil
	}
	if init != nil {
		if err := consider(init); err != nil {
			return nil, err
		}
		b.Episodes = (b.Episodes + 1) / 2
	}
	for _, boundaries := range boundarySets {
		cfg := osdsConfig(b, n, b.Seed)
		cfg.Objective = obj
		if init != nil {
			cfg.InitSplits = init.Splits
		}
		res, err := splitter.Search(env, boundaries, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: OSDS (%s): %w", scorer.Name(), err)
		}
		if err := consider(res.Strategy); err != nil {
			return nil, err
		}
		if !latency {
			if err := consider(StageStrategy(env.Model, boundaries, n)); err != nil {
				return nil, err
			}
		}
	}
	return best, nil
}

// ObjectiveRow is one cell of the planning-objective sweep: a case's
// strategy — planned for sequential latency or for sustained IPS — served
// with the given admission window.
type ObjectiveRow struct {
	Case      string
	Planner   string // PlannerLatency or PlannerIPS
	Window    int
	IPS       float64
	SteadyIPS float64
	MeanLatMS float64
	P95LatMS  float64
}

// objectiveCase is one case of the objective sweep. Cases carry an env
// constructor rather than a Spec because the sweep covers both trace
// regimes: Spec materialises stable traces only, while the dynamic case
// mirrors WithDynamicNetwork's highly fluctuating 40-100 Mbps links.
type objectiveCase struct {
	name string
	env  func() *sim.Env
}

func objectiveCases(seed int64) []objectiveCase {
	stable := DeviceGroups()[1].Spec(cnn.VGG16(), 200, seed)
	return []objectiveCase{
		{stable.Name, stable.Env},
		{"NanoX4-dyn40-100-yolov2", func() *sim.Env {
			devs := device.Fleet(device.Nano, device.Nano, device.Nano, device.Nano)
			net := &network.Network{Requester: network.DefaultLink(network.Stable(300, 60, seed+997))}
			for i := range devs {
				net.Providers = append(net.Providers, network.DefaultLink(network.Dynamic(40, 100, 60, seed+int64(i)*31)))
			}
			return &sim.Env{Model: cnn.YOLOv2(), Devices: device.AsModels(devs), Net: net}
		}},
	}
}

// FigObjective compares the latency-optimal planner against the
// throughput-optimal (IPS) planner across admission windows, on a stable
// and a highly dynamic trace case: each planner's strategy is streamed
// with every window and reported as sustained/steady IPS plus the
// latency distribution. The IPS planner trains against
// sim.ThroughputObjective at objWindow (default 4). Cases run on the
// budget's worker pool; rows are deterministic for any worker count.
func FigObjective(b Budget, windows []int, objWindow int) ([]ObjectiveRow, error) {
	if len(windows) == 0 {
		windows = DefaultWindows()
	}
	if objWindow <= 0 {
		objWindow = 4
	}
	cases := objectiveCases(b.Seed)
	perCase := make([][]ObjectiveRow, len(cases))
	err := runIndexed(len(cases), b.Workers(), func(ci int) error {
		c := cases[ci]
		env := c.env()
		planners := []struct {
			name string
			obj  sim.Objective
		}{
			{PlannerLatency, nil},
			{PlannerIPS, sim.ThroughputObjective{Window: objWindow}},
		}
		var rows []ObjectiveRow
		for _, pl := range planners {
			strat, err := PlanObjective(env, b, 0.75, pl.obj, nil)
			if err != nil {
				return fmt.Errorf("experiments: objective sweep %s/%s: %w", c.name, pl.name, err)
			}
			for _, w := range windows {
				res, err := env.PipelineStream(strat, b.StreamImages, w, 0)
				if err != nil {
					return fmt.Errorf("experiments: objective sweep %s/%s: %w", c.name, pl.name, err)
				}
				rows = append(rows, ObjectiveRow{
					Case:      c.name,
					Planner:   pl.name,
					Window:    w,
					IPS:       res.IPS,
					SteadyIPS: res.SteadyIPS,
					MeanLatMS: res.MeanLatMS,
					P95LatMS:  res.P95LatMS,
				})
			}
		}
		perCase[ci] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []ObjectiveRow
	for _, rows := range perCase {
		out = append(out, rows...)
	}
	return out, nil
}
