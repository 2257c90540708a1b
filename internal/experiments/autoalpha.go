package experiments

import (
	"fmt"

	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// PlanDistrEdgeAutoAlpha applies the paper's own Fig. 5 methodology as a
// planning step: run the LC-PSS + OSDS pipeline for each candidate α,
// measure each resulting strategy on the profiles, and keep the best. The
// paper does this sweep once offline to fix α=0.75 for its testbed; on a
// different substrate the best α can vary per model/fleet (see the
// OpenPose row in EXPERIMENTS.md), and the controller already owns
// everything needed to select it automatically.
//
// It returns the winning strategy, its α and its measured IPS.
func PlanDistrEdgeAutoAlpha(env *sim.Env, b Budget, alphas []float64) (*strategy.Strategy, float64, float64, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.25, 0.5, 0.75}
	}
	var bestStrat *strategy.Strategy
	bestAlpha, bestIPS := 0.0, -1.0
	seen := map[string]bool{}
	for _, alpha := range alphas {
		boundaries, err := lcpssSearch(env, b, alpha)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("experiments: auto-alpha %g: %w", alpha, err)
		}
		key := fmt.Sprint(boundaries)
		if seen[key] {
			continue // identical partition: OSDS would repeat itself
		}
		seen[key] = true
		strat, err := searchOSDS(env, boundaries, b)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("experiments: auto-alpha %g: %w", alpha, err)
		}
		res, err := env.Stream(strat, b.StreamImages, 0)
		if err != nil {
			return nil, 0, 0, err
		}
		if res.IPS > bestIPS {
			bestStrat, bestAlpha, bestIPS = strat, alpha, res.IPS
		}
	}
	if bestStrat == nil {
		return nil, 0, 0, fmt.Errorf("experiments: auto-alpha found no strategy")
	}
	return bestStrat, bestAlpha, bestIPS, nil
}
