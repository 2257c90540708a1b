package plancache

import (
	"fmt"

	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// Planner runs one planning: produce a strategy for the environment under
// the objective (nil = latency), optionally warm-started from init — a
// known-good strategy for this exact fleet shape that the search should
// explore outward from (fed into splitter Config.InitSplits; see
// experiments.PlanObjective for the canonical implementation). init is nil
// for cold plannings. Implementations must be deterministic: the same
// (env contents, objective, init) must yield a bit-identical strategy.
type Planner func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error)

// Outcome reports how a Plan call was served.
type Outcome string

// Plan outcomes.
const (
	// OutcomeHit: the exact fleet signature was cached; no search ran.
	OutcomeHit Outcome = "hit"
	// OutcomeWarm: a nearest-signature neighbour seeded a warm-started
	// search.
	OutcomeWarm Outcome = "warm"
	// OutcomeCold: nothing transferable was cached; the search ran from
	// scratch.
	OutcomeCold Outcome = "cold"
)

// Result is one planning outcome. Strategy is owned by the cache — treat it
// as read-only. Score is the strategy's objective score (seconds, lower is
// better). SeedKey is the signature key of the warm-start donor ("" unless
// Outcome is OutcomeWarm).
type Result struct {
	Strategy *strategy.Strategy
	Score    float64
	Outcome  Outcome
	SeedKey  string
}

// flight is one in-flight planning, shared by single-flight duplicates.
type flight struct {
	done chan struct{}
	res  Result
	err  error
}

// Plan serves one planning request for the fleet in env under the objective
// and the planner parameters params (see Signature.Params). An exact
// signature hit returns the cached strategy without planning. A miss for a
// signature another caller is already planning waits for that flight's
// result instead of planning again — single-flight holds across every
// caller sharing the cache, whatever Planner each passes. Otherwise plan
// runs on the caller's goroutine, warm-started from the nearest cached
// neighbour when one is comparable, and the result — guaranteed to score no
// worse than its warm-start seed under the requested objective — is cached
// before returning. Distinct signatures plan concurrently.
func (c *Cache) Plan(env *sim.Env, obj sim.Objective, params string, plan Planner) (Result, error) {
	if plan == nil {
		return Result{}, fmt.Errorf("plancache: nil Planner")
	}
	sig := SignatureOf(env, obj, params)
	key := sig.Key()
	c.mu.Lock()
	if e := c.lookupLocked(key); e != nil {
		c.mu.Unlock()
		return Result{Strategy: e.strat, Score: e.score, Outcome: OutcomeHit}, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.res, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.res, f.err = c.planMiss(env, obj, sig, plan)

	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return f.res, f.err
}

// planMiss runs the planning for a cache miss.
func (c *Cache) planMiss(env *sim.Env, obj sim.Objective, sig Signature, plan Planner) (Result, error) {
	var init *strategy.Strategy
	var seedKey string
	if nsig, nstrat, ok := c.Nearest(sig); ok {
		if seed := warmSeed(env.Model, sig, nsig, nstrat); seed != nil &&
			seed.Validate(env.Model, env.NumProviders()) == nil {
			init, seedKey = seed, nsig.Key()
			c.countWarmHit()
		}
	}

	strat, err := plan(env, obj, init)
	if err != nil {
		return Result{}, fmt.Errorf("plancache: planning %s: %w", sig.Key(), err)
	}
	scorer := sim.DefaultObjective(obj)
	score, err := scorer.Score(env, strat, 0)
	if err != nil {
		return Result{}, fmt.Errorf("plancache: scoring %s: %w", sig.Key(), err)
	}
	outcome := OutcomeCold
	if init != nil {
		outcome = OutcomeWarm
		// A warm-started plan never scores worse than its seed split: when
		// the shortened search fails to match the seed, the seed itself is
		// the plan.
		if seedScore, serr := scorer.Score(env, init, 0); serr == nil && seedScore < score {
			strat, score = init, seedScore
		}
	}
	// Hand out the cache-resident clone, so every path (hit or miss)
	// returns cache-owned read-only strategies.
	cached := c.Put(sig, strat, score)
	return Result{Strategy: cached, Score: score, Outcome: outcome, SeedKey: seedKey}, nil
}
