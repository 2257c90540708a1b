package runtime

import (
	"fmt"
	"time"

	"distredge/internal/splitter"
	"distredge/internal/strategy"
	"distredge/internal/transport"
)

// supervise is the cluster's recovery owner, started by Deploy under
// Options.Recover. It waits for each epoch's first failure and runs the
// recovery procedure exactly once for it while holding sendMu, so no
// scatter starts while the deployment is swapped. It then settles the
// epoch: its waiters re-scatter into the new deployment, or — if recovery
// failed, which ends the supervisor — read the now-terminal error.
func (c *Cluster) supervise() {
	for {
		ep := c.current()
		select {
		case <-c.done:
			return
		case <-ep.failed:
		}
		c.sendMu.Lock()
		ms, err := c.recover()
		c.sendMu.Unlock()
		c.failMu.Lock()
		c.replanMS += ms
		if err == nil {
			c.recoveries++
		} else {
			ep.err = fmt.Errorf("runtime: %v; recovery failed: %w", ep.err, err)
		}
		c.failMu.Unlock()
		close(ep.settled)
		if err != nil {
			return
		}
	}
}

// recover is the churn-recovery procedure for the failed current epoch.
// Only supervise calls it, holding sendMu:
//
//  1. quarantine — every suspect (the failure's attributed provider plus
//     anything the health monitor declared dead) leaves the alive mask;
//  2. tear down — the old providers and the requester's links to them
//     close (image ids are monotonic, so a late chunk from the old
//     deployment can never resurrect an aborted image);
//  3. re-plan — Options.Replan (default splitter.ObjectiveReplan for
//     Options.Objective, i.e. splitter.BalancedReplan under the latency
//     default) produces a strategy over the survivors, warm-started from
//     the serving one;
//  4. redeploy — fresh providers for the survivors under a new epoch, so
//     stale failure reports and heartbeats from the torn-down deployment
//     are fenced off.
//
// The aborted images' Submits then re-scatter them under fresh ids.
// Returns the wall-clock milliseconds spent (the runtime's time-to-recover
// cost, comparable to sim.ServeConfig.ReplanSec).
func (c *Cluster) recover() (float64, error) {
	t0 := time.Now()
	ep := c.current()

	// 1. Quarantine the suspects.
	c.failMu.Lock()
	cause := ep.err
	suspects := map[int]bool{}
	if ep.suspect >= 0 {
		suspects[ep.suspect] = true
	}
	c.failMu.Unlock()
	if c.health != nil {
		for _, i := range c.health.deadSet() {
			suspects[i] = true
		}
	}
	c.provMu.Lock()
	newlyDead := 0
	for i := range suspects {
		if i >= 0 && i < len(c.alive) && c.alive[i] {
			c.alive[i] = false
			newlyDead++
		}
	}
	alive := append([]bool(nil), c.alive...)
	oldProvs := append([]*Provider(nil), c.providers...)
	oldStrat := c.strat
	c.provMu.Unlock()
	if newlyDead == 0 {
		// A timeout with every provider still beating, or a repeat of an
		// already-handled death: recovery cannot make progress.
		return 0, fmt.Errorf("runtime: no identifiable dead provider (cause: %v)", cause)
	}
	if strategy.CountAlive(alive) == 0 {
		return 0, fmt.Errorf("runtime: no surviving providers")
	}

	// 2. Tear down the old deployment. Each aborted image's Submit drops
	// its own registration and re-scatters under a fresh id, so stale
	// assembly state and late chunks from the old epoch are unreachable.
	closeAll(oldProvs)
	c.linkMu.Lock()
	for d, o := range c.links {
		o.Close()
		delete(c.links, d)
	}
	c.linkMu.Unlock()

	// 3. Re-plan over the survivors, for the objective being served.
	replan := c.opts.Replan
	if replan == nil {
		replan = splitter.ObjectiveReplan(c.opts.Objective)
	}
	newStrat, err := replan(c.env, oldStrat, alive)
	if err != nil {
		return msSince(t0), fmt.Errorf("runtime: re-plan: %w", err)
	}
	plan, err := BuildPlan(c.env, newStrat, c.opts)
	if err != nil {
		return msSince(t0), fmt.Errorf("runtime: re-plan compiled an invalid strategy: %w", err)
	}
	// The survivors' plan may ship different chunk sizes; re-hint the wire
	// buffers before their conns are dialled.
	transport.SetBufferHint(c.tr, plan.maxChunkBytes())

	// 4. Redeploy the survivors under a new epoch.
	next := newEpoch(ep.n + 1)
	provs, err := c.startProviders(plan, alive, next.n)
	if err != nil {
		return msSince(t0), fmt.Errorf("runtime: redeploy: %w", err)
	}
	c.provMu.Lock()
	select {
	case <-c.done:
		// Close raced the redeploy and tore down only what it saw.
		c.provMu.Unlock()
		closeAll(provs)
		return msSince(t0), fmt.Errorf("runtime: cluster closed during recovery")
	default:
	}
	c.providers = provs
	c.strat = newStrat
	c.plan = plan
	c.provMu.Unlock()
	c.failMu.Lock()
	c.ep = next
	c.failMu.Unlock()
	if c.health != nil {
		c.health.arm(next.n, alive)
	}
	return msSince(t0), nil
}

// closeAll shuts down every non-nil (not quarantined) provider.
func closeAll(provs []*Provider) {
	for _, p := range provs {
		if p != nil {
			p.close()
		}
	}
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1e3
}
