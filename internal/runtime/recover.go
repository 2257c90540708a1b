package runtime

import (
	"fmt"
	"time"

	"distredge/internal/splitter"
	"distredge/internal/transport"
)

// recover is the churn-recovery procedure RunPipelined invokes between
// admission batches once a failure surfaced (so no admission or completion
// waiter is live while the deployment is swapped):
//
//  1. quarantine — every suspect (the failure's attributed provider plus
//     anything the health monitor declared dead) leaves the alive mask;
//  2. drain — results that already arrived stay counted, while the
//     registrations of incomplete images are dropped and the gc watermark
//     advances past them (their ids are dead: image ids are monotonic, so
//     a late chunk from the old deployment can never resurrect them);
//  3. re-plan — Options.Replan (default splitter.ObjectiveReplan for
//     Options.Objective, i.e. splitter.BalancedReplan under the latency
//     default) produces a strategy over the survivors, warm-started from
//     the serving one;
//  4. redeploy — fresh providers for the survivors under a new epoch, so
//     stale failure reports and heartbeats from the torn-down deployment
//     are fenced off, and the failure state is re-armed.
//
// The caller then re-scatters every incomplete image. Returns the
// wall-clock milliseconds spent (the runtime's time-to-recover cost,
// comparable to sim.ServeConfig.ReplanSec).
func (c *Cluster) recover() (float64, error) {
	t0 := time.Now()

	// 1. Quarantine the suspects.
	c.failMu.Lock()
	cause := c.failErr
	suspects := map[int]bool{}
	if c.failIdx >= 0 {
		suspects[c.failIdx] = true
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
	live := 0
	for _, a := range alive {
		if a {
			live++
		}
	}
	if live == 0 {
		return 0, fmt.Errorf("runtime: no surviving providers")
	}

	// 2. Tear down the old deployment and drain the bookkeeping. New image
	// ids will be allocated for the re-scatters, so stale assembly state
	// and late chunks from the old epoch are unreachable by construction.
	for _, p := range oldProvs {
		if p != nil {
			p.close()
		}
	}
	c.linkMu.Lock()
	for d, o := range c.links {
		o.Close()
		delete(c.links, d)
	}
	c.linkMu.Unlock()
	c.reg.drainAll()
	// Every id allocated so far is now either delivered or dead — including
	// ids whose results fully arrived but whose waiter observed the failure
	// before calling complete() (that race would otherwise wedge the
	// watermark forever). Advance the cursor past all of them; the
	// redeployed providers start with no state for it to guard anyway.
	c.wm.drainThrough(c.nextImg.Load())

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

	// 4. Open a new epoch and redeploy the survivors.
	c.failMu.Lock()
	c.epoch++
	epoch := c.epoch
	c.failed = make(chan struct{})
	c.failErr = nil
	c.failIdx = -1
	c.failMu.Unlock()

	provs := make([]*Provider, len(alive))
	addrs := map[int]string{RequesterID: c.ln.Addr()}
	for _, pp := range plan.Providers {
		if !alive[pp.Index] {
			continue
		}
		p, err := newProvider(pp, epoch, c.opts.HeartbeatInterval, c.opts.Batch, c.providerFailFn(epoch), c.tr)
		if err != nil {
			for _, q := range provs {
				if q != nil {
					q.close()
				}
			}
			return msSince(t0), fmt.Errorf("runtime: redeploy provider %d: %w", pp.Index, err)
		}
		provs[pp.Index] = p
		addrs[pp.Index] = p.Addr()
	}
	for _, p := range provs {
		if p != nil {
			p.setPeers(addrs)
		}
	}
	c.provMu.Lock()
	c.providers = provs
	c.strat = newStrat
	c.plan = plan
	c.provMu.Unlock()
	if c.health != nil {
		c.health.arm(epoch, alive)
	}
	return msSince(t0), nil
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1e3
}
