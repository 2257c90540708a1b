package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"distredge/internal/device"
	"distredge/internal/gateway"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/transport"
)

// chaosWindow is the gateway's global admission window in the chaos
// property test; the client keeps at most this many requests outstanding,
// so every request is admitted the moment it is enqueued.
const chaosWindow = 4

// chaosRun is one gateway serving run's outcome.
type chaosRun struct {
	completed int
	totalSec  float64
	ids       uint32 // image ids allocated: scatters plus re-scatters
}

// serveChaos deploys the stage strategy over a chaos transport, serves n
// requests from two tenants through the gateway with at most chaosWindow
// outstanding, injecting fault at `at` (nil = none), and checks the shared
// serving path's invariants: every request gets a Result within bound, and
// after Close the requester bookkeeping is drained and the goroutines are
// gone. With recover on and a fault, the healed cluster must serve a
// second batch in full.
func serveChaos(t *testing.T, env *sim.Env, cfg transport.ChaosConfig, recover bool, n int,
	at time.Duration, fault func(*Cluster, *transport.Chaos)) chaosRun {
	t.Helper()
	goroutines := goruntime.NumGoroutine()
	chaos := transport.NewChaos(transport.NewInproc(), cfg)
	opts := recoverOpts()
	opts.Recover = recover
	opts.Timeout = time.Second
	// A longer heartbeat threshold than recoverOpts' 52.5ms: this test runs
	// long enough that a scheduler stall on a loaded 2-CPU box would
	// otherwise quarantine healthy providers. Kills and partitions still
	// surface at once through failed sends.
	opts.HeartbeatInterval, opts.HeartbeatMisses = 20*time.Millisecond, 10
	opts.Transport = chaos
	cl, err := Deploy(env, stageStrategy(env, env.Model, []int{0, 10, 14, 18}), opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gateway.New(cl, gateway.Config{Window: chaosWindow, Policy: gateway.PolicyWFQ},
		[]gateway.TenantConfig{{Name: "a", Weight: 1}, {Name: "b", Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// A request may time out every try and then wait out one recovery.
	bound := scatterTries*opts.Timeout + 2*time.Second
	serve := func(n int) (completed int) {
		var pending []<-chan gateway.Result
		for i := 0; i < n || len(pending) > 0; pending = pending[1:] {
			for ; i < n && len(pending) < chaosWindow; i++ {
				ch, err := g.Enqueue([]string{"a", "b"}[i%2])
				if err != nil {
					t.Fatal(err)
				}
				pending = append(pending, ch)
			}
			select {
			case r := <-pending[0]:
				if lat := time.Duration(r.LatencyMS * float64(time.Millisecond)); lat > bound {
					t.Errorf("request took %s, over the %s bound (err %v)", lat, bound, r.Err)
				}
				if r.Err == nil {
					completed++
				}
			case <-time.After(bound):
				t.Fatalf("a request got no Result within %s", bound)
			}
		}
		return completed
	}
	if fault != nil {
		defer time.AfterFunc(at, func() { fault(cl, chaos) }).Stop()
	}
	start := time.Now()
	run := chaosRun{completed: serve(n)}
	run.totalSec = time.Since(start).Seconds()
	if recover {
		if run.completed != n {
			t.Errorf("completed %d of %d requests with recovery on (cluster err %v)", run.completed, n, cl.Err())
		}
		if fault != nil {
			if cl.Err() != nil || cl.LiveProviders() != 3 {
				t.Errorf("after the fault: err %v, %d live providers, want healthy with 3", cl.Err(), cl.LiveProviders())
			}
			if again := serve(n / 2); again != n/2 {
				t.Errorf("healed gateway served %d of %d further requests", again, n/2)
			}
		}
	}
	g.Close()
	bk := cl.bookkeeping()
	if bk.pending != 0 || bk.completed != 0 || bk.gcLow != bk.nextImg+1 {
		t.Errorf("requester bookkeeping leaked: pending=%d completed=%d gcLow=%d nextImg=%d",
			bk.pending, bk.completed, bk.gcLow, bk.nextImg)
	}
	run.ids = bk.nextImg
	cl.Close()
	for deadline := time.Now().Add(5 * time.Second); goruntime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after Close, %d before Deploy", goruntime.NumGoroutine(), goroutines)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return run
}

// TestGatewayChaosProperty drives the shared serving path — gateway over
// Submit over a Recover cluster on the chaos transport — through lost
// frames, delivery delays, a provider kill and a partition (see serveChaos
// for the invariants every script must keep). The kill script also
// replays the same device drop through sim.Env.Serve: the recover-on over
// recover-off goodput ordering the simulator predicts must be the one the
// gateway measures.
func TestGatewayChaosProperty(t *testing.T) {
	env := testEnv(device.Xavier, device.Nano, device.TX2, device.Nano)
	const requests = 16
	const failFrac = 0.45
	pilot := serveChaos(t, env, transport.ChaosConfig{}, true, requests, 0, nil)
	at := time.Duration(pilot.totalSec * failFrac * float64(time.Second))
	kill := func(cl *Cluster, _ *transport.Chaos) { cl.KillProvider(1) }
	isolate := func(_ *Cluster, ch *transport.Chaos) { ch.Isolate(1) }

	for _, c := range []struct {
		name  string
		cfg   transport.ChaosConfig
		fault func(*Cluster, *transport.Chaos)
	}{
		{"drop0.001", transport.ChaosConfig{Seed: 1, Drop: 0.001}, nil},
		{"drop0.01", transport.ChaosConfig{Seed: 2, Drop: 0.01}, nil},
		{"delay", transport.ChaosConfig{Seed: 3, MaxDelay: 2 * time.Millisecond}, nil},
		{"kill", transport.ChaosConfig{Seed: 4}, kill},
		{"isolate", transport.ChaosConfig{Seed: 5}, isolate},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := serveChaos(t, env, c.cfg, true, requests, at, c.fault)
			// Seed 2 loses a frame within the run, so a timed-out try must
			// have been re-scattered rather than failing the cluster.
			if c.cfg.Drop == 0.01 && run.ids <= requests {
				t.Errorf("%d ids for %d requests: no timed-out try was re-scattered", run.ids, requests)
			}
		})
	}

	t.Run("kill-vs-sim", func(t *testing.T) {
		tenants := []sim.TenantSpec{{Name: "a", Images: requests / 2, Weight: 1}, {Name: "b", Images: requests / 2, Weight: 2}}
		s := stageStrategy(env, env.Model, []int{0, 10, 14, 18})
		base, err := env.Serve(s, sim.ServeConfig{Tenants: tenants, Policy: sim.AdmitWFQ, Window: chaosWindow, Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.ServeConfig{
			Tenants: tenants, Policy: sim.AdmitWFQ, Window: chaosWindow, Batch: 1, Recover: true,
			Events: []sim.ChurnEvent{{At: base.TotalSec * failFrac, Kind: sim.DeviceDrop, Device: 1}},
			Replan: splitter.BalancedReplan,
		}
		simOn, err := env.Serve(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Recover = false
		simOff, err := env.Serve(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		goodput := func(on, off float64, cOn, cOff int) (float64, float64) {
			h := max(on, off) // the common horizon: the longer run's span
			return float64(cOn) / h, float64(cOff) / h
		}
		gOnSim, gOffSim := goodput(simOn.TotalSec, simOff.TotalSec, simOn.Completed, simOff.Completed)
		if gOnSim <= gOffSim {
			t.Fatalf("simulator must predict recover-on goodput above recover-off: %.3f vs %.3f", gOnSim, gOffSim)
		}
		rtOn := serveChaos(t, env, transport.ChaosConfig{Seed: 4}, true, requests, at, kill)
		rtOff := serveChaos(t, env, transport.ChaosConfig{Seed: 4}, false, requests, at, kill)
		gOnRt, gOffRt := goodput(rtOn.totalSec, rtOff.totalSec, rtOn.completed, rtOff.completed)
		t.Logf("sim: on %d off %d of %d (goodput %.2f vs %.2f); gateway: on %d off %d (goodput %.2f vs %.2f)",
			simOn.Completed, simOff.Completed, requests, gOnSim, gOffSim, rtOn.completed, rtOff.completed, gOnRt, gOffRt)
		if rtOff.completed >= requests {
			t.Fatalf("recover-off gateway lost no requests (kill too late?): %+v", rtOff)
		}
		if gOnRt <= gOffRt {
			t.Errorf("gateway does not reproduce the predicted goodput ordering: on %.3f <= off %.3f", gOnRt, gOffRt)
		}
	})
}
