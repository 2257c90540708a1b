package plancache

import (
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/device"
	"distredge/internal/sim"
	"distredge/internal/splitter"
	"distredge/internal/strategy"
)

// balancedPlanner is a cheap deterministic Planner for Cache.Plan tests: the
// profile-balanced single-volume layout, ignoring init. calls counts real
// plannings.
func balancedPlanner(calls *atomic.Int64) Planner {
	return func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		if calls != nil {
			calls.Add(1)
		}
		alive := make([]bool, env.NumProviders())
		for i := range alive {
			alive[i] = true
		}
		return splitter.BalancedSubset(env, strategy.SingleVolume(env.Model), alive)
	}
}

// The TestService* tests exercise Cache.Plan, the planner service over the
// cache.

func TestServiceRequiresPlanner(t *testing.T) {
	env := sigEnv(cnn.VGG16(), 3, []float64{100, 100}, device.Xavier, device.Nano)
	if _, err := New(0).Plan(env, nil, "", nil); err == nil {
		t.Fatal("Plan accepted a nil Planner")
	}
}

// TestServiceExactHitDeterminism is the determinism satellite: planning the
// same fleet signature twice returns the first plan without re-planning, and
// the cached strategy is bit-identical to an independent recomputation with
// the same seed inputs.
func TestServiceExactHitDeterminism(t *testing.T) {
	var calls atomic.Int64
	cache := New(0)
	env := sigEnv(cnn.VGG16(), 3, []float64{100, 200, 100}, device.Xavier, device.Nano, device.TX2)
	first, err := cache.Plan(env, nil, "", balancedPlanner(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if first.Outcome != OutcomeCold {
		t.Fatalf("first planning outcome %q, want cold", first.Outcome)
	}
	// Same fleet, rebuilt from scratch (fresh traces, same nominal regime).
	again := sigEnv(cnn.VGG16(), 3, []float64{100, 200, 100}, device.Xavier, device.Nano, device.TX2)
	second, err := cache.Plan(again, nil, "", balancedPlanner(&calls))
	if err != nil {
		t.Fatal(err)
	}
	if second.Outcome != OutcomeHit {
		t.Fatalf("second planning outcome %q, want hit", second.Outcome)
	}
	if calls.Load() != 1 {
		t.Fatalf("planner ran %d times, want 1", calls.Load())
	}
	if second.Strategy != first.Strategy {
		t.Fatal("exact hit returned a different pointer than the cached plan")
	}
	// Independent recomputation on a fresh cache must be bit-identical.
	recomputed, err := New(0).Plan(env, nil, "", balancedPlanner(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recomputed.Strategy, first.Strategy) {
		t.Fatalf("recomputed strategy differs:\n%+v\n%+v", recomputed.Strategy, first.Strategy)
	}
	if recomputed.Score != first.Score {
		t.Fatalf("recomputed score %v != cached %v", recomputed.Score, first.Score)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want exactly 1 hit and 1 miss", st)
	}
}

func TestServiceWarmStart(t *testing.T) {
	var inits []*strategy.Strategy
	var mu sync.Mutex
	planner := func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		mu.Lock()
		inits = append(inits, init)
		mu.Unlock()
		return balancedPlanner(nil)(env, obj, init)
	}
	cache := New(0)
	cold := sigEnv(cnn.VGG16(), 3, []float64{100, 100}, device.Xavier, device.Nano)
	coldRes, err := cache.Plan(cold, nil, "", planner)
	if err != nil {
		t.Fatal(err)
	}
	// Same devices one bandwidth tier up: a near miss, not an exact hit.
	near := sigEnv(cnn.VGG16(), 3, []float64{150, 150}, device.Xavier, device.Nano)
	warmRes, err := cache.Plan(near, nil, "", planner)
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Outcome != OutcomeWarm {
		t.Fatalf("near-miss outcome %q, want warm", warmRes.Outcome)
	}
	if want := SignatureOf(cold, nil, "").Key(); warmRes.SeedKey != want {
		t.Fatalf("SeedKey = %q, want donor %q", warmRes.SeedKey, want)
	}
	if len(inits) != 2 || inits[0] != nil || inits[1] == nil {
		t.Fatalf("planner inits = %v, want [nil, non-nil]", inits)
	}
	if !reflect.DeepEqual(inits[1], coldRes.Strategy) {
		t.Fatal("warm start was not seeded with the donor strategy")
	}
	st := cache.Stats()
	if st.WarmHits != 1 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats %+v, want 2 misses of which 1 warm", st)
	}
}

// TestServiceWarmNeverWorseThanSeed exercises the quality guarantee with a
// deliberately bad planner: when the warm-started search loses to its own
// seed, the seed is the plan.
func TestServiceWarmNeverWorseThanSeed(t *testing.T) {
	bad := func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		if init == nil {
			return balancedPlanner(nil)(env, obj, init)
		}
		// Warm planning "fails": everything on the slowest provider.
		b := strategy.SingleVolume(env.Model)
		h := strategy.VolumeHeight(env.Model, b, 0)
		return &strategy.Strategy{
			Boundaries: b,
			Splits:     [][]int{strategy.AllOnProvider(h, env.NumProviders(), env.NumProviders()-1)},
		}, nil
	}
	cache := New(0)
	cold := sigEnv(cnn.VGG16(), 3, []float64{100, 100}, device.Xavier, device.Nano)
	coldRes, err := cache.Plan(cold, nil, "", bad)
	if err != nil {
		t.Fatal(err)
	}
	near := sigEnv(cnn.VGG16(), 3, []float64{150, 150}, device.Xavier, device.Nano)
	// Equal provider counts: the donor strategy transfers index-for-index,
	// so the seed Plan will use is exactly the cold strategy.
	seedScore, err := sim.DefaultObjective(nil).Score(near, coldRes.Strategy, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cache.Plan(near, nil, "", bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != OutcomeWarm {
		t.Fatalf("outcome %q, want warm", res.Outcome)
	}
	if res.Score > seedScore {
		t.Fatalf("warm plan scores %v, worse than its seed %v", res.Score, seedScore)
	}
	// The bad search result lost to the seed, so the seed must be the plan.
	if !reflect.DeepEqual(res.Strategy, coldRes.Strategy) {
		t.Fatal("losing warm search was not replaced by its seed")
	}
}

// TestServiceSingleFlight: concurrent Plan calls for the identical signature
// share one planning.
func TestServiceSingleFlight(t *testing.T) {
	var calls atomic.Int64
	planner := blockingPlanner(&calls)
	cache := New(0)
	results := planTwice(t, cache, planner.plan, planner.plan, planner)
	if calls.Load() != 1 {
		t.Fatalf("planner ran %d times for one signature, want 1", calls.Load())
	}
	if results[0].Strategy != results[1].Strategy {
		t.Fatal("single-flight duplicate got a different strategy pointer")
	}
}

// TestCacheSingleFlightAcrossCallers: two callers that share only the cache
// — each with its own Planner value, as every System.PlanCached call builds
// one — still plan an identical signature once.
func TestCacheSingleFlightAcrossCallers(t *testing.T) {
	var calls atomic.Int64
	shared := blockingPlanner(&calls)
	// Two distinct closures over one counter: the second caller's planner
	// is a different Planner value from the first's.
	first := func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		return shared.plan(env, obj, init)
	}
	second := func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		return shared.plan(env, obj, init)
	}
	cache := New(0)
	results := planTwice(t, cache, first, second, shared)
	if calls.Load() != 1 {
		t.Fatalf("planner ran %d times for one signature across two callers, want 1", calls.Load())
	}
	if results[0].Strategy != results[1].Strategy {
		t.Fatal("the second caller got a different strategy pointer")
	}
	if st := cache.Stats(); st.Misses != 2 || st.Hits != 0 || cache.Len() != 1 {
		t.Fatalf("stats %+v with %d entries, want 2 misses into 1 entry", st, cache.Len())
	}
}

// gatedPlanner is a balanced planner whose first planning blocks inside
// the planner until released, so a second request can arrive mid-flight.
type gatedPlanner struct {
	calls   *atomic.Int64
	started chan struct{}
	release chan struct{}
}

func blockingPlanner(calls *atomic.Int64) *gatedPlanner {
	return &gatedPlanner{calls: calls, started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedPlanner) plan(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
	if g.calls.Add(1) == 1 {
		close(g.started)
		<-g.release
	}
	return balancedPlanner(nil)(env, obj, init)
}

// planTwice plans one fleet signature twice on the cache: first with
// planner a, then — while a's flight is blocked inside the planner — with
// planner b on a freshly built env of the same fleet.
func planTwice(t *testing.T, cache *Cache, a, b Planner, g *gatedPlanner) [2]Result {
	t.Helper()
	var results [2]Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := cache.Plan(sigEnv(cnn.VGG16(), 3, []float64{100, 100}, device.Xavier, device.Nano), nil, "", a)
		if err != nil {
			t.Error(err)
		}
		results[0] = r
	}()
	<-g.started // first flight is inside the planner
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := cache.Plan(sigEnv(cnn.VGG16(), 3, []float64{100, 100}, device.Xavier, device.Nano), nil, "", b)
		if err != nil {
			t.Error(err)
		}
		results[1] = r
	}()
	// Release the first flight only once the duplicate has missed: Plan's
	// lookup and its single-flight check share one critical section, so the
	// duplicate is then committed to waiting on the flight (or, without
	// single-flight, to planning again).
	for cache.Stats().Misses < 2 {
		runtime.Gosched()
	}
	close(g.release)
	wg.Wait()
	return results
}

// TestServiceConcurrentDistinct: distinct signatures plan concurrently —
// two plannings must be in flight at the same time.
func TestServiceConcurrentDistinct(t *testing.T) {
	var inFlight, peak atomic.Int64
	var enterBoth sync.WaitGroup
	enterBoth.Add(2)
	planner := func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		enterBoth.Done()
		enterBoth.Wait() // barrier: both plannings must be inside at once
		return balancedPlanner(nil)(env, obj, init)
	}
	cache := New(0)
	envs := []*sim.Env{
		sigEnv(cnn.VGG16(), 3, []float64{100, 100}, device.Xavier, device.Nano),
		sigEnv(cnn.VGG16(), 3, []float64{400, 400}, device.Xavier, device.Nano),
	}
	var wg sync.WaitGroup
	for _, env := range envs {
		wg.Add(1)
		go func(env *sim.Env) {
			defer wg.Done()
			if _, err := cache.Plan(env, nil, "", planner); err != nil {
				t.Error(err)
			}
		}(env)
	}
	wg.Wait()
	if peak.Load() != 2 {
		t.Fatalf("peak concurrent plannings %d, want 2", peak.Load())
	}
}
