package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"distredge"
)

// fleet is one planning request shape of the plan_stream population.
type fleet struct {
	name string
	sys  *distredge.System
	cfg  distredge.PlanConfig
}

// buildFleets builds the fixed fleet population: every family at every
// bandwidth. The population does not depend on the workload seed, so the
// plans it yields — and plan_pred_ips — are the same across seeds.
func buildFleets(p planStreamSpec) ([]fleet, error) {
	var out []fleet
	for _, fam := range p.Families {
		cfg := distredge.PlanConfig{Effort: distredge.Effort(p.Effort)}
		switch fam.Objective {
		case "latency":
		case "ips":
			cfg.Objective, cfg.ObjectiveWindow = distredge.ObjectiveIPS, p.ObjectiveWindow
		default:
			return nil, fmt.Errorf("spec.json: unknown objective %q", fam.Objective)
		}
		for _, bw := range p.BandwidthsMbps {
			specs := make([]string, len(fam.Devices))
			for i, d := range fam.Devices {
				specs[i] = fmt.Sprintf("%s:%g", d, bw)
			}
			provs, err := distredge.ParseProviders(strings.Join(specs, ","))
			if err != nil {
				return nil, err
			}
			sys, err := distredge.New(fam.Model, provs, distredge.WithSeed(p.PlanSeed))
			if err != nil {
				return nil, err
			}
			out = append(out, fleet{
				name: fmt.Sprintf("%s/%s/%s@%g", fam.Model, fam.Objective, strings.Join(fam.Devices, ","), bw),
				sys:  sys,
				cfg:  cfg,
			})
		}
	}
	return out, nil
}

// planStream draws one pass's request order from the seed: every fleet
// once, the rest of the pass from a Zipf popularity over a seeded ranking
// of the fleets, shuffled together. Every fleet misses exactly once per
// pass, so the hit ratio is fixed by the pass length.
func planStream(p planStreamSpec, fleets int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	rank := rng.Perm(fleets)
	z := rand.NewZipf(rng, p.ZipfS, p.ZipfV, uint64(fleets-1))
	reqs := make([]int, 0, p.RequestsPerPass)
	for i := 0; i < fleets; i++ {
		reqs = append(reqs, i)
	}
	for len(reqs) < p.RequestsPerPass {
		reqs = append(reqs, rank[z.Uint64()])
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// passResult is one pass of the stream through a fresh PlanCache.
type passResult struct {
	callMS  []float64 // every PlanCached call, in stream order
	outcome []distredge.PlanOutcome
	planned time.Duration // sum of the calls
	plans   [][]byte      // per fleet: the SavePlan bytes served
	proc    procDelta
	hits    int
	warm    int
	cold    int
}

// runPass sends the stream through a fresh cache and checks the outputs:
// a fleet's first request misses and later ones hit; every hit serves the
// same plan bytes as that fleet's miss; every served plan re-loads with
// LoadPlan; the cache's own counters agree with the outcomes seen.
func runPass(fleets []fleet, reqs []int, rec *tracer, chk *checks) (*passResult, error) {
	pc := distredge.NewPlanCache(0)
	res := &passResult{plans: make([][]byte, len(fleets))}
	begin := snapProc()
	for i, fi := range reqs {
		f := &fleets[fi]
		start := time.Now()
		plan, outcome, err := f.sys.PlanCached(f.cfg, pc)
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("planning %s: %w", f.name, err)
		}
		res.planned += d
		res.callMS = append(res.callMS, msOf(d))
		res.outcome = append(res.outcome, outcome)
		if rec != nil {
			rec.record(spanPlan, uint64(i), start, d, 0, outcomeCode(outcome))
		}
		data, err := f.sys.SavePlan(plan)
		if err != nil {
			return nil, err
		}
		switch outcome {
		case distredge.PlanHit:
			res.hits++
			chk.expect(bytes.Equal(data, res.plans[fi]), "request %d: hit for %s served a plan other than its miss", i, f.name)
		default:
			if outcome == distredge.PlanWarm {
				res.warm++
			} else {
				res.cold++
			}
			chk.expect(res.plans[fi] == nil, "request %d: %s missed after it was cached", i, f.name)
			if _, err := f.sys.LoadPlan(data); err != nil {
				chk.fail("request %d: plan for %s does not re-load: %v", i, f.name, err)
			}
			res.plans[fi] = data
		}
	}
	res.proc = begin.until(snapProc())
	st := pc.Stats()
	chk.expect(int(st.Hits) == res.hits && int(st.WarmHits) == res.warm && int(st.Misses) == res.warm+res.cold,
		"cache counted %d hits, %d misses, %d warm; stream saw %d hits, %d warm, %d cold",
		st.Hits, st.Misses, st.WarmHits, res.hits, res.warm, res.cold)
	return res, nil
}

func outcomeCode(o distredge.PlanOutcome) uint8 {
	switch o {
	case distredge.PlanHit:
		return 1
	case distredge.PlanWarm:
		return 2
	default:
		return 3
	}
}

// runPasses runs whole passes of the stream, each through a fresh cache
// and a freshly built population (a System memoizes simulated latencies,
// so reusing one would make later passes cheaper than the first), for as
// long as another pass still fits in sec seconds (at least one). A pass
// must serve the same plans as the first: the stream and the planner are
// deterministic.
func runPasses(ps planStreamSpec, reqs []int, sec float64, rec *tracer, chk *checks) ([]*passResult, error) {
	var passes []*passResult
	var elapsed time.Duration
	budget := secondsDur(sec)
	for len(passes) == 0 || elapsed+passes[len(passes)-1].proc.wall <= budget {
		fleets, err := buildFleets(ps)
		if err != nil {
			return nil, err
		}
		p, err := runPass(fleets, reqs, rec, chk)
		if err != nil {
			return nil, err
		}
		if len(passes) > 0 {
			for fi, data := range p.plans {
				chk.expect(bytes.Equal(data, passes[0].plans[fi]), "pass %d served a different plan for %s than pass 0", len(passes), fleets[fi].name)
			}
		}
		passes = append(passes, p)
		elapsed += p.proc.wall
	}
	return passes, nil
}

// predictedIPS is the geometric mean, over the population, of each served
// plan's simulated IPS: sequential streaming for latency-objective fleets,
// pipelined at the objective window for throughput-objective ones.
func predictedIPS(p planStreamSpec, fleets []fleet, plans [][]byte) (float64, error) {
	var ips []float64
	for fi, f := range fleets {
		plan, err := f.sys.LoadPlan(plans[fi])
		if err != nil {
			return 0, err
		}
		if f.cfg.Objective == distredge.ObjectiveIPS {
			rep, err := f.sys.EvaluatePipelined(plan, p.SimImages, p.ObjectiveWindow)
			if err != nil {
				return 0, err
			}
			ips = append(ips, rep.IPS)
			continue
		}
		rep, err := f.sys.Evaluate(plan, p.SimImages)
		if err != nil {
			return 0, err
		}
		ips = append(ips, rep.IPS)
	}
	return geomean(ips), nil
}

// planSetup measures time to first plan: build the fleet population and a
// cache, then plan the pinned fleet cold. The plan must be the pinned plan
// byte for byte. It repeats the measurement and returns the median.
func planSetup(spec *benchSpec, chk *checks) (float64, error) {
	pin := spec.Pinned
	var times []float64
	for i := 0; i < spec.PlanStream.SetupRepeats; i++ {
		start := time.Now()
		if _, err := buildFleets(spec.PlanStream); err != nil {
			return 0, err
		}
		pc := distredge.NewPlanCache(0)
		provs, err := distredge.ParseProviders(pin.Providers)
		if err != nil {
			return 0, err
		}
		sys, err := distredge.New(pin.Model, provs, distredge.WithSeed(pin.PlanSeed))
		if err != nil {
			return 0, err
		}
		plan, outcome, err := sys.PlanCached(distredge.PlanConfig{Effort: distredge.Effort(pin.Effort)}, pc)
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
		data, err := sys.SavePlan(plan)
		if err != nil {
			return 0, err
		}
		chk.expect(outcome == distredge.PlanCold && bytes.Equal(data, pinnedPlanJSON),
			"first plan of the pinned fleet: outcome %s, equals %s: %v", outcome, pin.File, bytes.Equal(data, pinnedPlanJSON))
	}
	return median(times), nil
}

func runPlanStream(spec *benchSpec, seed int64, seconds float64, trace bool, chk *checks) (*report, error) {
	p := spec.PlanStream
	if _, err := loadPinned(spec.Pinned, chk); err != nil {
		return nil, err
	}
	fleets, err := buildFleets(p)
	if err != nil {
		return nil, err
	}
	reqs := planStream(p, len(fleets), seed)
	rep := newReport()
	pps := func(passes []*passResult) float64 {
		var rates []float64
		for _, ps := range passes {
			rates = append(rates, float64(len(ps.callMS))/ps.planned.Seconds())
		}
		return median(rates)
	}
	var calls []float64
	var total procDelta
	collect := func(passes []*passResult) {
		calls, total = nil, procDelta{}
		for _, ps := range passes {
			calls = append(calls, ps.callMS...)
			total.cpu += ps.proc.cpu
			total.allocBytes += ps.proc.allocBytes
			total.gcCycles += ps.proc.gcCycles
			total.gcPause += ps.proc.gcPause
		}
	}
	if !trace {
		setup, err := planSetup(spec, chk)
		if err != nil {
			return nil, err
		}
		passes, err := runPasses(p, reqs, seconds, nil, chk)
		if err != nil {
			return nil, err
		}
		pred, err := predictedIPS(p, fleets, passes[0].plans)
		if err != nil {
			return nil, err
		}
		collect(passes)
		lat := sortedCopy(calls)
		rep.metrics["sustained_per_s"] = pps(passes)
		rep.metrics["latency_p50_ms"] = quantile(lat, 0.5)
		rep.metrics["latency_p90_ms"] = quantile(lat, 0.9)
		rep.metrics["cpu_ms_per_op"] = msOf(total.cpu) / float64(len(calls))
		rep.metrics["plan_pred_ips"] = pred
		rep.metrics["setup_s"] = setup
		rep.metrics["peak_rss_mb"] = peakRSSMB()
		rep.attempted = len(calls)
		first := passes[0]
		rep.note("%d fleets, %d passes of %d requests: %d hits, %d warm, %d cold per pass",
			len(fleets), len(passes), len(reqs), first.hits, first.warm, first.cold)
		rep.note("plans_per_s %.2f (median pass), plan_p50_ms %.3f, plan_p99_ms %.1f over %d calls",
			pps(passes), quantile(lat, 0.5), quantile(lat, 0.99), len(lat))
		return rep, nil
	}
	base, err := runPasses(p, reqs, seconds/2, nil, chk)
	if err != nil {
		return nil, err
	}
	rec := newTracer()
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	passes, err := runPasses(p, reqs, seconds/2, rec, chk)
	shares, perr := prof.stop(spec.ProfileRules)
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	collect(passes)
	m := rep.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for name, share := range shares {
		m[name] = share
	}
	var hitMS, coldMS, warmMS []float64
	for _, ps := range passes {
		for i, o := range ps.outcome {
			switch o {
			case distredge.PlanHit:
				hitMS = append(hitMS, ps.callMS[i])
			case distredge.PlanWarm:
				warmMS = append(warmMS, ps.callMS[i])
			default:
				coldMS = append(coldMS, ps.callMS[i])
			}
		}
	}
	n := float64(len(calls))
	m["plancache.hit_ratio"] = float64(len(hitMS)) / n
	m["plancache.warm_ratio"] = float64(len(warmMS)) / float64(len(warmMS)+len(coldMS))
	m["plancache.hit_ms_p50"] = quantile(sortedCopy(hitMS), 0.5)
	m["search.cold_ms_mean"] = mean(coldMS)
	m["search.warm_ms_mean"] = mean(warmMS)
	m["proc.alloc_bytes_per_op"] = float64(total.allocBytes) / n
	m["proc.gc_cycles"] = float64(total.gcCycles)
	m["proc.gc_pause_ms"] = msOf(total.gcPause)
	m["trace.overhead_frac"] = 1 - pps(passes)/pps(base)
	rep.note("%d spans recorded, %d kept for the dump", rec.next.Load(), len(rec.kept()))
	rep.attempted = len(calls)
	rep.note("untraced %.2f plans/s, traced %.2f plans/s", pps(base), pps(passes))
	return rep, dumpSpans(rec, "plan_stream", seed)
}
