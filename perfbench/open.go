package main

import (
	"math"
	"math/bits"
	"math/rand"
)

// ladderRates is the fixed offered-rate ladder slo_max_ips is read from:
// geometric steps of ladder.ratio, finer than the metric's bound.
func ladderRates(w serveSpec) []float64 {
	rates := make([]float64, w.Ladder.Points)
	for k := range rates {
		rates[k] = w.Ladder.BaseIPS * math.Pow(w.Ladder.Ratio, float64(k))
	}
	return rates
}

// ladderProbes is how many probes the binary search over the ladder takes
// at most.
func ladderProbes(w serveSpec) int { return bits.Len(uint(w.Ladder.Points)) }

// backlogGrowth is the share of a probe's second-half arrivals by which
// the requests outstanding may grow between the probe's middle and its
// end before the backlog counts as growing: a queue fed faster than it
// drains gains that much, while a momentary stall at the sampling instant
// leaves far less.
const backlogGrowth = 0.05

// sloMax binary-searches the ladder for the highest rate whose limit
// percentile, with failed, expired and late requests counted as misses,
// meets the latency limit without a growing backlog.
func (s *servingRun) sloMax(rng *rand.Rand, probeSec float64, rep *report) (float64, error) {
	w := s.w
	rates := ladderRates(w)
	lo, hi := -1, len(rates) // rates[lo] met the limit, rates[hi] did not
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		r, err := s.openLoop(rng, rates[mid], secondsDur(probeSec))
		if err != nil {
			return 0, err
		}
		pct := r.pct(w.LatencyLimit.Percentile)
		depthMid, depthEnd := r.backlog(0.4, 0.5), r.backlog(0.9, 1)
		growing := depthEnd-depthMid > backlogGrowth*rates[mid]*probeSec/2
		ok := pct <= w.LatencyLimit.MS && !growing
		rep.note("ladder %7.0f/s: p%g %8.3f ms, %d/%d missed, backlog %.0f→%.0f, pass %v",
			rates[mid], w.LatencyLimit.Percentile*100, pct, r.misses, r.generated, depthMid, depthEnd, ok)
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		return 0, nil
	}
	return rates[lo], nil
}

func runServeOpen(spec *benchSpec, seed int64, seconds float64, trace bool, chk *checks) (*report, error) {
	w := spec.ServeOpen
	ps, err := loadPinned(spec.Pinned, chk)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	// fixedRate warms the deployment up, then offers the fixed rate for
	// sec seconds.
	fixedRate := func(run *servingRun, rng *rand.Rand, sec float64) (*openResult, error) {
		if _, err := run.openLoop(rng, w.OfferedIPS, secondsDur(w.WarmupS)); err != nil {
			return nil, err
		}
		return run.openLoop(rng, w.OfferedIPS, secondsDur(sec))
	}
	if !trace {
		if err := ps.servingCommon(rep, w); err != nil {
			return nil, err
		}
		var fixed *openResult
		var slo float64
		fixedSec := seconds * w.FixedShare
		probeSec := (seconds - fixedSec) / float64(ladderProbes(w))
		if _, err := ps.phase(spec, w, nil, chk, func(run *servingRun) error {
			rng := rand.New(rand.NewSource(seed))
			var err error
			if fixed, err = fixedRate(run, rng, fixedSec); err != nil {
				return err
			}
			// Peak memory at the stated rate, before the ladder's
			// overloaded probes queue thousands of requests.
			rep.metrics["peak_rss_mb"] = peakRSSMB()
			slo, err = run.sloMax(rng, probeSec, rep)
			return err
		}); err != nil {
			return nil, err
		}
		rep.metrics["sustained_per_s"] = slo
		rep.metrics["latency_p50_ms"] = fixed.pct(0.5)
		rep.metrics["latency_p90_ms"] = fixed.pct(0.9)
		rep.metrics["cpu_ms_per_op"] = msOf(fixed.proc.cpu) / float64(max(fixed.served, 1))
		rep.attempted, rep.failed = fixed.generated, fixed.misses
		rep.note("offered %.0f/s for %.1fs: throughput_ips %.1f, %d samples, windowed p99 %.3f ms, failed_frac %.4f, generator lag max %.2f ms",
			w.OfferedIPS, fixedSec, float64(fixed.served)/fixed.proc.wall.Seconds(), fixed.generated, fixed.pct(0.99),
			float64(fixed.misses)/float64(max(fixed.generated, 1)), fixed.maxLagMS)
		rep.note("slo_max_ips %.0f (p%g <= %g ms, %.2fs probes)", slo, w.LatencyLimit.Percentile*100, w.LatencyLimit.MS, probeSec)
		return rep, nil
	}
	measure := func(rec *tracer) (*servePhase, *openResult, error) {
		var res *openResult
		ph, err := ps.phase(spec, w, rec, chk, func(run *servingRun) error {
			var err error
			res, err = fixedRate(run, rand.New(rand.NewSource(seed)), seconds/2)
			return err
		})
		return ph, res, err
	}
	_, base, err := measure(nil)
	if err != nil {
		return nil, err
	}
	rec := newTracer()
	ph, res, err := measure(rec)
	if err != nil {
		return nil, err
	}
	ph.layerMetrics(rep, rec, res.enqLatMS, res.proc, res.served)
	p50 := func(r *openResult) float64 { return r.pct(0.5) }
	rep.metrics["trace.overhead_frac"] = p50(res)/p50(base) - 1
	rep.metrics["loadgen.lag_ms_max"] = res.maxLagMS
	rep.attempted, rep.failed = res.generated, res.misses
	rep.note("untraced p50 %.3f ms, traced p50 %.3f ms", p50(base), p50(res))
	return rep, dumpSpans(rec, "serve_open", seed)
}
