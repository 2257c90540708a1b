package plancache_test

import (
	"testing"

	"distredge/internal/cnn"
	"distredge/internal/experiments"
	"distredge/internal/plancache"
	"distredge/internal/sim"
)

func benchEnv(bw float64) *sim.Env {
	return experiments.DeviceGroups()[1].Spec(cnn.VGG16(), bw, 1).Env()
}

// BenchmarkPlannerService measures plans/sec through Cache.Plan, the
// planner service, in its three regimes: cold (empty cache, full LC-PSS +
// OSDS search), exact (recurring fleet signature, pure cache retrieval) and
// warm (near-miss signature, half-budget search seeded from the nearest
// cached neighbour). BENCH_baseline.json records the headline ratios.
func BenchmarkPlannerService(b *testing.B) {
	bud := experiments.Tiny()
	key := experiments.PlanKey(bud, 0.75)
	planner := experiments.Planner(bud, 0.75)

	b.Run("cold", func(b *testing.B) {
		env := benchEnv(100)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := plancache.New(0).Plan(env, nil, key, planner)
			if err != nil {
				b.Fatal(err)
			}
			if res.Outcome != plancache.OutcomeCold {
				b.Fatalf("outcome %s, want cold", res.Outcome)
			}
		}
	})

	b.Run("exact", func(b *testing.B) {
		env := benchEnv(100)
		cache := plancache.New(0)
		if _, err := cache.Plan(env, nil, key, planner); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := cache.Plan(env, nil, key, planner)
			if err != nil {
				b.Fatal(err)
			}
			if res.Outcome != plancache.OutcomeHit {
				b.Fatalf("outcome %s, want hit", res.Outcome)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		donorEnv := benchEnv(100)
		env := benchEnv(70) // one half-octave bucket below: a near miss
		donor, err := plancache.New(0).Plan(donorEnv, nil, key, planner)
		if err != nil {
			b.Fatal(err)
		}
		sig := plancache.SignatureOf(donorEnv, nil, key)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache := plancache.New(0)
			cache.Put(sig, donor.Strategy, donor.Score)
			res, err := cache.Plan(env, nil, key, planner)
			if err != nil {
				b.Fatal(err)
			}
			if res.Outcome != plancache.OutcomeWarm {
				b.Fatalf("outcome %s, want warm", res.Outcome)
			}
		}
	})
}
