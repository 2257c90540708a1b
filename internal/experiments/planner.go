package experiments

import (
	"fmt"
	"strconv"

	"distredge/internal/cnn"
	"distredge/internal/plancache"
	"distredge/internal/sim"
	"distredge/internal/strategy"
)

// Planner adapts PlanObjective to the plan cache's Planner contract: cold
// requests run the full search, warm-started ones the seeded search on half
// the episode budget. Callers key its plans under PlanKey(b, alpha).
func Planner(b Budget, alpha float64) plancache.Planner {
	return func(env *sim.Env, obj sim.Objective, init *strategy.Strategy) (*strategy.Strategy, error) {
		return PlanObjective(env, b, alpha, obj, init)
	}
}

// PlanKey canonically names the parameters PlanObjective searches under —
// the LC-PSS α and the budget's search shape — for the plan cache's
// Signature.Params. The seed and the worker count are left out: the seed
// picks one of equally valid searches (as the link jitter the signature
// buckets away picks one of equally valid fleets), and workers never
// change a plan.
func PlanKey(b Budget, alpha float64) string {
	return fmt.Sprintf("a%s/e%d/h%v/b%d/r%d",
		strconv.FormatFloat(alpha, 'g', -1, 64), b.Episodes, b.Hidden, b.Batch, b.RandomSplits)
}

// PlannerRow is one planning of the planner-service sweep (fig planner).
type PlannerRow struct {
	Phase   string // "cold", "exact" or "warm"
	Fleet   string
	Outcome plancache.Outcome
	SeedKey string  // warm-start donor signature ("" unless warm)
	Score   float64 // objective score of the served plan (s/img)
	// ColdScore is what a full cold planning of this same fleet scores —
	// filled in the warm phase only, to quantify the warm-start quality
	// delta (Score/ColdScore <= 1 means equal or better).
	ColdScore float64
}

// Planner sweep phase names.
const (
	PlannerPhaseCold  = "cold"
	PlannerPhaseExact = "exact"
	PlannerPhaseWarm  = "warm"
)

// seedEntry is one cold-phase product, re-used to seed later phases.
type seedEntry struct {
	sig   plancache.Signature
	strat *strategy.Strategy
	score float64
}

// PlannerSweep drives the three phases of the planner-service benchmark on a
// fixed fleet corpus (Group DB — Xavier x2 + Nano x2 — on VGG16 at four
// bandwidth tiers, plus four off-tier neighbour fleets):
//
//   - Cold plans each corpus fleet through a fresh, empty cache — every
//     planning runs the full search;
//   - Exact re-plans the same fleets through one cache that holds the cold
//     corpus — every planning is an exact signature hit;
//   - Warm plans the neighbour fleets (same devices, bandwidth tiers chosen
//     to land in buckets the corpus does not occupy) against the cold
//     corpus — every planning warm-starts from its nearest corpus entry.
//
// The phases are separate methods so cmd/distbench can wall-clock each one
// into a plans/sec figure. Rows are deterministic for any Budget.Parallel:
// warm plannings each see the identical pre-seeded corpus (never each
// other's fresh results), so concurrency cannot change which donor seeds
// which fleet.
type PlannerSweep struct {
	b       Budget
	alpha   float64
	key     string // PlanKey(b, alpha)
	planner plancache.Planner
	seeds   []seedEntry
	stats   plancache.Stats
}

// NewPlannerSweep builds the sweep harness on the given budget.
func NewPlannerSweep(b Budget, alpha float64) *PlannerSweep {
	if alpha <= 0 {
		alpha = 0.75
	}
	return &PlannerSweep{b: b, alpha: alpha, key: PlanKey(b, alpha), planner: Planner(b, alpha)}
}

// plannerSpecs returns the sweep's fleet corpus. The bandwidth tiers sit in
// distinct half-octave buckets (100, 140, 200, 280 Mbps → buckets 13-16),
// and the warm-phase neighbours (48, 70, 340, 480 Mbps → buckets 11, 12,
// 17, 18) neither collide with the corpus nor with each other — so exact
// hits are exact, and warm plannings are near misses, by construction.
func plannerSpecs(seed int64) (cold, warm []Spec) {
	group := DeviceGroups()[1] // DB: Xavier x2 + Nano x2
	m := cnn.VGG16()
	for _, bw := range []float64{100, 140, 200, 280} {
		cold = append(cold, group.Spec(m, bw, seed))
	}
	for _, bw := range []float64{48, 70, 340, 480} {
		warm = append(warm, group.Spec(m, bw, seed))
	}
	return cold, warm
}

// Cold runs the cold phase: each corpus fleet planned through a fresh,
// empty cache. The results become the seed corpus for the Exact and Warm
// phases.
func (ps *PlannerSweep) Cold() ([]PlannerRow, error) {
	cold, _ := plannerSpecs(ps.b.Seed)
	rows := make([]PlannerRow, len(cold))
	seeds := make([]seedEntry, len(cold))
	stats := make([]plancache.Stats, len(cold))
	err := runIndexed(len(cold), ps.b.Workers(), func(i int) error {
		spec := cold[i]
		cache := plancache.New(0)
		env := spec.Env()
		res, err := cache.Plan(env, nil, ps.key, ps.planner)
		if err != nil {
			return fmt.Errorf("experiments: planner sweep cold %s: %w", spec.Name, err)
		}
		rows[i] = PlannerRow{Phase: PlannerPhaseCold, Fleet: spec.Name, Outcome: res.Outcome, Score: res.Score}
		seeds[i] = seedEntry{sig: plancache.SignatureOf(env, nil, ps.key), strat: res.Strategy, score: res.Score}
		stats[i] = cache.Stats()
		return nil
	})
	if err != nil {
		return nil, err
	}
	ps.seeds = seeds
	for _, s := range stats {
		ps.addStats(s)
	}
	return rows, nil
}

// corpus returns a fresh cache holding every cold-phase plan.
func (ps *PlannerSweep) corpus() *plancache.Cache {
	cache := plancache.New(0)
	for _, s := range ps.seeds {
		cache.Put(s.sig, s.strat, s.score)
	}
	return cache
}

// Exact runs the exact-hit phase: the corpus fleets re-planned through one
// shared cache that already holds every corpus entry. Every planning must
// be an exact signature hit. Cold must have run first.
func (ps *PlannerSweep) Exact() ([]PlannerRow, error) {
	if len(ps.seeds) == 0 {
		return nil, fmt.Errorf("experiments: planner sweep: Exact before Cold")
	}
	cold, _ := plannerSpecs(ps.b.Seed)
	cache := ps.corpus()
	rows := make([]PlannerRow, len(cold))
	err := runIndexed(len(cold), ps.b.Workers(), func(i int) error {
		spec := cold[i]
		res, err := cache.Plan(spec.Env(), nil, ps.key, ps.planner)
		if err != nil {
			return fmt.Errorf("experiments: planner sweep exact %s: %w", spec.Name, err)
		}
		rows[i] = PlannerRow{Phase: PlannerPhaseExact, Fleet: spec.Name, Outcome: res.Outcome, Score: res.Score}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ps.addStats(cache.Stats())
	return rows, nil
}

// Warm runs the warm-start phase: each neighbour fleet planned through its
// own cache pre-seeded with the full cold corpus (and nothing else — so
// concurrent plannings cannot observe each other and rows stay
// deterministic). Every planning must warm-start. Cold must have run first.
// ColdScore is left zero — WarmReference fills it — so a caller can
// wall-clock this method into an honest warm plans/sec figure.
func (ps *PlannerSweep) Warm() ([]PlannerRow, error) {
	if len(ps.seeds) == 0 {
		return nil, fmt.Errorf("experiments: planner sweep: Warm before Cold")
	}
	_, warm := plannerSpecs(ps.b.Seed)
	rows := make([]PlannerRow, len(warm))
	stats := make([]plancache.Stats, len(warm))
	err := runIndexed(len(warm), ps.b.Workers(), func(i int) error {
		spec := warm[i]
		cache := ps.corpus()
		res, err := cache.Plan(spec.Env(), nil, ps.key, ps.planner)
		if err != nil {
			return fmt.Errorf("experiments: planner sweep warm %s: %w", spec.Name, err)
		}
		rows[i] = PlannerRow{
			Phase:   PlannerPhaseWarm,
			Fleet:   spec.Name,
			Outcome: res.Outcome,
			SeedKey: res.SeedKey,
			Score:   res.Score,
		}
		stats[i] = cache.Stats()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range stats {
		ps.addStats(s)
	}
	return rows, nil
}

// WarmReference cold-plans every warm-phase fleet at full budget and fills
// each row's ColdScore, so the warm rows carry the plan-quality delta
// (Score/ColdScore <= 1 means the warm-started half-budget search matched
// or beat the full cold search). Kept out of Warm so its wall-clock can be
// measured without the references.
func (ps *PlannerSweep) WarmReference(rows []PlannerRow) error {
	_, warm := plannerSpecs(ps.b.Seed)
	if len(rows) != len(warm) {
		return fmt.Errorf("experiments: planner sweep: WarmReference wants %d warm rows, got %d", len(warm), len(rows))
	}
	return runIndexed(len(warm), ps.b.Workers(), func(i int) error {
		spec := warm[i]
		env := spec.Env()
		coldStrat, err := PlanObjective(env, ps.b, ps.alpha, nil, nil)
		if err != nil {
			return fmt.Errorf("experiments: planner sweep warm %s (cold reference): %w", spec.Name, err)
		}
		coldScore, err := sim.DefaultObjective(nil).Score(env, coldStrat, 0)
		if err != nil {
			return err
		}
		rows[i].ColdScore = coldScore
		return nil
	})
}

// Stats returns the plan-cache counters aggregated across all phases run so
// far.
func (ps *PlannerSweep) Stats() plancache.Stats { return ps.stats }

func (ps *PlannerSweep) addStats(s plancache.Stats) {
	ps.stats.Hits += s.Hits
	ps.stats.Misses += s.Misses
	ps.stats.WarmHits += s.WarmHits
	ps.stats.Evictions += s.Evictions
}
