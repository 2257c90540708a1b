package experiments

import (
	"fmt"

	"distredge/internal/sim"
)

// GatewayRow is one cell of the gateway admission-policy sweep: one
// tenant's latency distribution when a case's strategy serves every
// tenant's backlog at once under the given policy.
type GatewayRow struct {
	Case      string
	Policy    string // sim.AdmitFIFO or sim.AdmitWFQ
	Tenant    string
	Weight    float64
	Images    int
	IPS       float64 // whole-stream rate (all tenants), repeated per row
	MeanLatMS float64 // enqueue-to-completion
	P95LatMS  float64
	SLOMet    bool // P95LatMS <= sloMS (true when no bound was given)
}

// DefaultTenants is the canonical serving mix the gateway figure and the
// CLI default to: a heavy tenant whose burst would monopolise a FIFO
// queue, and a small high-weight tenant whose p95 is the SLO story.
func DefaultTenants() []sim.TenantSpec {
	return []sim.TenantSpec{
		{Name: "heavy", Images: 24, Weight: 1},
		{Name: "small", Images: 4, Weight: 4},
	}
}

// FigGateway sweeps the multi-tenant admission policies offline: for each
// objective-sweep case it plans a strategy, replays every tenant's backlog
// through sim.Env.Serve under FIFO and weighted fair queueing, and
// reports each tenant's enqueue-to-completion latency distribution —
// the offline evidence that fair queueing buys the small tenant its p95
// back at negligible cost to the heavy one, validated differentially on
// the shaped runtime by the gateway tests. sloMS > 0 additionally marks
// which rows meet a p95 bound. Cases run on the budget's worker pool; rows
// are deterministic for any worker count.
func FigGateway(b Budget, tenants []sim.TenantSpec, window int, sloMS float64) ([]GatewayRow, error) {
	if len(tenants) == 0 {
		tenants = DefaultTenants()
	}
	if window <= 0 {
		window = 4
	}
	cases := objectiveCases(b.Seed)
	policies := []string{sim.AdmitFIFO, sim.AdmitWFQ}
	perCase := make([][]GatewayRow, len(cases))
	err := runIndexed(len(cases), b.Workers(), func(ci int) error {
		c := cases[ci]
		env := c.env()
		strat, err := PlanObjective(env, b, 0.75, nil, nil)
		if err != nil {
			return fmt.Errorf("experiments: gateway sweep %s: %w", c.name, err)
		}
		var rows []GatewayRow
		for _, policy := range policies {
			res, err := env.Serve(strat, sim.ServeConfig{
				Tenants: tenants, Policy: policy, Window: window,
			})
			if err != nil {
				return fmt.Errorf("experiments: gateway sweep %s/%s: %w", c.name, policy, err)
			}
			for ti, tr := range res.Tenants {
				rows = append(rows, GatewayRow{
					Case:      c.name,
					Policy:    policy,
					Tenant:    tr.Name,
					Weight:    tenants[ti].Weight,
					Images:    tr.Images,
					IPS:       res.IPS,
					MeanLatMS: tr.MeanLatMS,
					P95LatMS:  tr.P95LatMS,
					SLOMet:    sloMS <= 0 || tr.P95LatMS <= sloMS,
				})
			}
		}
		perCase[ci] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []GatewayRow
	for _, rows := range perCase {
		out = append(out, rows...)
	}
	return out, nil
}
