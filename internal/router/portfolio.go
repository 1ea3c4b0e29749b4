package router

import (
	"context"

	"rdlroute/internal/ctile"
	"rdlroute/internal/design"
	"rdlroute/internal/lattice"
	"rdlroute/internal/layout"
	"rdlroute/internal/obs"
	"rdlroute/internal/par"
)

// PortfolioReport describes one ordering-portfolio race: which policy
// won and how every candidate scored. It is diagnostic output (carried
// on Result, never serialized in rdl-result/v1).
type PortfolioReport struct {
	// Winner is the registry index of the policy replayed on the real
	// lattice; WinnerName is its registry name.
	Winner     int    `json:"winner"`
	WinnerName string `json:"winner_name"`
	// Candidates holds one score per raced policy, indexed by registry
	// policy index.
	Candidates []PolicyScore `json:"candidates"`
}

// PolicyScore is one candidate's outcome on its scratch state: the nets
// it routed (after rip-up, when enabled) and the wirelength it paid.
// The JSON tags serve diagnostic embeddings (the rdlbench report); the
// rdl-result/v1 wire format still excludes the whole report.
type PolicyScore struct {
	Policy     int     `json:"policy"`
	Name       string  `json:"name"`
	Routed     int     `json:"routed"`
	Wirelength float64 `json:"wirelength"`
}

// portfolioRoute is the stage-4 racing scheduler. It runs the first
// opts.OrderPortfolio registry policies through the full stage-4 loop —
// plus the rip-up extension, when enabled, so candidates are scored on
// the same final routability a solo run would report — each on its own
// scratch clone of the post-stage-3 lattice, corridor model and layout,
// fanned out across the worker pool. A fixed total rule picks the winner
// (routed nets desc, wirelength asc, lowest policy index), and only the
// winner is replayed on the real lattice with the real tracer attached —
// the race itself is silent and side-effect-free, which is what makes the
// portfolio run byte-identical to a solo run of the winning policy at any
// worker count.
//
// The winner's registry index is returned so the caller can pin the rest
// of the flow (the real rip-up rounds) to the same ordering the winning
// candidate used.
func portfolioRoute(ctx context.Context, d *design.Design, model *ctile.Model, sites []ctile.ViaSite, la *lattice.Lattice, lay *layout.Layout, opts Options, res *Result, tr obs.Tracer) (int, error) {
	k := opts.OrderPortfolio
	scores := make([]PolicyScore, k)
	nop := obs.Nop()
	err := par.ForEach(ctx, opts.Workers, k, func(i int) error {
		// Candidates run single-worker and unobserved: Workers=1 keeps a
		// candidate's inner fan-outs off the already-saturated pool, and a
		// nil tracer means the race leaves no trace — only the winner's
		// replay emits one.
		copts := WithOrderPolicy(opts, i)
		copts.Workers = 1
		copts.Tracer = nil

		la2 := la.CloneScratch()
		lay2 := lay.Clone()
		model2 := model.CloneScratch()
		r2 := &Result{Layout: lay2, TotalNets: len(d.Nets)}
		if err := sequentialRoute(ctx, d, model2, sites, la2, lay2, copts, r2, nop); err != nil {
			return err
		}
		if copts.RipUpRounds > 0 {
			_, _ = ripUpReroute(ctx, d, la2, lay2, copts, copts.RipUpRounds, nop)
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		scores[i] = PolicyScore{
			Policy:     i,
			Name:       PortfolioPolicyName(i),
			Routed:     lay2.RoutedCount(),
			Wirelength: lay2.Wirelength(),
		}
		return nil
	})
	if err != nil {
		return 0, err
	}

	// Winner rule: routed nets desc, wirelength asc, lowest policy index.
	// Scanning in index order with strict-improvement comparisons makes
	// the lowest index win every tie, independent of race scheduling.
	win := 0
	for i := 1; i < k; i++ {
		if scores[i].Routed != scores[win].Routed {
			if scores[i].Routed > scores[win].Routed {
				win = i
			}
			continue
		}
		if scores[i].Wirelength < scores[win].Wirelength {
			win = i
		}
	}

	tr.Count("portfolio.raced", 1)
	tr.Count("portfolio.candidates", int64(k))
	tr.Count("portfolio.winner_index", int64(win))
	tr.Count("portfolio.routed_delta", int64(scores[win].Routed-scores[0].Routed))
	res.Portfolio = &PortfolioReport{
		Winner:     win,
		WinnerName: PortfolioPolicyName(win),
		Candidates: scores,
	}

	// Replay the winner on the real state with the real tracer — the one
	// place the race touches the caller's lattice, model and layout.
	return win, sequentialRoute(ctx, d, model, sites, la, lay, WithOrderPolicy(opts, win), res, tr)
}
