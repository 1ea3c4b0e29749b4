package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"rdlroute/internal/design"
	"rdlroute/internal/router"
)

// PortfolioRow is one circuit's ordering-portfolio experiment: the
// default single-policy flow versus the same flow racing the first K
// registry policies, plus the byte-identity check against a solo run
// pinned to the policy the race selected.
type PortfolioRow struct {
	Name     string `json:"circuit"`
	Policies int    `json:"policies"`

	// The single-policy baseline: the flow exactly as Table I runs it
	// (policy 0, shortest-first).
	SoloRoutability float64 `json:"solo_routability"`
	SoloWirelength  float64 `json:"solo_wirelength"`
	SoloSeconds     float64 `json:"solo_seconds"`

	// The portfolio run. Seconds includes the whole race, so the column
	// prices the quality gain honestly.
	PortRoutability float64 `json:"portfolio_routability"`
	PortWirelength  float64 `json:"portfolio_wirelength"`
	PortSeconds     float64 `json:"portfolio_seconds"`

	Winner     int    `json:"winner"`
	WinnerName string `json:"winner_name"`
	// RoutedDelta is the portfolio run's routed-net gain over the
	// single-policy baseline (0 when policy 0 wins the race).
	RoutedDelta int `json:"routed_delta"`

	// Candidates are the race's per-policy scores (post-rip-up, pre-LP).
	Candidates []router.PolicyScore `json:"candidates"`

	// Deterministic reports the winner-equals-solo contract measured, not
	// assumed: a fresh solo run pinned to the winning policy reproduced
	// the portfolio run's lattice fingerprint, routability and wirelength.
	Deterministic bool `json:"deterministic"`
}

// RunPortfolio routes each named circuit three times — the single-policy
// baseline, the K-policy portfolio, and a solo replay of the race's
// winner for the byte-identity check. Runs are never overlapped: the
// solo-vs-portfolio seconds are the experiment's cost axis and
// overlapping would corrupt them.
func RunPortfolio(names []string, k int) ([]PortfolioRow, error) {
	var rows []PortfolioRow
	for _, name := range names {
		spec, err := design.DenseSpec(name)
		if err != nil {
			return nil, err
		}
		gen := func() (*design.Design, error) { return design.Generate(spec) }

		d, err := gen()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		solo, err := router.Route(d, routerOptions())
		if err != nil {
			return nil, err
		}
		soloSec := time.Since(start).Seconds()

		if d, err = gen(); err != nil {
			return nil, err
		}
		popts := routerOptions()
		popts.OrderPortfolio = k
		start = time.Now()
		port, pfp, err := router.RouteFingerprint(context.Background(), d, popts)
		if err != nil {
			return nil, err
		}
		portSec := time.Since(start).Seconds()
		if port.Portfolio == nil {
			return nil, fmt.Errorf("bench: %s: portfolio run returned no report", name)
		}

		if d, err = gen(); err != nil {
			return nil, err
		}
		wopts := router.WithOrderPolicy(routerOptions(), port.Portfolio.Winner)
		replay, rfp, err := router.RouteFingerprint(context.Background(), d, wopts)
		if err != nil {
			return nil, err
		}

		rows = append(rows, PortfolioRow{
			Name:            name,
			Policies:        k,
			SoloRoutability: solo.Routability,
			SoloWirelength:  solo.Wirelength,
			SoloSeconds:     soloSec,
			PortRoutability: port.Routability,
			PortWirelength:  port.Wirelength,
			PortSeconds:     portSec,
			Winner:          port.Portfolio.Winner,
			WinnerName:      port.Portfolio.WinnerName,
			RoutedDelta:     port.RoutedNets - solo.RoutedNets,
			Candidates:      port.Portfolio.Candidates,
			Deterministic: pfp == rfp &&
				port.Routability == replay.Routability &&
				port.Wirelength == replay.Wirelength,
		})
	}
	return rows, nil
}

// FormatPortfolio renders the portfolio rows as a fixed-width table.
func FormatPortfolio(rows []PortfolioRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s | %7s %12s %8s | %7s %12s %8s | %-10s %6s %5s\n",
		"Circuit", "Policies", "Solo R", "Solo WL", "Solo t",
		"Port R", "Port WL", "Port t", "Winner", "ΔNets", "Det")
	for _, r := range rows {
		det := "yes"
		if !r.Deterministic {
			det = "NO"
		}
		fmt.Fprintf(&b, "%-8s %8d | %6.1f%% %12.0f %7.2fs | %6.1f%% %12.0f %7.2fs | %-10s %+6d %5s\n",
			r.Name, r.Policies,
			r.SoloRoutability, r.SoloWirelength, r.SoloSeconds,
			r.PortRoutability, r.PortWirelength, r.PortSeconds,
			r.WinnerName, r.RoutedDelta, det)
	}
	return b.String()
}
