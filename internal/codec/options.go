package codec

import (
	"io"

	"rdlroute/internal/fanout"
	"rdlroute/internal/router"
)

// Wire representation of router options. Every field is optional: absent
// fields keep their router.DefaultOptions value, so an empty document
// decodes to the paper's experimental configuration. Booleans use
// pointers to distinguish "absent" from "false". Unknown keys are
// ignored, so the key of a removed option ("speculative", "pitch",
// "order_portfolio") still decodes, as a no-op.
type optionsDoc struct {
	Schema         string      `json:"schema"`
	Weights        *weightsDoc `json:"weights,omitempty"`
	GlobalCells    *int        `json:"global_cells,omitempty"`
	ViaCost        *float64    `json:"via_cost,omitempty"`
	UseWeights     *bool       `json:"use_weights,omitempty"`
	EnableLP       *bool       `json:"enable_lp,omitempty"`
	EnableVias     *bool       `json:"enable_vias,omitempty"`
	EnableStage2   *bool       `json:"enable_stage2,omitempty"`
	PeripheralDist *int64      `json:"peripheral_dist,omitempty"`
	LPMaxIters     *int        `json:"lp_max_iters,omitempty"`
	RipUpRounds    *int        `json:"ripup_rounds,omitempty"`
	NetOrder       string      `json:"net_order,omitempty"` // ordering-registry policy name
	Workers        *int        `json:"workers,omitempty"`   // 0 = GOMAXPROCS
}

type weightsDoc struct {
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	Gamma float64 `json:"gamma"`
	Delta float64 `json:"delta"`
}

// EncodeOptions writes opts as an rdl-options/v1 JSON document. Fields
// matching the defaults are still written, so a decoded copy is exact even
// if the defaults change later. The Tracer is not part of the wire format.
func EncodeOptions(w io.Writer, opts router.Options) error {
	doc := optionsDoc{
		Schema: OptionsSchema,
		Weights: &weightsDoc{
			Alpha: opts.Weights.Alpha, Beta: opts.Weights.Beta,
			Gamma: opts.Weights.Gamma, Delta: opts.Weights.Delta,
		},
		GlobalCells:    &opts.GlobalCells,
		ViaCost:        &opts.ViaCost,
		UseWeights:     &opts.UseWeights,
		EnableLP:       &opts.EnableLP,
		EnableVias:     &opts.EnableVias,
		EnableStage2:   &opts.EnableStage2,
		PeripheralDist: &opts.PeripheralDist,
		LPMaxIters:     &opts.LPMaxIters,
		RipUpRounds:    &opts.RipUpRounds,
		NetOrder:       router.PolicyName(opts.OrderPolicy),
		Workers:        &opts.Workers,
	}
	return writeDoc(w, OptionsSchema, doc)
}

// optionsFromDoc overlays the document on the defaults.
func optionsFromDoc(doc optionsDoc) (router.Options, error) {
	opts := router.DefaultOptions()
	if doc.Weights != nil {
		opts.Weights = fanout.WeightParams{
			Alpha: doc.Weights.Alpha, Beta: doc.Weights.Beta,
			Gamma: doc.Weights.Gamma, Delta: doc.Weights.Delta,
		}
	}
	if doc.GlobalCells != nil {
		if *doc.GlobalCells < 1 {
			return opts, invalidf(OptionsSchema, "global_cells", "must be >= 1, got %d", *doc.GlobalCells)
		}
		opts.GlobalCells = *doc.GlobalCells
	}
	if doc.ViaCost != nil {
		if *doc.ViaCost < 0 {
			return opts, invalidf(OptionsSchema, "via_cost", "must be >= 0, got %g", *doc.ViaCost)
		}
		opts.ViaCost = *doc.ViaCost
	}
	if doc.UseWeights != nil {
		opts.UseWeights = *doc.UseWeights
	}
	if doc.EnableLP != nil {
		opts.EnableLP = *doc.EnableLP
	}
	if doc.EnableVias != nil {
		opts.EnableVias = *doc.EnableVias
	}
	if doc.EnableStage2 != nil {
		opts.EnableStage2 = *doc.EnableStage2
	}
	if doc.PeripheralDist != nil {
		opts.PeripheralDist = *doc.PeripheralDist
	}
	if doc.LPMaxIters != nil {
		if *doc.LPMaxIters < 0 {
			return opts, invalidf(OptionsSchema, "lp_max_iters", "must be >= 0, got %d", *doc.LPMaxIters)
		}
		opts.LPMaxIters = *doc.LPMaxIters
	}
	if doc.RipUpRounds != nil {
		if *doc.RipUpRounds < 0 {
			return opts, invalidf(OptionsSchema, "ripup_rounds", "must be >= 0, got %d", *doc.RipUpRounds)
		}
		opts.RipUpRounds = *doc.RipUpRounds
	}
	if doc.Workers != nil {
		if *doc.Workers < 0 {
			return opts, invalidf(OptionsSchema, "workers", "must be >= 0, got %d", *doc.Workers)
		}
		opts.Workers = *doc.Workers
	}
	if doc.NetOrder != "" {
		i, ok := policyIndex(doc.NetOrder)
		if !ok {
			return opts, invalidf(OptionsSchema, "net_order",
				"unknown order %q (want an ordering-registry name: shortest, longest, congested, detour, boundary or shuffle0..shuffle%d)",
				doc.NetOrder, router.NumPolicies-router.NamedPolicies-1)
		}
		opts.OrderPolicy = i
	}
	return opts, nil
}

// policyIndex maps an ordering-registry policy name to its index.
func policyIndex(name string) (int, bool) {
	for i := 0; i < router.NumPolicies; i++ {
		if router.PolicyName(i) == name {
			return i, true
		}
	}
	return 0, false
}

// DecodeOptions reads an rdl-options/v1 document, overlaying it on
// router.DefaultOptions.
func DecodeOptions(r io.Reader) (router.Options, error) {
	var doc optionsDoc
	if err := decodeDoc(r, OptionsSchema, &doc); err != nil {
		return router.DefaultOptions(), err
	}
	return optionsFromDoc(doc)
}
