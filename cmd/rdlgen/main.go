// Command rdlgen generates synthetic InFO routing benchmarks as
// rdl-design/v1 JSON documents, including the five Table-I circuits
// (dense1..dense5). Route the file with rdlroute -design and check the
// result with rdlverify -design.
//
// Usage:
//
//	rdlgen -name dense3 -o dense3.json
//	rdlgen -chips 4 -iopads 120 -bumps 400 -layers 5 -seed 9 > custom.json
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"rdlroute"
)

func main() {
	var (
		name   = flag.String("name", "", "benchmark name (dense1..dense5); overrides the custom flags")
		chips  = flag.Int("chips", 2, "number of chips")
		iopads = flag.Int("iopads", 44, "number of I/O pads (|Q|); nets are |Q|/2 pairs")
		bumps  = flag.Int("bumps", 324, "number of bump pads (|G|)")
		layers = flag.Int("layers", 3, "number of wire layers (|L_w|)")
		seed   = flag.Int64("seed", 1, "generator seed")
		out    = flag.String("o", "", "output file (default stdout)")
		logFmt = flag.String("log-format", "text", "stats line format on stderr: text or json (json emits a structured slog record)")
	)
	flag.Parse()

	var d *rdlroute.Design
	var err error
	if *name != "" {
		d, err = rdlroute.GenerateBenchmark(*name)
	} else {
		d, err = rdlroute.Generate(rdlroute.GenSpec{
			Name:       fmt.Sprintf("custom-%d", *seed),
			Chips:      *chips,
			IOPads:     *iopads,
			BumpPads:   *bumps,
			WireLayers: *layers,
			Seed:       *seed,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdlgen:", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rdlgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := rdlroute.EncodeDesignJSON(w, d); err != nil {
		fmt.Fprintln(os.Stderr, "rdlgen:", err)
		os.Exit(1)
	}
	s := d.Stats()
	if *logFmt == "json" {
		logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
		logger.Info("design generated", "name", s.Name, "chips", s.Chips,
			"io_pads", s.Q, "bump_pads", s.G, "nets", s.N,
			"wire_layers", s.WireLayers, "via_layers", s.ViaLayers)
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %d chips, |Q|=%d, |G|=%d, |N|=%d, |Lw|=%d, |Lv|=%d\n",
		s.Name, s.Chips, s.Q, s.G, s.N, s.WireLayers, s.ViaLayers)
}
