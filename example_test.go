package rdlroute_test

import (
	"bytes"
	"fmt"

	"rdlroute"
)

// Generate one of the paper's benchmark circuits and inspect its Table-I
// statistics.
func ExampleGenerateBenchmark() {
	d, err := rdlroute.GenerateBenchmark("dense1")
	if err != nil {
		panic(err)
	}
	s := d.Stats()
	fmt.Printf("%s: %d chips, %d pads, %d nets, %d wire layers\n",
		s.Name, s.Chips, s.Q, s.N, s.WireLayers)
	// Output:
	// dense1: 2 chips, 44 pads, 22 nets, 3 wire layers
}

// Route a benchmark with the paper's five-stage flow and check the rules.
func ExampleRoute() {
	d, err := rdlroute.GenerateBenchmark("dense1")
	if err != nil {
		panic(err)
	}
	res, err := rdlroute.Route(d, rdlroute.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("routability %.0f%%\n", res.Routability)
	fmt.Printf("violations %d\n", len(rdlroute.Check(res.Layout)))
	// Output:
	// routability 100%
	// violations 0
}

// Compare against the Lin-ext baseline on the same instance.
func ExampleRouteLinExt() {
	d, err := rdlroute.GenerateBenchmark("dense1")
	if err != nil {
		panic(err)
	}
	res, err := rdlroute.RouteLinExt(d, rdlroute.DefaultBaselineOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("baseline routed %d of %d nets\n", res.RoutedNets, res.TotalNets)
	// Output:
	// baseline routed 22 of 22 nets
}

// Build a congestion map of a routed layout.
func ExampleBuildCongestion() {
	d, err := rdlroute.GenerateBenchmark("dense1")
	if err != nil {
		panic(err)
	}
	res, err := rdlroute.Route(d, rdlroute.DefaultOptions())
	if err != nil {
		panic(err)
	}
	m := rdlroute.BuildCongestion(res.Layout, 16)
	_, _, peak := m.Peak(0)
	fmt.Printf("top-layer peak utilization below 1: %v\n", peak < 1)
	// Output:
	// top-layer peak utilization below 1: true
}

// Save a routing result as an rdl-result/v1 document and reload it
// against its design for verification.
func ExampleEncodeResultJSON() {
	d, err := rdlroute.GenerateBenchmark("dense1")
	if err != nil {
		panic(err)
	}
	res, err := rdlroute.Route(d, rdlroute.DefaultOptions())
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := rdlroute.EncodeResultJSON(&buf, res); err != nil {
		panic(err)
	}
	again, err := rdlroute.DecodeResultJSON(&buf, d)
	if err != nil {
		panic(err)
	}
	fmt.Printf("reloaded %d nets, still clean: %v\n",
		again.Layout.RoutedCount(), len(rdlroute.Check(again.Layout)) == 0)
	// Output:
	// reloaded 22 nets, still clean: true
}
