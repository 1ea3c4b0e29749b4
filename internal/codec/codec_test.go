package codec

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"rdlroute/internal/design"
	"rdlroute/internal/drc"
	"rdlroute/internal/router"
)

func genBench(t *testing.T, name string) *design.Design {
	t.Helper()
	spec, err := design.DenseSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDesignRoundTripGolden: encode → decode → encode must be byte-stable
// on every published benchmark and on a generated design with obstacles,
// fixed vias and chip-to-board nets, and the decoded design must be
// structurally identical to the original.
func TestDesignRoundTripGolden(t *testing.T) {
	ext := design.GenSpec{
		Name: "ext", Chips: 3, IOPads: 48, BumpPads: 64, WireLayers: 4, Seed: 17,
		BoardFrac: 0.25, Obstacles: 6, FixedVias: 8,
	}
	for _, spec := range append(design.DenseSuite(), ext) {
		t.Run(spec.Name, func(t *testing.T) {
			d, err := design.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			var first bytes.Buffer
			if err := EncodeDesign(&first, d); err != nil {
				t.Fatal(err)
			}
			got, err := DecodeDesign(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var second bytes.Buffer
			if err := EncodeDesign(&second, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("encode→decode→encode not byte-stable (%d vs %d bytes)",
					first.Len(), second.Len())
			}
			if got.Name != d.Name || len(got.Nets) != len(d.Nets) ||
				len(got.IOPads) != len(d.IOPads) || len(got.BumpPads) != len(d.BumpPads) ||
				got.WireLayers != d.WireLayers || got.Rules != d.Rules {
				t.Fatalf("decoded design differs: %+v vs %+v", got.Stats(), d.Stats())
			}
			for i := range d.Nets {
				if got.Nets[i] != d.Nets[i] {
					t.Fatalf("net %d differs: %+v vs %+v", i, got.Nets[i], d.Nets[i])
				}
			}
			if !reflect.DeepEqual(got.Obstacles, d.Obstacles) {
				t.Fatalf("obstacles differ: %+v vs %+v", got.Obstacles, d.Obstacles)
			}
			if !reflect.DeepEqual(got.FixedVias, d.FixedVias) {
				t.Fatalf("fixed vias differ: %+v vs %+v", got.FixedVias, d.FixedVias)
			}
			if spec.Name == ext.Name {
				board := 0
				for _, n := range d.Nets {
					if n.P2.Kind == design.BumpKind {
						board++
					}
				}
				if len(d.Obstacles) == 0 || len(d.FixedVias) == 0 || board == 0 {
					t.Fatalf("%s has %d obstacles, %d fixed vias, %d board nets; want all present",
						spec.Name, len(d.Obstacles), len(d.FixedVias), board)
				}
			}
		})
	}
}

// TestResultRoundTrip: a routed dense1 result survives the codec with its
// full layout geometry — the decoded layout re-checks DRC-clean and
// re-encoding is byte-stable once the (float-serialized) runtime is
// cleared.
func TestResultRoundTrip(t *testing.T) {
	d := genBench(t, "dense1")
	res, err := router.Route(d, router.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res.Runtime = 0
	var first bytes.Buffer
	if err := EncodeResult(&first, res); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(bytes.NewReader(first.Bytes()), d)
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := EncodeResult(&second, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("result encode→decode→encode not byte-stable")
	}
	if got.Routability != res.Routability || got.Wirelength != res.Wirelength ||
		got.RoutedNets != res.RoutedNets || got.TileCount != res.TileCount {
		t.Fatalf("metrics differ: %+v vs %+v", got, res)
	}
	if len(got.Layout.Routes) != len(res.Layout.Routes) || len(got.Layout.Vias) != len(res.Layout.Vias) {
		t.Fatalf("layout differs: %d/%d routes, %d/%d vias",
			len(got.Layout.Routes), len(res.Layout.Routes),
			len(got.Layout.Vias), len(res.Layout.Vias))
	}
	if v := drc.Check(got.Layout); len(v) != 0 {
		t.Fatalf("decoded layout has %d DRC violations; first: %v", len(v), v[0])
	}
}

func TestOptionsRoundTrip(t *testing.T) {
	// Every ordering-registry policy travels as its registry name.
	for i := 0; i < router.NumPolicies; i++ {
		opts := router.DefaultOptions()
		opts.OrderPolicy = i
		opts.RipUpRounds = 3
		opts.EnableLP = false
		var buf bytes.Buffer
		if err := EncodeOptions(&buf, opts); err != nil {
			t.Fatal(err)
		}
		name := router.PolicyName(i)
		if want := `"net_order": "` + name + `"`; !strings.Contains(buf.String(), want) {
			t.Errorf("policy %d: encoding lacks %s:\n%s", i, want, buf.String())
		}
		got, err := DecodeOptions(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("policy %s: %v", name, err)
		}
		if got != opts {
			t.Fatalf("policy %s: options differ:\n got %+v\nwant %+v", name, got, opts)
		}
	}
	// An empty options document decodes to the defaults.
	def, err := DecodeOptions(strings.NewReader(`{"schema":"rdl-options/v1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if def != router.DefaultOptions() {
		t.Fatalf("empty doc != defaults: %+v", def)
	}
}

// TestOptionsRemovedKeyIsNoOp pins the versioning rule for removed
// mechanisms: speculative stage 4, the settable lattice pitch and the
// ordering-portfolio race are gone, so their "speculative", "pitch" and
// "order_portfolio" keys are no longer encoded, and documents that still
// carry them decode exactly as if they were absent — including values
// the old decoder rejected (pitch −5, order_portfolio 17 and −1).
func TestOptionsRemovedKeyIsNoOp(t *testing.T) {
	for _, removed := range []struct{ key, val string }{
		{"speculative", "true"}, {"pitch", "9"}, {"pitch", "-5"},
		{"order_portfolio", "6"}, {"order_portfolio", "17"}, {"order_portfolio", "-1"},
	} {
		key, kv := removed.key, `"`+removed.key+`":`+removed.val
		got, err := DecodeOptions(strings.NewReader(`{"schema":"rdl-options/v1",` + kv + `}`))
		if err != nil {
			t.Fatal(err)
		}
		if got != router.DefaultOptions() {
			t.Fatalf("%s-only doc != defaults: %+v", key, got)
		}
		with, err := DecodeOptions(strings.NewReader(
			`{"schema":"rdl-options/v1","net_order":"congested",` + kv + `,"ripup_rounds":2}`))
		if err != nil {
			t.Fatal(err)
		}
		without, err := DecodeOptions(strings.NewReader(
			`{"schema":"rdl-options/v1","net_order":"congested","ripup_rounds":2}`))
		if err != nil {
			t.Fatal(err)
		}
		if with != without {
			t.Fatalf("%s key changed the decode:\n with %+v\n without %+v", key, with, without)
		}
		var buf bytes.Buffer
		if err := EncodeOptions(&buf, with); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(buf.String(), `"`+key+`"`) {
			t.Fatalf("encoding still writes the removed key %q:\n%s", key, buf.String())
		}
	}
}

// wantErr asserts err is a *Error of the given kind whose path contains
// the fragment.
func wantErr(t *testing.T, err error, kind Kind, pathFrag string) {
	t.Helper()
	if err == nil {
		t.Fatal("decode succeeded, want typed error")
	}
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("err %T (%v) is not a *codec.Error", err, err)
	}
	if ce.Kind != kind {
		t.Fatalf("kind = %v, want %v (err: %v)", ce.Kind, kind, ce)
	}
	if !strings.Contains(ce.Path, pathFrag) {
		t.Fatalf("path %q does not contain %q (err: %v)", ce.Path, pathFrag, ce)
	}
}

func TestDecodeMalformed(t *testing.T) {
	// Unknown schema version.
	_, err := DecodeDesign(strings.NewReader(`{"schema":"rdl-design/v99"}`))
	wantErr(t, err, KindSchema, "schema")

	// Missing schema field entirely.
	_, err = DecodeDesign(strings.NewReader(`{"name":"x"}`))
	wantErr(t, err, KindSchema, "schema")

	// Not JSON at all.
	_, err = DecodeDesign(strings.NewReader(`{"schema": "rdl-design/v1", `))
	wantErr(t, err, KindSyntax, "$")

	// Wrong JSON type for a field.
	_, err = DecodeDesign(strings.NewReader(`{"schema":"rdl-design/v1","wire_layers":"two"}`))
	wantErr(t, err, KindSyntax, "wire_layers")

	valid := func() string {
		var buf bytes.Buffer
		if err := EncodeDesign(&buf, genBench(t, "dense1")); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}()

	// Dangling PadRef: point net 0's p1 past the io pad table.
	dangling := strings.Replace(valid, `"p1": {
        "kind": "io",
        "index": 0
      }`, `"p1": {
        "kind": "io",
        "index": 99999
      }`, 1)
	if dangling == valid {
		t.Fatal("fixture edit did not apply")
	}
	_, err = DecodeDesign(strings.NewReader(dangling))
	wantErr(t, err, KindValidate, "p1.index")

	// Unknown pad kind string.
	badKind := strings.Replace(valid, `"kind": "io"`, `"kind": "donut"`, 1)
	_, err = DecodeDesign(strings.NewReader(badKind))
	wantErr(t, err, KindValidate, "kind")

	// Overlapping pads: a design whose two bump pads violate spacing
	// decodes structurally but fails design validation.
	overlap := `{
	  "schema": "rdl-design/v1",
	  "name": "overlap",
	  "outline": [0, 0, 1000, 1000],
	  "wire_layers": 2,
	  "rules": {"spacing": 10, "wire_width": 4, "via_width": 8},
	  "bump_pads": [
	    {"id": 0, "center": [100, 100], "w": 40},
	    {"id": 1, "center": [110, 100], "w": 40}
	  ]
	}`
	_, err = DecodeDesign(strings.NewReader(overlap))
	wantErr(t, err, KindValidate, "$")
	if !strings.Contains(err.Error(), "spacing") {
		t.Fatalf("overlap error does not mention spacing: %v", err)
	}

	// Malformed options: unknown net order.
	_, err = DecodeOptions(strings.NewReader(`{"schema":"rdl-options/v1","net_order":"random"}`))
	wantErr(t, err, KindValidate, "net_order")

	// Malformed options: a negative via cost (it would make vias cheaper
	// than wire) or LP iteration bound (it would skip stage 5 silently).
	_, err = DecodeOptions(strings.NewReader(`{"schema":"rdl-options/v1","via_cost":-100}`))
	wantErr(t, err, KindValidate, "via_cost")
	_, err = DecodeOptions(strings.NewReader(`{"schema":"rdl-options/v1","lp_max_iters":-1}`))
	wantErr(t, err, KindValidate, "lp_max_iters")

	// Result against the wrong design.
	d := genBench(t, "dense1")
	res, rerr := router.Route(d, router.DefaultOptions())
	if rerr != nil {
		t.Fatal(rerr)
	}
	var rbuf bytes.Buffer
	if err := EncodeResult(&rbuf, res); err != nil {
		t.Fatal(err)
	}
	d2 := genBench(t, "dense2")
	_, err = DecodeResult(bytes.NewReader(rbuf.Bytes()), d2)
	wantErr(t, err, KindValidate, "design")

	// Result with an out-of-range net.
	broken := strings.Replace(rbuf.String(), `"net": 0,`, `"net": 123456,`, 1)
	_, err = DecodeResult(strings.NewReader(broken), d)
	wantErr(t, err, KindValidate, "net")
}
