package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdlroute"
	"rdlroute/internal/qa"
)

// writeFiles routes the qa design of the seed and saves it to dir as an
// rdl-design/v1 document and its result as an rdl-result/v1 document,
// returning both paths and the result for further mutation.
func writeFiles(t *testing.T, dir string, seed int64) (designPath, routesPath string, res *rdlroute.Result) {
	t.Helper()
	d := qa.Generate(seed)
	res, err := rdlroute.Route(d, rdlroute.DefaultOptions())
	if err != nil {
		t.Fatalf("routing fixture design: %v", err)
	}
	designPath = filepath.Join(dir, "design.json")
	routesPath = filepath.Join(dir, "result.json")
	writeDesign(t, designPath, d)
	writeResult(t, routesPath, res)
	return designPath, routesPath, res
}

func writeDesign(t *testing.T, path string, d *rdlroute.Design) {
	t.Helper()
	var b bytes.Buffer
	if err := rdlroute.EncodeDesignJSON(&b, d); err != nil {
		t.Fatalf("encoding design: %v", err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeResult(t *testing.T, path string, res *rdlroute.Result) {
	t.Helper()
	var b bytes.Buffer
	if err := rdlroute.EncodeResultJSON(&b, res); err != nil {
		t.Fatalf("encoding result: %v", err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// corrupt duplicates one wire polyline onto a different net, which the
// checker must flag as a crossing, and saves the broken result.
func corrupt(t *testing.T, res *rdlroute.Result, path string) {
	t.Helper()
	lay := res.Layout
	if len(lay.Routes) == 0 || len(lay.D.Nets) < 2 {
		t.Fatal("fixture layout has no routes to corrupt")
	}
	r := lay.Routes[0]
	r.Net = (r.Net + 1) % len(lay.D.Nets)
	lay.Routes = append(lay.Routes, r)
	writeResult(t, path, res)
}

func TestUsageExitCode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("run with no args: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "need -design and -routes") {
		t.Fatalf("usage message missing, got %q", errb.String())
	}
}

func TestFileModeCleanAndViolations(t *testing.T) {
	dir := t.TempDir()
	designPath, routesPath, res := writeFiles(t, dir, 5)

	var out, errb bytes.Buffer
	if code := run([]string{"-design", designPath, "-routes", routesPath}, &out, &errb); code != 0 {
		t.Fatalf("clean layout: exit %d, want 0 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "drc         clean") {
		t.Fatalf("clean layout output missing drc line:\n%s", out.String())
	}

	badPath := filepath.Join(dir, "bad.json")
	corrupt(t, res, badPath)
	out.Reset()
	errb.Reset()
	if code := run([]string{"-design", designPath, "-routes", badPath}, &out, &errb); code != 1 {
		t.Fatalf("violating layout: exit %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "violations") {
		t.Fatalf("violating layout output missing violation count:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-design", designPath, "-routes", badPath, "-json"}, &out, &errb); code != 1 {
		t.Fatalf("violating layout -json: exit %d, want 1", code)
	}
	var rep fileReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Clean || len(rep.Violations) == 0 {
		t.Fatalf("-json report should carry violations, got clean=%v violations=%d",
			rep.Clean, len(rep.Violations))
	}
	if rep.Nets == 0 || rep.Routed == 0 {
		t.Fatalf("-json report missing metrics: %+v", rep)
	}
}

// TestFileModeRejectsBadInput: a result the codec cannot decode against
// the design is an input error (exit 2) naming where it went wrong, not a
// layout the checker reports on — neither a via on a net the design does
// not have nor a result routed on another design.
func TestFileModeRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	// Seed 6 has several wire layers, so slab 0 is legal and only the
	// via's net is out of range.
	designPath, routesPath, res := writeFiles(t, dir, 6)
	name := res.Layout.D.Name

	other := qa.Generate(5)
	otherPath := filepath.Join(dir, "other.json")
	writeDesign(t, otherPath, other)

	n := len(res.Layout.Vias)
	res.Layout.Vias = append(res.Layout.Vias,
		rdlroute.Via{Net: 99999, Slab: 0, Center: res.Layout.D.Outline.Center(), Width: 12})
	danglingPath := filepath.Join(dir, "dangling.json")
	writeResult(t, danglingPath, res)

	for _, c := range []struct {
		name, design, routes, want string
	}{
		{"dangling via", designPath, danglingPath, fmt.Sprintf("layout.vias[%d].net: net 99999 out of range", n)},
		{"wrong design", otherPath, routesPath,
			`result is for design "` + name + `", decoding against "` + other.Name + `"`},
	} {
		var out, errb bytes.Buffer
		if code := run([]string{"-design", c.design, "-routes", c.routes}, &out, &errb); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stdout: %s)", c.name, code, out.String())
		}
		if !strings.Contains(errb.String(), c.want) {
			t.Errorf("%s: stderr does not name %q: %q", c.name, c.want, errb.String())
		}
	}
}

func TestRandomMode(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-random", "2", "-seed", "1"}, &out, &errb); code != 0 {
		t.Fatalf("-random 2: exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "qa: 2 designs") {
		t.Fatalf("-random report missing summary:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "seed 1 design") {
		t.Fatalf("-random progress log missing from stderr:\n%s", errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-random", "1", "-seed", "3", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("-random -json: exit %d, want 0 (stderr: %s)", code, errb.String())
	}
	var rep struct {
		Seed     int64 `json:"seed"`
		OK       bool  `json:"ok"`
		Designs  int
		Failures []qa.SeedFailure
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-random -json output is not valid JSON: %v\n%s", err, out.String())
	}
	if !rep.OK || rep.Designs != 1 || rep.Seed != 3 || len(rep.Failures) != 0 {
		t.Fatalf("unexpected -random -json report: %+v", rep)
	}
}
