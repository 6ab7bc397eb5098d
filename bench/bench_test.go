package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"mobweb/internal/document"
)

// mini shrinks a workload's corpus so a test sets it up in milliseconds;
// everything else about the workload stays.
func mini(t *testing.T, name string, docs int) workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.docs = docs
	return w
}

// miniCounts is the 40-op run of the tests: 4 warm-up ops and 12 slices
// of 3.
func miniCounts(workload) opCounts { return opCounts{warm: 4, slice: 3} }

func miniRun(t *testing.T, w workload, seed int64, counts func(workload) opCounts, traced bool) result {
	t.Helper()
	cfg := config{seed: seed, lanes: 1, outDir: t.TempDir()}
	results, _, err := benchmark([]workload{w}, cfg, counts, 1, traced)
	if err != nil {
		t.Fatal(err)
	}
	if r := results[0]; !r.correct() {
		t.Fatalf("%s: %d of %d ops failed, %d replay mismatches", w.name, r.failed, r.attempted, r.mismatches)
	}
	return results[0]
}

func TestCorpusIsSeededAndExactlySized(t *testing.T) {
	a, err := genCorpus(7, "k", 3, smallDoc)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genCorpus(7, "k", 3, smallDoc)
	c, _ := genCorpus(8, "k", 3, smallDoc)
	for i := range a.docs {
		if got := a.docs[i].doc.Size(); got != smallDoc {
			t.Errorf("doc %d body is %d bytes, want %d", i, got, smallDoc)
		}
		if !bytes.Equal(a.docs[i].xml, b.docs[i].xml) {
			t.Errorf("doc %d differs between two generations of one seed", i)
		}
		if bytes.Equal(a.docs[i].xml, c.docs[i].xml) {
			t.Errorf("doc %d is the same under two seeds", i)
		}
		if secs, _ := a.docs[i].doc.UnitsAt(document.LODSection); len(secs) < 3 { // abstract plus sections
			t.Errorf("doc %d has %d section-level units, want a paper's worth", i, len(secs))
		}
	}
	if !reflect.DeepEqual(a.pool, b.pool) || len(a.pool) != 4 {
		t.Errorf("query pools %v and %v, want four equal queries", a.pool, b.pool)
	}
}

func TestScriptsFollowTheSeedAlone(t *testing.T) {
	for _, w := range workloads {
		w.docs = min(w.docs, 12)
		c, err := genCorpus(3, w.scriptKey, w.docs, w.docBytes)
		if err != nil {
			t.Fatal(err)
		}
		a, b := script(w, c, 3, 300), script(w, c, 3, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two scripts of one seed differ", w.name)
		}
		if reflect.DeepEqual(a, script(w, c, 4, 300)) {
			t.Errorf("%s: scripts of two seeds are equal", w.name)
		}
		seen := make(map[string]bool)
		for i, o := range a {
			if o.doc != i%w.docs {
				t.Fatalf("%s: op %d reads doc %d, want round-robin", w.name, i, o.doc)
			}
			if (o.query == "") != (w.queries == queryNone) {
				t.Fatalf("%s: op %d has query %q", w.name, i, o.query)
			}
			if w.queries == queryUnique {
				if key := c.docs[o.doc].name + "/" + o.query; seen[key] {
					t.Fatalf("%s: op %d repeats query %q", w.name, i, o.query)
				} else {
					seen[key] = true
				}
			}
		}
	}
	// The two weak workloads must see the same documents, queries and
	// channels; only the codec differs.
	vand, _ := workloadByName("weak_vand")
	fount, _ := workloadByName("weak_fountain")
	c, err := genCorpus(5, vand.scriptKey, 4, vand.docBytes)
	if err != nil {
		t.Fatal(err)
	}
	vand.docs, fount.docs = 4, 4
	if !reflect.DeepEqual(script(vand, c, 5, 100), script(fount, c, 5, 100)) {
		t.Error("weak_vand and weak_fountain scripts differ")
	}
}

func TestCountMetricsRepeatExactly(t *testing.T) {
	for _, tc := range []struct {
		name          string
		docs          int
		seedSensitive bool
	}{
		{"hot_clean", 4, false}, // fixed-size documents over a clean channel: every seed reads the same bytes
		{"weak_vand", 4, true},
		{"cold_query", 12, true},
	} {
		w := mini(t, tc.name, tc.docs)
		a := miniRun(t, w, 11, miniCounts, false)
		b := miniRun(t, w, 11, miniCounts, false)
		other := miniRun(t, w, 12, miniCounts, false)
		differs := false
		for _, name := range exactCounts {
			if a.endToEnd[name] != b.endToEnd[name] {
				t.Errorf("%s: %s = %v then %v under one seed", tc.name, name, a.endToEnd[name], b.endToEnd[name])
			}
			differs = differs || a.endToEnd[name] != other.endToEnd[name]
		}
		if differs != tc.seedSensitive {
			t.Errorf("%s: counts differ between seeds = %v, want %v", tc.name, differs, tc.seedSensitive)
		}
		if a.attempted != 36 {
			t.Errorf("%s: %d timed ops, want 36", tc.name, a.attempted)
		}
		for _, d := range endToEnd {
			if v := a.endToEnd[d.name]; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", tc.name, d.name, v)
			}
		}
	}
}

func TestCorruptReferenceFailsTheRun(t *testing.T) {
	w := mini(t, "hot_clean", 4)
	b, err := setUp(w, config{seed: 1, lanes: 1, outDir: t.TempDir()}, miniCounts(w))
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	b.refs[0][100] ^= 1
	s := b.runSlice(0)
	if s.failed == 0 {
		t.Fatal("a fetch matched a reference body that was corrupted")
	}
	res := summarize(measured{b: b, setups: []float64{1}, slices: []sliceResult{s}})
	if res.correct() {
		t.Error("the result of a run with mismatching bodies reads correct")
	}
	line, err := resultJSON(res, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(line, []byte(`"correct":false`)) {
		t.Errorf("result line %s does not report the failure", line)
	}
}

func TestTracedPassAttributesEveryWorkload(t *testing.T) {
	counts := func(workload) opCounts { return opCounts{warm: 4, slice: 2, traced: 5} }
	for _, w := range workloads {
		w.docs = min(w.docs, 4)
		if w.store {
			w.docs = 24 // a revisit must find its records evicted, as in the full run
		}
		dir := t.TempDir()
		cfg := config{seed: 2, lanes: 1, outDir: dir}
		results, _, err := benchmark([]workload{w}, cfg, counts, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		r := results[0]
		if !r.correct() {
			t.Errorf("%s: %d failed, %d replay mismatches", w.name, r.failed, r.mismatches)
		}
		for _, d := range perLayer {
			v, ok := r.layers[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v (present %v), want a finite value", w.name, d.name, v, ok)
			}
		}
		if len(r.layers) != len(perLayer) {
			t.Errorf("%s: %d layer metrics reported, %d declared", w.name, len(r.layers), len(perLayer))
		}
		// Layers a workload does not use must stay at zero.
		zero := map[string]bool{
			"fountain.add_ns_per_symbol":        w.codec == 0,
			"store.put_us_per_visit":            !w.store,
			"core.render_progress_us_per_fetch": !w.progress,
			"core.newplan_us":                   w.queries != queryUnique,
			"channel.inject_ns":                 w.alpha == 0,
		}
		for name, wantZero := range zero {
			if got := r.layers[name]; (got == 0) != wantZero {
				t.Errorf("%s: %s = %v, want zero: %v", w.name, name, got, wantZero)
			}
		}
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		names := make(map[string]bool)
		for _, s := range spans {
			names[s.Name] = true
			if s.EndNs < s.StartNs {
				t.Errorf("%s: span %s of %s ends before it starts", w.name, s.Name, s.Op)
			}
		}
		for _, want := range []string{"op", "transport.dial", "transport.fetch", "replay", "planner.resolve", "core.addframe", "packet.parse"} {
			if !names[want] {
				t.Errorf("%s: trace has no %s span", w.name, want)
			}
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Errorf("%s: run left %d entries in its output directory, want only the trace file", w.name, len(entries))
		}
	}
}

// TestBenchmarkJSONMatchesTheCode keeps the contract file and the program
// in step: same workloads and reasons, same metrics, units, directions and
// bounds, all within the schema's limits.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != 10 {
		t.Errorf("run_seconds = %d, but -seconds defaults to 10 and the slice op counts are sized for it", spec.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := make(map[string]bool)
	checkName := func(name string) {
		if !nameRE.MatchString(name) || used[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		used[name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), the code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the code", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %d is %+v, the code has %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || bounded && (*m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound %v against the code's %v", m.Name, m.Bound, d.bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d layer and %d end-to-end metrics exceed the contract's limits", len(perLayer), len(endToEnd))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := run([]string{"-seconds", "0"}, &out, &errOut); code != 2 {
		t.Errorf("zero seconds: exit %d", code)
	}
}
