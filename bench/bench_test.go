package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func smokeConfig(seed uint64) config {
	return config{seed: seed, window: 400 * time.Millisecond, settle: 50 * time.Millisecond, setups: 1, sizes: smokeSizes,
		traceOut: os.DevNull}
}

// TestSmoke runs every workload end to end and traced at toy sizes: every
// named metric is present, nothing fails, and the exact counts repeat.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			var out bytes.Buffer
			res, err := runUntraced(ctx, w, smokeConfig(1), &out)
			if err != nil {
				t.Fatalf("untraced: %v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run not clean: %+v\n%s", res, out.String())
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}

			var traced [2]outcome
			for k := range traced {
				out.Reset()
				if traced[k], err = runTraced(ctx, w, smokeConfig(1), &out); err != nil {
					t.Fatalf("traced: %v\n%s", err, out.String())
				}
				if !traced[k].Correct || traced[k].Failed != 0 {
					t.Fatalf("traced run not clean: %+v\n%s", traced[k], out.String())
				}
			}
			for _, m := range perLayer {
				a, ok := traced[0].Metrics[m.Name]
				if !ok || a.Unit != m.Unit {
					t.Errorf("per-layer metric %s = %+v, want unit %s", m.Name, a, m.Unit)
				}
				if b := traced[1].Metrics[m.Name]; m.exact && a.Value != b.Value {
					t.Errorf("exact count %s differs between two runs of one seed: %v and %v", m.Name, a.Value, b.Value)
				}
			}
		})
	}
}

// TestSeedDrivesLiteralsNotSizes: a second seed changes arguments and keys
// but no table size and no pool size.
func TestSeedDrivesLiteralsNotSizes(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, a2, b := w.build(1, smokeSizes), w.build(1, smokeSizes), w.build(2, smokeSizes)
		if !reflect.DeepEqual(renderOps(a), renderOps(a2)) {
			t.Errorf("%s: one seed generated two different operation pools", w.name)
		}
		if len(a.ops) != len(b.ops) || len(a.tables) != len(b.tables) {
			t.Fatalf("%s: the seed changed the pool or the schema", w.name)
		}
		for k := range a.tables {
			if a.tables[k].rows() != b.tables[k].rows() {
				t.Errorf("%s: the seed changed the size of %s", w.name, a.tables[k].name)
			}
		}
		if w.name != "scan-group" && reflect.DeepEqual(renderOps(a), renderOps(b)) {
			t.Errorf("%s: two seeds generated the same literals", w.name)
		}
		if reflect.DeepEqual(a.tables, b.tables) {
			t.Errorf("%s: two seeds generated the same table contents", w.name)
		}
	}
}

func renderOps(b *blueprint) [][]string {
	var out [][]string
	for _, o := range b.ops {
		var calls []string
		for _, c := range o {
			calls = append(calls, c.st.q.sql(c.args))
		}
		out = append(out, calls)
	}
	return out
}

// TestReferenceAgainstHandComputed pins the reference evaluator to answers
// worked out by hand, so that it cannot drift together with the engine.
func TestReferenceAgainstHandComputed(t *testing.T) {
	tables := map[string]*table{
		"R": {name: "R", cols: []column{{name: "ID", u32: []uint32{1, 2, 3}}, {name: "A", u32: []uint32{7, 7, 9}}}},
		"S": {name: "S", cols: []column{{name: "R_ID", u32: []uint32{1, 1, 2, 3, 3, 3}}, {name: "M", i64: []int64{10, 20, 30, 40, 50, 60}}}},
	}
	q := &query{sel: []string{"R.A"}, aggs: []agg{{fn: "COUNT"}, {fn: "SUM", col: "S.M"}}, from: "R",
		joins: []join{{"S", "R.ID", "S.R_ID"}}, where: []pred{{col: "S.M", op: ">=", arg: 0}}, groupBy: "R.A", orderBy: "R.A", limit: -1}
	got, err := reference(tables, q, []int64{20})
	if err != nil {
		t.Fatal(err)
	}
	// M >= 20 keeps (1,20) (2,30) (3,40) (3,50) (3,60): A=7 -> 2 rows, sum 50; A=9 -> 3 rows, sum 150.
	want := expect{rows: 2, sum: rowSum([]int64{7, 2, 50}) + rowSum([]int64{9, 3, 150}), ordered: true}
	if got != want {
		t.Fatalf("reference = %+v, want %+v", got, want)
	}
	good := resultSet{rows: 2, cols: []column{{u32: []uint32{7, 9}}, {i64: []int64{2, 3}}, {i64: []int64{50, 150}}}}
	if err := want.check(good, true); err != nil {
		t.Errorf("correct answer rejected: %v", err)
	}
	swapped := resultSet{rows: 2, cols: []column{{u32: []uint32{7, 9}}, {i64: []int64{3, 2}}, {i64: []int64{50, 150}}}}
	if err := want.check(swapped, true); err == nil {
		t.Errorf("answer with two cells swapped between rows accepted")
	}
	unordered := resultSet{rows: 2, cols: []column{{u32: []uint32{9, 7}}, {i64: []int64{3, 2}}, {i64: []int64{150, 50}}}}
	if err := want.check(unordered, true); err == nil {
		t.Errorf("answer that breaks ORDER BY accepted")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the names the code
// prints from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, code has %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef(nil), defs...)
		for i := range out {
			out[i].exact = false
		}
		return out
	}
	if !reflect.DeepEqual(doc.EndToEnd, strip(endToEnd)) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, strip(perLayer)) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
}
