package benchkit

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dqo/internal/datagen"
	"dqo/internal/physical"
)

// Small-scale smoke tests: the harness must run end-to-end and the Figure 5
// factors must be exact at any scale (they are model-derived). Figure 4
// shape checks at full scale live in the benchmarks and cmd/dqobench.

func TestRunFigure4Small(t *testing.T) {
	cfg := Figure4Config{N: 200000, Groups: []int{1, 100, 1000}, Seed: 1, Repeats: 1}
	var buf bytes.Buffer
	rows, err := RunFigure4(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted quadrants run 4 algorithms (OG applies), unsorted 3:
	// 3 group counts x (4+4+3+3) = 42.
	if len(rows) != 42 {
		t.Fatalf("%d rows, want 42", len(rows))
	}
	out := buf.String()
	for _, want := range []string{"sorted-dense", "unsorted-sparse", "SPHG", "BSG", "runtime_ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	for _, r := range rows {
		if r.Millis < 0 {
			t.Fatalf("negative runtime: %+v", r)
		}
	}
}

func TestRunFigure4QuadrantFilterAndZoom(t *testing.T) {
	cfg := Figure4Config{N: 100000, Groups: []int{100}, Seed: 1, Quadrant: "unsorted-sparse", Zoom: true}
	var buf bytes.Buffer
	rows, err := RunFigure4(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Zoom adds 9 group counts; 10 total x 3 algorithms (no OG: unsorted).
	if len(rows) != 30 {
		t.Fatalf("%d rows, want 30", len(rows))
	}
	for _, r := range rows {
		if r.Quadrant != "unsorted-sparse" {
			t.Fatalf("quadrant filter leaked: %+v", r)
		}
	}
	if _, err := RunFigure4(Figure4Config{N: 10, Groups: []int{1}, Quadrant: "bogus"}, &buf); err == nil {
		t.Fatal("bogus quadrant accepted")
	}
}

func TestRunFigure5PaperScale(t *testing.T) {
	cfg := DefaultFigure5()
	var buf bytes.Buffer
	cells, err := RunFigure5(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("%d cells, want 8", len(cells))
	}
	for _, c := range cells {
		if !c.Dense && c.Factor != 1.0 {
			t.Fatalf("sparse cell %v has factor %g, want 1.0", c, c.Factor)
		}
	}
	at := func(rs, ss bool) Figure5Cell {
		for _, c := range cells {
			if c.Dense && c.RSorted == rs && c.SSorted == ss {
				return c
			}
		}
		t.Fatalf("cell missing")
		return Figure5Cell{}
	}
	if f := at(true, true).Factor; f != 1.0 {
		t.Fatalf("sorted/sorted dense factor %g, want 1.0", f)
	}
	if f := at(true, false).Factor; f != 4.0 {
		t.Fatalf("Rsorted/Sunsorted dense factor %g, want 4.0", f)
	}
	if f := at(false, false).Factor; f != 4.0 {
		t.Fatalf("unsorted/unsorted dense factor %g, want 4.0", f)
	}
	if f := at(false, true).Factor; f < 2.3 || f > 2.6 {
		t.Fatalf("Runsorted/Ssorted dense factor %g, want ~2.43", f)
	}
	out := buf.String()
	for _, want := range []string{"Figure 5", "sparse", "dense", "SPHJ", "SPHG"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFigure5Execute(t *testing.T) {
	cfg := Figure5Config{RRows: 2000, SRows: 9000, AGroups: 2000, Seed: 1, Execute: true}
	var buf bytes.Buffer
	cells, err := RunFigure5(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.SQOMillis < 0 || c.DQOMillis < 0 {
			t.Fatalf("execution not timed: %+v", c)
		}
	}
	if !strings.Contains(buf.String(), "measured execution time") {
		t.Fatal("execution section missing")
	}
}

func TestCheckFigure4Shape(t *testing.T) {
	// Build synthetic rows matching the paper's shapes exactly; every check
	// must pass.
	mk := func(q, a string, g int, ms float64) Figure4Row {
		return Figure4Row{Quadrant: q, Algorithm: a, Groups: g, Millis: ms}
	}
	rows := []Figure4Row{
		mk("sorted-dense", "OG", 40000, 250), mk("sorted-dense", "SPHG", 40000, 260),
		mk("sorted-dense", "HG", 40000, 1100), mk("sorted-dense", "SOG", 40000, 1500),
		mk("sorted-sparse", "OG", 40000, 250), mk("sorted-sparse", "HG", 40000, 1100),
		mk("sorted-sparse", "BSG", 100, 500), mk("sorted-sparse", "BSG", 40000, 1500),
		mk("unsorted-dense", "SPHG", 100, 250), mk("unsorted-dense", "SPHG", 40000, 270),
		mk("unsorted-dense", "HG", 100, 700), mk("unsorted-dense", "HG", 40000, 1500),
		mk("unsorted-sparse", "HG", 40000, 1500), mk("unsorted-sparse", "BSG", 40000, 9000),
		mk("unsorted-sparse", "HG", 1, 600), mk("unsorted-sparse", "BSG", 1, 500),
	}
	report := CheckFigure4Shape(rows)
	if len(report) != 9 {
		t.Fatalf("%d checks, want 9: %v", len(report), report)
	}
	for _, c := range report {
		if !c.OK {
			t.Fatalf("check failed on ideal data: %s", c)
		}
	}
	// Invert one relationship: the corresponding check must fail.
	rows[2].Millis = 100 // HG suddenly fastest on sorted-dense
	report = CheckFigure4Shape(rows)
	foundFail := false
	for _, c := range report {
		if !c.OK && strings.HasPrefix(c.String(), "FAIL  sorted-dense") {
			foundFail = true
		}
	}
	if !foundFail {
		t.Fatal("shape checker did not detect an inverted relationship")
	}
}

func TestWriteBenchJSON(t *testing.T) {
	var buf bytes.Buffer
	doc := BenchDoc{Experiment: "x", Rows: []int{1}, Checks: []Check{{OK: false, What: "claim"}}}
	if err := WriteBenchJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	var got BenchDoc
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Env.GoVersion == "" || got.Env.NumCPU <= 0 || got.Env.GOMAXPROCS <= 0 {
		t.Fatalf("env block not filled: %+v", got.Env)
	}
	if len(got.Checks) != 1 || got.Checks[0] != doc.Checks[0] || got.Checks[0].String() != "FAIL  claim" {
		t.Fatalf("checks round-trip: %+v", got.Checks)
	}
}

func TestAblations(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunAblationHashTable(100000, 1000, 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("A1: %d rows, want 4", len(rows))
	}
	rows, err = RunAblationSort(100000, 1000, 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("A2: %d rows, want 2", len(rows))
	}
	rows, err = RunAblationParallel(200000, 1000, 4, 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // workers 1, 2, 4
		t.Fatalf("A3: %d rows, want 3", len(rows))
	}
	res, err := RunAblationAV(Figure5Config{RRows: 2000, SRows: 9000, AGroups: 2000, Seed: 1}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.CostImprovement <= 1 {
		t.Fatalf("A4: structure AV did not improve cost: %+v", res)
	}
	if res.OptTimeImprovement <= 1 {
		t.Fatalf("A4: plan cache did not speed up optimisation: %+v", res)
	}
	out := buf.String()
	for _, want := range []string{"A1", "A2", "A3", "A4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q", want)
		}
	}
}

func TestRunAndTimeGroupingPlan(t *testing.T) {
	ms, err := RunAndTimeGroupingPlan(physical.HG, 10000, 10, datagen.Quadrant{Sorted: true, Dense: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms < 0 {
		t.Fatal("negative runtime")
	}
}

func TestAblationEngine(t *testing.T) {
	var buf bytes.Buffer
	rows, err := RunAblationEngine(100000, 500, 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("A5: %d rows, want 3", len(rows))
	}
	if !strings.Contains(buf.String(), "bundle:sph") {
		t.Fatal("A5 output missing bundle engine rows")
	}
}

func TestWriteCSV(t *testing.T) {
	rows := []Figure4Row{{Quadrant: "sorted-dense", Algorithm: "OG", Groups: 10, Millis: 1.5}}
	var buf bytes.Buffer
	if err := WriteCSV(rows, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "quadrant,algorithm,groups,runtime_ms") ||
		!strings.Contains(got, "sorted-dense,OG,10,1.500") {
		t.Fatalf("CSV wrong:\n%s", got)
	}
}
