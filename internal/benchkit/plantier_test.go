package benchkit

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunPlanTierSmall runs the planning-tier sweep at toy scale and checks
// the report's shape: 4 tiers x 3 queries of rows, one summary per tier,
// the acceptance-check lines, and a template-cache measurement. It does NOT
// assert the greedy planning-time check passes — a loaded test machine can
// miss an absolute 50 us.
func TestRunPlanTierSmall(t *testing.T) {
	cfg := PlanTierConfig{
		RRows: 400, SRows: 1200, AGroups: 200,
		Seed: 3, DOP: 2, PlanRepeats: 2, ExecRepeats: 1,
	}
	var buf bytes.Buffer
	rep, err := RunPlanTier(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 12 {
		t.Fatalf("%d rows, want 12 (4 tiers x 3 queries)", len(rep.Rows))
	}
	if len(rep.Summaries) != 4 {
		t.Fatalf("%d summaries, want 4", len(rep.Summaries))
	}
	if len(rep.Checks) != 3 {
		t.Fatalf("%d check lines, want 3: %v", len(rep.Checks), rep.Checks)
	}
	for _, r := range rep.Rows {
		if r.PlanNS <= 0 || r.ExecMillis < 0 || r.Plan == "" {
			t.Fatalf("degenerate row: %+v", r)
		}
		if r.Tier == "greedy" && r.Alternatives >= rep.Rows[len(rep.Rows)-1].Alternatives &&
			rep.Rows[len(rep.Rows)-1].Tier == "deep" {
			t.Fatalf("greedy costed as many alternatives as deep: %+v", r)
		}
	}
	// Deep is the last tier listed; its summary is the speedup baseline.
	deep := rep.Summaries[len(rep.Summaries)-1]
	if deep.Tier != "deep" || deep.PlanSpeedupX != 1 {
		t.Fatalf("deep baseline summary malformed: %+v", deep)
	}
	// The template-cache measurement must show a zero-enumeration hit.
	if rep.Template.HitAlternatives != 0 {
		t.Fatalf("template hit enumerated %d alternatives", rep.Template.HitAlternatives)
	}
	if rep.Template.SpeedupX <= 0 || rep.Template.Fingerprint == "" {
		t.Fatalf("template stats malformed: %+v", rep.Template)
	}
	out := buf.String()
	for _, want := range []string{"greedy", "beam-2", "beam-8", "deep", "template"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
